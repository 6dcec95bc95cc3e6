"""The output writers stream each file and write the same bytes as before.

``ontominer.cli`` writes ``patterns.txt``, ``stats.csv`` and
``trie.graphml`` line by line to an open file.  The reference writers below
build every line, join them and write the string once, as the CLI used to;
both must give the same bytes.  The benchmark's golden digests pin the
files of its three workloads, and a ``tracemalloc`` bound checks that
writing a file holds far less than the file."""

import gc
import hashlib
import importlib.util
import pathlib
import sys
import tracemalloc
import weakref
from fractions import Fraction
from xml.sax.saxutils import escape

import pytest

from genkb import usable_kbs
from ontominer import cli
from ontominer import miner as mining
from ontominer.miner import MODE_NOSEM, MODE_SEM, MiningConfig, mine

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = ("patterns.txt", "stats.csv", "trie.graphml")


# -- reference writers: every line joined into one string --------------------

def _render_pattern(p):
    atoms = ", ".join(
        f"{a.pred}({', '.join(t.name for t in a.args)})" for a in p.body)
    return f"Q(key) :- {atoms}"


def joined_patterns(path, result):
    entries = sorted(
        ((len(p.body), -s, i, p, s)
         for i, (p, s) in enumerate(result.patterns)),
        key=lambda e: e[:3])
    lines = [f"{float(s):.6f}\t{_render_pattern(p)}"
             for _, _, _, p, s in entries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def joined_stats(path, result):
    lines = ["depth,gen,sat,sfree,cand,freq"]
    for depth in sorted(result.stats.per_depth):
        c = result.stats.per_depth[depth]
        lines.append(f"{depth},{c.gen},{c.sat},{c.sfree},{c.cand},{c.freq}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def joined_graphml(path, result):
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"',
           '         xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"',
           '         xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns'
           ' http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">',
           '  <key id="d0" for="node" attr.name="atom" attr.type="string"/>',
           '  <key id="d1" for="node" attr.name="support" attr.type="double"/>',
           '  <key id="d2" for="node" attr.name="depth" attr.type="int"/>',
           '  <graph id="trie" edgedefault="directed">']
    nodes = result.trie.nodes()
    for node in nodes:
        atom = escape(
            f"{node.atom.pred}({', '.join(t.name for t in node.atom.args)})")
        out.append(f'    <node id="n{node.seq}">')
        out.append(f'      <data key="d0">{atom}</data>')
        out.append(f'      <data key="d1">{float(node.support):.6f}</data>')
        out.append(f'      <data key="d2">{node.depth}</data>')
        out.append('    </node>')
    edge = 0
    for node in nodes:
        for child in node.children:
            out.append(f'    <edge id="e{edge}" source="n{node.seq}" '
                       f'target="n{child.seq}"/>')
            edge += 1
    out.append('  </graph>')
    out.append('</graphml>')
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


STREAMED = (cli._write_patterns, cli._write_stats, cli._write_graphml)
JOINED = (joined_patterns, joined_stats, joined_graphml)


def assert_same_bytes(result, tmp_path):
    for name, streamed, joined in zip(FILES, STREAMED, JOINED):
        streamed(tmp_path / f"streamed-{name}", result)
        joined(tmp_path / f"joined-{name}", result)
        assert (tmp_path / f"streamed-{name}").read_bytes() == \
            (tmp_path / f"joined-{name}").read_bytes(), name


@pytest.mark.parametrize("kb_fixture,mode", [
    ("bank_kb", MODE_SEM), ("bank_kb", MODE_NOSEM),
    ("bank_inverse_kb", MODE_SEM)])
def test_streamed_writers_match_joined_on_bank(request, tmp_path, kb_fixture,
                                               mode):
    kb = request.getfixturevalue(kb_fixture)
    result = mine(kb, MiningConfig("Client", Fraction(1, 2), 3, mode))
    assert_same_bytes(result, tmp_path)


@pytest.mark.parametrize("mode", [MODE_SEM, MODE_NOSEM])
def test_streamed_writers_match_joined_on_random_kbs(tmp_path, mode):
    for seed, kb in usable_kbs(4):
        result = mine(kb, MiningConfig("C0", Fraction(2, 5), 3, mode))
        out = tmp_path / str(seed)
        out.mkdir()
        assert_same_bytes(result, out)


# -- the benchmark's golden digests ------------------------------------------

def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _benchmark_workloads()


@pytest.mark.parametrize("name", list(WORKLOADS.WORKLOADS))
def test_benchmark_workload_outputs_match_golden_digests(name, tmp_path,
                                                         monkeypatch, capsys):
    # The workloads name their KBs relative to the root of the checkout.
    monkeypatch.chdir(ROOT)
    workload = WORKLOADS.WORKLOADS[name]
    kb = WORKLOADS.make_kb(workload, 1, tmp_path)
    out = tmp_path / "out"
    assert cli.main([*workload.args(kb), "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in WORKLOADS.OUTPUT_FILES)
    assert digests == workload.golden
    capsys.readouterr()


# -- memory ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def bank_nosem_d4(bank_kb):
    return mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 4, MODE_NOSEM))


@pytest.mark.parametrize("write,name", [
    (cli._write_patterns, "patterns.txt"),
    (cli._write_graphml, "trie.graphml")])
def test_writing_a_file_holds_less_than_half_of_it(bank_nosem_d4, tmp_path,
                                                   write, name):
    """A writer that joins every line first peaks at several times the
    file's size; a streaming one holds a buffer and the sorted nodes."""
    path = tmp_path / name
    tracemalloc.start()
    try:
        write(path, bank_nosem_d4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 500_000  # thousands of patterns, so the bound means much
    assert peak < size / 2, f"{name}: peak {peak} B for {size} B"


def test_compare_frees_each_trie_before_the_next_mode(bank_path, tmp_path,
                                                      monkeypatch, capsys):
    """``compare`` keeps each mode's counters and pattern count, not its
    result, so the sem trie is garbage by the time nosem mines."""
    results = []
    alive_during_second = []
    real_mine = mining.mine

    def recording_mine(*args, **kwargs):
        if results:
            gc.collect()
            alive_during_second.append(results[0]() is not None)
        result = real_mine(*args, **kwargs)
        results.append(weakref.ref(result.trie))
        return result

    monkeypatch.setattr(mining, "mine", recording_mine)
    assert cli.main(["compare", "--kb", bank_path, "--ref-concept", "Client",
                     "--minsup", "1/2", "--max-depth", "3",
                     "--out", str(tmp_path)]) == 0
    assert alive_during_second == [False]
    assert "sem: 104 patterns" in capsys.readouterr().out
