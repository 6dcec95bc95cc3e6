import xml.etree.ElementTree as ET

import pytest

from ontominer import miner as mining
from ontominer.cli import main


def run_cli(*args) -> int:
    return main(list(args))


def mine_args(bank_path, out, **overrides):
    args = ["mine", "--kb", bank_path, "--ref-concept", "Client",
            "--minsup", "0.5", "--max-depth", "3", "--mode", "sem",
            "--out", str(out)]
    for flag, value in overrides.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


def test_mine_writes_expected_outputs(bank_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(*mine_args(bank_path, out)) == 0
    patterns = (out / "patterns.txt").read_text().splitlines()
    assert patterns[0].startswith("1.000000\tQ(key) :- Client(key)")
    assert any(line.startswith("0.666667\t") and "p_familyAccount" in line
               for line in patterns)
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[0] == "depth,gen,sat,sfree,cand,freq"
    assert stats[1] == "1,1,1,1,1,1"
    assert "runtime" in capsys.readouterr().out
    assert "runtime" not in (out / "stats.csv").read_text()


def test_trie_graphml_structure(bank_path, tmp_path):
    out = tmp_path / "run"
    assert run_cli(*mine_args(bank_path, out)) == 0
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    tree = ET.parse(out / "trie.graphml")
    keys = {k.get("attr.name") for k in tree.findall("g:key", ns)}
    assert keys == {"atom", "support", "depth"}
    graph = tree.find("g:graph", ns)
    nodes = graph.findall("g:node", ns)
    edges = graph.findall("g:edge", ns)
    n_patterns = len((out / "patterns.txt").read_text().splitlines())
    assert len(nodes) == n_patterns
    assert len(edges) == len(nodes) - 1
    root = nodes[0]
    data = {d.get("key"): d.text for d in root.findall("g:data", ns)}
    assert data["d0"] == "Client(key)" and data["d2"] == "1"


def test_max_depth_one_single_line(bank_path, tmp_path):
    out = tmp_path / "d1"
    assert run_cli(*mine_args(bank_path, out, max_depth=1)) == 0
    lines = (out / "patterns.txt").read_text().splitlines()
    assert lines == ["1.000000\tQ(key) :- Client(key)"]


def test_identical_runs_are_byte_identical(bank_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*mine_args(bank_path, out1)) == 0
    assert run_cli(*mine_args(bank_path, out2)) == 0
    for name in ("patterns.txt", "stats.csv", "trie.graphml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_dump_program_and_models(bank_path, tmp_path):
    out = tmp_path / "dumps"
    prog, models = tmp_path / "p.txt", tmp_path / "m.txt"
    assert run_cli(*mine_args(bank_path, out, max_depth=1,
                              dump_program=prog, dump_models=models)) == 0
    assert ":- Account(?x0), CreditCard(?x0)." in prog.read_text()
    text = models.read_text()
    assert text.count("---") == 3  # four minimal models
    assert "Client(Anna)" in text


def test_bias_override(bank_path, tmp_path):
    out = tmp_path / "bias"
    assert run_cli(*mine_args(bank_path, out, max_depth=2,
                              bias="Client,isOwnerOf")) == 0
    lines = (out / "patterns.txt").read_text().splitlines()
    assert lines == ["1.000000\tQ(key) :- Client(key)",
                     "1.000000\tQ(key) :- Client(key), isOwnerOf(key, x1)"]


def test_unknown_bias_predicate_is_an_error(bank_path, tmp_path):
    assert run_cli(*mine_args(bank_path, tmp_path / "o", max_depth=2,
                              bias="Client,NoSuchThing")) == 1


def test_repeated_bias_predicate_is_an_error(tmp_path, capsys):
    # Rejected while the arguments are read: the KB file does not exist.
    assert run_cli(*mine_args(str(tmp_path / "missing.kb"), tmp_path / "o",
                              max_depth=2, mode="nosem",
                              bias="Client,isOwnerOf,isOwnerOf")) == 1
    assert capsys.readouterr().err == \
        "error: predicate 'isOwnerOf' repeated in bias\n"
    assert not (tmp_path / "o").exists()


def test_empty_bias_entry_is_shown(bank_path, tmp_path, capsys):
    assert run_cli(*mine_args(bank_path, tmp_path / "o", max_depth=2,
                              bias="Client,,isOwnerOf")) == 1
    assert "error: unknown predicates in bias: ''\n" in \
        capsys.readouterr().err


def test_pattern_lines_match_freq_counters(bank_path, tmp_path):
    out = tmp_path / "counts"
    assert run_cli(*mine_args(bank_path, out)) == 0
    per_depth = {}
    for line in (out / "patterns.txt").read_text().splitlines():
        body = line.split("\t")[1]
        depth = body.count("), ") + 1  # atoms are "), "-separated
        per_depth[depth] = per_depth.get(depth, 0) + 1
    for row in (out / "stats.csv").read_text().splitlines()[1:]:
        depth, *counts = row.split(",")
        assert per_depth.get(int(depth), 0) == int(counts[-1])


COMMANDS = ("mine", "compare")


def exit_codes(kb, ref_concept, tmp_path, *extra):
    """The exit code of each command on the KB, as {command: code}; the
    four error tests below run both commands because they share one error
    table."""
    codes = {}
    for command in COMMANDS:
        codes[command] = run_cli(command, "--kb", str(kb), "--ref-concept",
                                 ref_concept, "--minsup", "0.5",
                                 "--max-depth", "2", *extra,
                                 "--out", str(tmp_path / f"o-{command}"))
    return codes


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("(concept A\n")
    assert exit_codes(bad, "A", tmp_path) == {"mine": 1, "compare": 1}


def test_inconsistent_kb_exit_code(tmp_path):
    bad = tmp_path / "inc.kb"
    bad.write_text("(disjoint A B)\n(instance A x)\n(instance B x)\n")
    assert exit_codes(bad, "A", tmp_path) == {"mine": 2, "compare": 2}


def test_existential_disjuncts_past_the_skolem_cap_keep_the_kb_consistent(
        tmp_path, capsys):
    """Every disjunct of A's axiom is an existential, and the chain of As
    passes the default skolem cap: there each counts as satisfied, so the
    chase keeps a's branch instead of reading the KB as inconsistent."""
    kb = tmp_path / "chain.kb"
    kb.write_text("(concept A)\n(concept Client)\n(role r)\n(role s)\n"
                  "(subclass A (or (some r A) (some s A)))\n"
                  "(instance A a)\n(instance Client a)\n")
    out = tmp_path / "run"
    assert run_cli("mine", "--kb", str(kb), "--ref-concept", "Client",
                   "--minsup", "1/2", "--max-depth", "2",
                   "--out", str(out)) == 0
    assert (out / "patterns.txt").read_text().splitlines() == [
        "1.000000\tQ(key) :- Client(key)",
        "1.000000\tQ(key) :- Client(key), A(key)"]
    assert any(line.startswith("truncated:")
               for line in capsys.readouterr().out.splitlines())


def test_empty_reference_concept_exit_code(tmp_path):
    kb = tmp_path / "empty_ref.kb"
    kb.write_text("(concept A)\n(concept B)\n(instance B x)\n")
    assert exit_codes(kb, "A", tmp_path) == {"mine": 3, "compare": 3}


def test_branch_limit_exit_code(tmp_path):
    kb = tmp_path / "wide.kb"
    lines = ["(concept A)", "(range r (or A B))"]
    lines += [f"(related r s t{i})" for i in range(8)]
    lines += ["(instance A s)"]
    kb.write_text("\n".join(lines) + "\n")
    assert exit_codes(kb, "A", tmp_path, "--max-branches", "4") == {
        "mine": 4, "compare": 4}


@pytest.mark.parametrize("command", COMMANDS)
def test_out_path_is_a_file_fails_before_mining(bank_path, tmp_path, capsys,
                                                monkeypatch, command):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")

    def must_not_mine(*args, **kwargs):
        raise AssertionError("mined although the output path is unusable")

    monkeypatch.setattr(mining, "mine", must_not_mine)
    assert run_cli(command, "--kb", bank_path, "--ref-concept", "Client",
                   "--minsup", "0.5", "--max-depth", "2",
                   "--out", str(blocker)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_compare_outputs_reductions(bank_path, tmp_path):
    out = tmp_path / "cmp"
    args = ["compare", "--kb", bank_path, "--ref-concept", "Client",
            "--minsup", "0.5", "--max-depth", "3", "--out", str(out)]
    assert main(args) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == ("depth,cand_sem,freq_sem,cand_nosem,freq_nosem,"
                        "reduction_cand,reduction_freq")
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[-2]) >= 1.0 and float(cells[-1]) >= 1.0


def test_compare_empty_tbox_ratios_are_one(tmp_path):
    # Without axioms the semantic tests have nothing to prune, so both
    # settings see the same candidates.  (With binary predicates the
    # equivalence scan would still merge atom sets reached in two orders,
    # so this uses a unary vocabulary where each set has one order.)
    kb = tmp_path / "flat.kb"
    kb.write_text("(concept C)\n(concept D)\n(concept E)\n"
                  "(instance C a)\n(instance C b)\n(instance D a)\n"
                  "(instance D b)\n(instance E a)\n")
    out = tmp_path / "cmp"
    assert main(["compare", "--kb", str(kb), "--ref-concept", "C",
                 "--minsup", "0.5", "--max-depth", "3", "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()[1:]
    assert len(lines) == 3
    for line in lines:
        cells = line.split(",")
        assert cells[-2] == "1.00" and cells[-1] == "1.00", line


@pytest.mark.parametrize("argv", [
    ["mine", "--ref-concept", "Client", "--minsup", "0.5",
     "--max-depth", "abc"],
    ["mine", "--minsup", "0.5", "--max-depth", "2"],
    ["mine", "--ref-concept", "Client", "--minsup", "0.5",
     "--max-depth", "2", "--mode", "sem-tax"],
    ["compare", "--ref-concept", "Client", "--minsup", "0.5",
     "--max-depth", "2", "--mode", "sem"],
    ["compare", "--ref-concept", "Client", "--minsup", "0.5",
     "--max-depth", "2", "--dump-program", "program.txt",
     "--dump-models", "models.txt"],
], ids=["non-integer-depth", "missing-ref-concept", "unknown-mode",
        "compare-mode", "compare-dump"])
def test_usage_error_exits_one(bank_path, tmp_path, capsys, argv):
    """Exit 2 means an inconsistent KB, so a usage error exits 1."""
    code = run_cli(argv[0], "--kb", bank_path, *argv[1:],
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_zero(command, capsys):
    assert run_cli(command, "--help") == 0
    assert "--ref-concept" in capsys.readouterr().out
