"""Command-line front end.

``ontominer mine`` runs one mining configuration and writes three files
into the output directory: ``patterns.txt`` (one frequent pattern per
line), ``stats.csv`` (per-depth candidate counters), and ``trie.graphml``
(the search trie).  ``ontominer compare`` runs the semantic and
non-semantic settings on the same KB and writes ``compare.csv`` with the
per-depth reduction ratios.  Each file is written line by line as it is
produced, never held whole in memory.  All outputs are deterministic
functions of the KB bytes and the configuration; wall-clock timing, the
shape of the full-KB chase (parts, models, truncation) and the count of
truncated frozen query chases go to stdout only.

Exit codes: 0 success, 1 usage, parse or validation error, 2 inconsistent
KB, 3 empty reference concept, 4 resource limit.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from typing import Optional
from xml.sax.saxutils import escape

from . import kbparse, miner as mining
from . import model as m
from .clausify import clausify, format_program
from .errors import (BranchLimitExceeded, EmptyReferenceConcept,
                     InconsistentKB, ParseError, UnsupportedAxiom)
from .reasoner import ChaseConfig, QuerySpec, chase, format_models


@dataclass
class RunConfig:
    kb_path: str
    mining: mining.MiningConfig
    chase: ChaseConfig = ChaseConfig()
    out_dir: str = "out"
    covering_complement: bool = False
    dump_program: Optional[str] = None
    dump_models: Optional[str] = None


def _render_pattern(p: QuerySpec) -> str:
    atoms = ", ".join(
        f"{a.pred}({', '.join(t.name for t in a.args)})" for a in p.body)
    return f"Q(key) :- {atoms}"


def _write_patterns(path: Path, result: mining.MineResult) -> None:
    # By depth, support descending, then registration order (``nodes()``
    # order): both sorts are stable.
    nodes = result.trie.nodes()
    nodes.sort(key=attrgetter("support"), reverse=True)
    nodes.sort(key=attrgetter("depth"))
    with open(path, "w", encoding="utf-8") as f:
        for node in nodes:
            f.write(f"{float(node.support):.6f}\t"
                    f"{_render_pattern(node.pattern)}\n")


def _write_stats(path: Path, result: mining.MineResult) -> None:
    per_depth = result.stats.per_depth
    with open(path, "w", encoding="utf-8") as f:
        f.write("depth,gen,sat,sfree,cand,freq\n")
        for depth in sorted(per_depth):
            c = per_depth[depth]
            f.write(f"{depth},{c.gen},{c.sat},{c.sfree},{c.cand},{c.freq}\n")


def _write_graphml(path: Path, result: mining.MineResult) -> None:
    nodes = result.trie.nodes()
    with open(path, "w", encoding="utf-8") as f:
        f.write('<?xml version="1.0" encoding="UTF-8"?>\n'
                '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"\n'
                '         xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"\n'
                '         xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns'
                ' http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">\n'
                '  <key id="d0" for="node" attr.name="atom" attr.type="string"/>\n'
                '  <key id="d1" for="node" attr.name="support" attr.type="double"/>\n'
                '  <key id="d2" for="node" attr.name="depth" attr.type="int"/>\n'
                '  <graph id="trie" edgedefault="directed">\n')
        for node in nodes:
            atom = escape(f"{node.atom.pred}"
                          f"({', '.join(t.name for t in node.atom.args)})")
            f.write(f'    <node id="n{node.seq}">\n'
                    f'      <data key="d0">{atom}</data>\n'
                    f'      <data key="d1">{float(node.support):.6f}</data>\n'
                    f'      <data key="d2">{node.depth}</data>\n'
                    f'    </node>\n')
        edge = 0
        for node in nodes:
            for child in node.children:
                f.write(f'    <edge id="e{edge}" source="n{node.seq}" '
                        f'target="n{child.seq}"/>\n')
                edge += 1
        f.write("  </graph>\n</graphml>\n")


def _load(cfg: RunConfig) -> m.CombinedKB:
    return kbparse.load_kb(cfg.kb_path, cfg.covering_complement)


# Exit code for each error a run reports as an ``error:`` line.
_EXIT_CODES = {ParseError: 1, UnsupportedAxiom: 1, OSError: 1, ValueError: 1,
               InconsistentKB: 2, EmptyReferenceConcept: 3,
               BranchLimitExceeded: 4}


def _exit_code_on_error(command):
    @functools.wraps(command)
    def wrapper(cfg: RunConfig) -> int:
        try:
            return command(cfg)
        except tuple(_EXIT_CODES) as e:
            print(f"error: {e}", file=sys.stderr)
            return next(code for kind, code in _EXIT_CODES.items()
                        if isinstance(e, kind))
    return wrapper


@_exit_code_on_error
def run(cfg: RunConfig) -> int:
    """Mine one configuration and write patterns, stats, and the trie."""
    kb = _load(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.dump_program:
        Path(cfg.dump_program).write_text(format_program(clausify(kb)),
                                          encoding="utf-8")
    if cfg.dump_models:
        # The single chase's model count is the product of the parts'.
        count = math.prod(len(ms.models)
                          for ms in mining.chase_parts(kb, cfg.chase))
        if count > cfg.chase.max_branches:
            raise BranchLimitExceeded(
                f"--dump-models would chase the whole KB into {count} "
                f"models, the product of its parts' model counts, more than "
                f"--max-branches {cfg.chase.max_branches}")
        ms = chase(clausify(kb), kb.abox, cfg.chase)
        Path(cfg.dump_models).write_text(format_models(ms), encoding="utf-8")
    result = mining.mine(kb, cfg.mining, cfg.chase)
    _write_patterns(out / "patterns.txt", result)
    _write_stats(out / "stats.csv", result)
    _write_graphml(out / "trie.graphml", result)
    print(f"{len(result.trie.nodes())} frequent patterns -> {out}")
    models = result.stats.part_models
    print(f"full chase: {len(models)} parts, {sum(models)} models, "
          f"{math.prod(models)} in their product")
    if result.stats.truncated_parts:
        print(f"truncated: {result.stats.truncated_parts} of {len(models)} "
              f"parts hit the skolem depth cap; patterns may be missing")
    if result.stats.truncated_frozen:
        print(f"truncated: {result.stats.truncated_frozen} frozen query "
              f"chases hit the skolem depth cap; semantic verdicts read from "
              f"them may be inexact")
    print(f"runtime: {result.stats.runtime:.3f}s")
    return 0


@_exit_code_on_error
def compare_modes(cfg: RunConfig) -> int:
    """Run sem and nosem on one KB and report the per-depth
    candidate/frequent reductions of the non-semantic run over the semantic
    one."""
    kb = _load(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = {}
    for mode in (mining.MODE_SEM, mining.MODE_NOSEM):
        result = mining.mine(kb, replace(cfg.mining, mode=mode), cfg.chase)
        # Keep what is reported; the trie is freed before the next mode.
        runs[mode] = (result.stats, len(result.trie.nodes()))
        del result
    with open(out / "compare.csv", "w", encoding="utf-8") as f:
        f.write("depth,cand_sem,freq_sem,cand_nosem,freq_nosem,"
                "reduction_cand,reduction_freq\n")
        for depth in sorted(runs[mining.MODE_SEM][0].per_depth):
            s, n = (runs[mode][0].per_depth[depth]
                    for mode in (mining.MODE_SEM, mining.MODE_NOSEM))
            row = [depth, s.cand, s.freq, n.cand, n.freq]
            row += [f"{nv / sv:.2f}" if sv else ""
                    for nv, sv in ((n.cand, s.cand), (n.freq, s.freq))]
            f.write(",".join(map(str, row)) + "\n")
    for mode, (stats, count) in runs.items():
        print(f"{mode}: {count} patterns, runtime {stats.runtime:.3f}s")
    print(f"comparison -> {out / 'compare.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kb", required=True, help="knowledge base file")
    p.add_argument("--ref-concept", required=True,
                   help="reference concept whose instances are counted")
    p.add_argument("--minsup", required=True,
                   help="minimum support in (0,1], e.g. 0.5 or 2/3")
    p.add_argument("--max-depth", required=True, type=int,
                   help="maximum number of atoms per pattern")
    p.add_argument("--bias", default=None,
                   help="comma-separated predicate list (default: all "
                        "predicates with a non-empty extension)")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--covering-complement", action="store_true",
                   help="read (equivalent A (not B)) as covering too, "
                        "not only disjointness")
    p.add_argument("--cp-keep-nondl", action="store_true",
                   help="keep non-DL facts in the KB copy used for the "
                        "semantic tests")
    p.add_argument("--skolem-depth", type=int, default=3)
    p.add_argument("--max-branches", type=int, default=100000)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    bias = tuple(s.strip() for s in args.bias.split(",")) if args.bias else None
    return RunConfig(
        kb_path=args.kb,
        mining=mining.MiningConfig(
            reference_concept=args.ref_concept,
            minsup=Fraction(args.minsup),
            max_depth=args.max_depth,
            mode=getattr(args, "mode", mining.MODE_SEM),
            bias=bias,
            cp_keep_nondl=args.cp_keep_nondl),
        chase=ChaseConfig(args.skolem_depth, args.max_branches),
        out_dir=args.out,
        covering_complement=args.covering_complement,
        dump_program=getattr(args, "dump_program", None),
        dump_models=getattr(args, "dump_models", None))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ontominer",
        description="Frequent conjunctive query discovery over combined "
                    "DL + rule knowledge bases")
    sub = parser.add_subparsers(dest="command", required=True)
    p_mine = sub.add_parser("mine", help="mine one configuration")
    _add_common(p_mine)
    p_mine.add_argument("--mode", choices=[mining.MODE_SEM, mining.MODE_NOSEM],
                        default=mining.MODE_SEM)
    p_mine.add_argument("--dump-program", default=None, metavar="FILE")
    p_mine.add_argument("--dump-models", default=None, metavar="FILE")
    p_cmp = sub.add_parser("compare", help="compare sem/nosem settings")
    _add_common(p_cmp)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # --help exits 0; a usage error is an input error like any other,
        # so it exits 1 rather than argparse's 2 (an inconsistent KB here).
        return 0 if e.code == 0 else 1
    try:
        cfg = _config_from_args(args)
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.command == "mine":
        return run(cfg)
    return compare_modes(cfg)


if __name__ == "__main__":
    sys.exit(main())
