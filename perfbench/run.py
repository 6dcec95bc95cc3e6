"""Benchmark of ``ontominer mine``, run as a user runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each sample is one ``ontominer mine`` call through ``ontominer.cli.main`` in
a fresh child process (``perfbench/child.py``), one at a time.  A fresh
process per sample matters: ``reasoner.canonical_query`` keeps a
process-global ``lru_cache`` that would otherwise carry thousands of entries
and millions of hits from one sample into the next.

With ``--trace 0`` a run makes several set-up samples (the same command at
``--max-depth 1``) and then mine samples until ``--seconds`` is used up,
always at least one, and prints the end-to-end metrics.  With ``--trace 1``
it makes one set-up sample, one untraced and one traced mine sample and,
for the semantic workload, the same configuration in nosem mode, and prints
the per-layer metrics of ``perfbench/tracing.py``.

Every sample's ``patterns.txt``, ``stats.csv`` and ``trie.graphml`` must
match the golden SHA-256 digests in ``perfbench/workloads.py`` and every
``stats.csv`` row must satisfy gen >= sat >= sfree >= cand >= freq.  For the
generated ``bankx4-nosem-d3`` KB the samples must also equal a plain
``demos/bank.kb`` run at the same configuration, made in the same run.  A
sample that fails a check, crashes or exits nonzero is counted in
``failed`` and the run goes on.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from workloads import (BANK_KB, OUTPUT_FILES, SETUP_GOLDEN, WORKLOADS,
                       Workload, make_kb)

CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = Path(".perfbench_work")
# Every child process is killed once the whole run has taken this long, so
# a run ends within the 180 s the benchmark promises.
HARD_LIMIT_S = 170.0
SETUP_SAMPLES_MIN = 3
SETUP_SAMPLES_MAX = 9
SETUP_SHARE = 0.1  # of --seconds, spent on set-up samples beyond the minimum


@dataclass
class Sample:
    wall_s: float = 0.0
    maxrss_mb: float = 0.0
    digests: tuple = ()
    stats_rows: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    error: Optional[str] = None


class Runner:
    """Runs child processes for one workload and keeps the tally."""

    def __init__(self, root: Path, work: Path, started: float):
        self.root = root
        self.work = work
        self.started = started
        self.attempted = 0
        self.failed = 0

    def sample(self, argv: list[str], expected: tuple, trace: bool = False,
               label: str = "") -> Sample:
        n = self.attempted
        self.attempted += 1
        result_path = self.work / f"r{n}.json"
        out = self.work / f"o{n}"
        cmd = [sys.executable, str(CHILD), str(result_path),
               "1" if trace else "0", "--", *argv, "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        s = Sample()
        try:
            proc = subprocess.run(cmd, env=env, cwd=self.root,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            s.error = f"killed after {timeout:.0f}s"
        else:
            if proc.returncode != 0:
                tail = proc.stderr.decode(errors="replace").strip()[-500:]
                s.error = f"child exited {proc.returncode}: {tail}"
            else:
                self._read(s, result_path, out, expected)
        shutil.rmtree(out, ignore_errors=True)
        if s.error is not None:
            self.failed += 1
            print(f"FAILED {label} sample {n}: {s.error}", file=sys.stderr)
        return s

    def _read(self, s: Sample, result_path: Path, out: Path,
              expected: tuple) -> None:
        result = json.loads(result_path.read_text(encoding="utf-8"))
        s.wall_s = result["wall_s"]
        s.maxrss_mb = result["maxrss_kb"] / 1024.0
        s.layers = result.get("layers", {})
        src = (self.root / "src").resolve()
        if not Path(result["package"]).resolve().is_relative_to(src):
            s.error = f"ontominer imported from {result['package']}, not {src}"
            return
        if result["rc"] != 0:
            s.error = f"ontominer mine exited {result['rc']}"
            return
        s.digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                          for f in OUTPUT_FILES)
        lines = (out / "stats.csv").read_text(encoding="utf-8").splitlines()
        s.stats_rows = [[int(x) for x in line.split(",")] for line in lines[1:]]
        if s.digests != expected:
            bad = [f for f, d, e in zip(OUTPUT_FILES, s.digests, expected)
                   if d != e]
            s.error = f"output differs from expected: {', '.join(bad)}"
            return
        for row in s.stats_rows:
            if any(a < b for a, b in zip(row[1:], row[2:])):
                s.error = f"stats.csv row not monotone: {row}"
                return


def _walls(samples: list[Sample]) -> list[float]:
    return [s.wall_s for s in samples if s.wall_s > 0]


def measure(w: Workload, seed: int, seconds: int, trace: bool,
            root: Path) -> dict:
    started = time.monotonic()
    work = root / WORK_DIR / f"{w.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, started)
        kb = make_kb(w, seed, work)
        expected = w.golden
        if w.abox_copies > 1:
            ref = runner.sample(w.args(BANK_KB), w.golden, label="reference")
            if ref.error is None:
                expected = ref.digests

        setup: list[Sample] = []
        while len(setup) < (1 if trace else SETUP_SAMPLES_MIN) or (
                not trace and len(setup) < SETUP_SAMPLES_MAX
                and time.monotonic() - started < SETUP_SHARE * seconds):
            setup.append(runner.sample(w.args(kb, max_depth=1), SETUP_GOLDEN,
                                       label="setup"))

        deadline = started + seconds
        mine: list[Sample] = []
        while True:
            t0 = time.monotonic()
            mine.append(runner.sample(w.args(kb), expected, label="mine"))
            if trace or time.monotonic() + (time.monotonic() - t0) > deadline:
                break

        setup_walls, mine_walls = _walls(setup), _walls(mine)
        if not setup_walls or not mine_walls:
            raise RuntimeError("no sample produced a timing")
        setup_s = statistics.median(setup_walls)
        mine_s = statistics.median(mine_walls)
        if trace:
            traced = runner.sample(w.args(kb), expected, trace=True,
                                   label="traced")
            nosem = None
            if w.nosem_golden is not None:
                nosem = runner.sample(w.args(kb, mode="nosem"),
                                      w.nosem_golden, label="nosem")
            metrics = _layer_metrics(traced, mine_s, setup_s, nosem)
        else:
            rows = next((s.stats_rows for s in mine if s.stats_rows), [])
            gen = sum(row[1] for row in rows)
            rss = statistics.median(s.maxrss_mb for s in mine if s.wall_s > 0)
            metrics = {
                "mine_s": (mine_s, "s"),
                "setup_s": (setup_s, "s"),
                "cand_per_s": (gen / mine_s, "1/s"),
                "peak_rss_mb": (rss, "MB"),
                "success_ratio": (
                    1 - runner.failed / runner.attempted, "ratio"),
            }
        # Fewer than eleven samples leave no percentile below the maximum
        # with ten samples beyond it, so the maximum is the tail reported.
        print(f"{w.name}: seed {seed}; mine_s median {mine_s:.4f} s, "
              f"max {max(mine_walls):.4f} s over {len(mine_walls)} samples; "
              f"setup_s median {setup_s:.4f} s over {len(setup_walls)} "
              f"samples; error_ratio {runner.failed / runner.attempted:.4f} "
              f"({runner.failed} of {runner.attempted} failed)")
        return {"correct": runner.failed == 0, "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _layer_metrics(traced: Sample, mine_s: float, setup_s: float,
                   nosem: Optional[Sample]) -> dict:
    if not traced.layers:
        raise RuntimeError(f"traced sample failed: {traced.error}")
    layers = traced.layers
    metrics = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else (
            "ratio" if name.endswith("_ratio") else "count")
        metrics[name] = (value, unit)
    rows = traced.stats_rows
    gen = sum(r[1] for r in rows)
    metrics["miner.pruned_unsat"] = (sum(r[1] - r[2] for r in rows), "count")
    metrics["miner.pruned_not_sfree"] = (sum(r[2] - r[3] for r in rows),
                                         "count")
    metrics["miner.pruned_equivalent"] = (sum(r[3] - r[4] for r in rows),
                                          "count")
    metrics["miner.freq_per_gen"] = (
        sum(r[5] for r in rows) / gen if gen else 0.0, "ratio")
    metrics["trace.mine_s"] = (traced.wall_s, "s")
    metrics["trace.overhead"] = (traced.wall_s / mine_s, "ratio")
    metrics["miner.semantic_filter.mine_share"] = (
        layers["miner.semantic_filter.total_s"] / traced.wall_s, "ratio")
    metrics["reasoner.answer_query.support.mine_share"] = (
        layers["reasoner.answer_query.support.self_s"] / traced.wall_s,
        "ratio")
    metrics["reasoner.chase.full.setup_share"] = (
        layers["reasoner.chase.full.total_s"] / setup_s, "ratio")
    # 0 marks a workload without a nosem counterpart (the nosem workloads:
    # their sem counterparts run for minutes).
    ratio = 0.0
    if nosem is not None and nosem.error is None:
        ratio = mine_s / nosem.wall_s
    metrics["sem_nosem_ratio"] = (ratio, "ratio")
    return metrics


def _print_metrics(name: str, result: dict) -> None:
    for metric, v in result["metrics"].items():
        print(f"{name} {metric} {v['value']:.6g} {v['unit']}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    for needed in (root / "src" / "ontominer" / "cli.py", root / BANK_KB):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of an "
                  f"ontominer checkout", file=sys.stderr)
            return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), root)
            _print_metrics(name, results[name])
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
