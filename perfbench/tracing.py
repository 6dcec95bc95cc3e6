"""Outside-in layer trace for one ``ontominer mine`` call.

``install()`` replaces the public entry points of ``kbparse``, ``clausify``,
``reasoner`` and ``miner`` with timing wrappers and returns the recorder
that aggregates them.  Nothing under ``src/`` is changed: the wrappers are
installed by rebinding module and class attributes in the running process,
so they see exactly the calls the unmodified program makes.

Two call sites of the same function are told apart by the name that is
rebound.  ``ontominer.miner`` imported ``chase`` and ``answer_query`` by
name, so rebinding ``miner.chase`` catches only the full-KB chase and
``miner.answer_query`` only support evaluation, while rebinding the names in
``ontominer.reasoner`` catches the frozen-query chases and the containment
tests that ``SemanticContext`` makes.

Spans are aggregated per name in memory (calls, total time, self time) and
reported once the call returns; a per-call record would hold millions of
spans on the semantic workload.  Self time is a span's duration minus the
durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import time


class Span:
    __slots__ = ("calls", "total_s", "self_s", "true_count", "models")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.true_count = 0
        self.models = 0


class Recorder:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        # One accumulator per open span: the time of its direct children.
        self._child_time: list[float] = []

    def wrap(self, name: str, fn, on_result=None):
        span = self.spans.setdefault(name, Span())
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
            if on_result is not None:
                on_result(span, result)
            return result

        return wrapper


def _count_true(span: Span, result: bool) -> None:
    if result:
        span.true_count += 1


def _count_models(span: Span, result) -> None:
    span.models += len(result.models)


def install() -> Recorder:
    """Wrap every traced entry point and return the recorder."""
    # By module path: the package re-exports a function named ``clausify``.
    clausify, kbparse, miner, reasoner = (
        importlib.import_module(f"ontominer.{name}")
        for name in ("clausify", "kbparse", "miner", "reasoner"))

    rec = Recorder()
    kbparse.load_kb = rec.wrap("kbparse.load_kb", kbparse.load_kb)
    # The full-KB program (miner) and the intensional one (SemanticContext).
    clausify_fn = clausify.clausify
    miner.clausify = rec.wrap("clausify.clausify", clausify_fn)
    reasoner.clausify = rec.wrap("clausify.clausify", clausify_fn)
    miner.chase = rec.wrap("reasoner.chase.full", miner.chase, _count_models)
    reasoner.chase = rec.wrap("reasoner.chase.frozen", reasoner.chase)
    miner.answer_query = rec.wrap("reasoner.answer_query.support",
                                  miner.answer_query)
    reasoner.answer_query = rec.wrap("reasoner.answer_query.containment",
                                     reasoner.answer_query)
    ctx = reasoner.SemanticContext
    ctx.satisfiable = rec.wrap("reasoner.ctx.satisfiable", ctx.satisfiable)
    ctx.subsumes = rec.wrap("reasoner.ctx.subsumes", ctx.subsumes)
    ctx.equivalent = rec.wrap("reasoner.ctx.equivalent", ctx.equivalent,
                              _count_true)
    miner.mine = rec.wrap("miner.mine", miner.mine)
    miner.refine_candidates = rec.wrap("miner.refine",
                                       miner.refine_candidates)
    miner.semantic_filter = rec.wrap("miner.semantic_filter",
                                     miner.semantic_filter)
    miner.is_semantically_free = rec.wrap("miner.is_semantically_free",
                                          miner.is_semantically_free)
    return rec


def report(rec: Recorder) -> dict[str, float]:
    """Flat per-layer figures: ``<span>.calls``, ``.total_s``, ``.self_s``,
    plus the equivalence-scan true ratio, the full chase's model count and
    the ``canonical_query`` cache counters."""
    reasoner = importlib.import_module("ontominer.reasoner")
    out: dict[str, float] = {}
    for name, span in rec.spans.items():
        out[f"{name}.calls"] = span.calls
        out[f"{name}.total_s"] = span.total_s
        out[f"{name}.self_s"] = span.self_s
    equiv = rec.spans["reasoner.ctx.equivalent"]
    out["reasoner.ctx.equivalent.true_ratio"] = (
        equiv.true_count / equiv.calls if equiv.calls else 0.0)
    out["reasoner.chase.full.models"] = rec.spans["reasoner.chase.full"].models
    info = reasoner.canonical_query.cache_info()
    out["reasoner.canonical_query.hits"] = info.hits
    out["reasoner.canonical_query.misses"] = info.misses
    return out
