"""Trie-based frequent pattern search over a combined knowledge base.

A pattern is a conjunctive DL-safe query about a reference concept: a
``QuerySpec`` with key ``KEY`` whose first atom is the reference atom,
which applies the reference concept to ``key``.  Every other atom is
linked to ``key`` through shared variables, and every variable implicitly
carries an O atom (so answers range over named individuals only).  Each
trie node holds one atom; the root-to-node path spells out the pattern.

Children of a node arise two ways:

  1. Dependent atoms.  For each bias predicate, an atom is built for every
     injective placement of variables of the node's atom into argument
     positions, provided at least one placed variable was newly introduced
     by that atom; remaining positions get fresh variables.
  2. Right-brother copies.  Retained siblings to the right of the node are
     copied beneath it, with the variables they had introduced renamed
     fresh.  This makes every atom subset reachable in exactly one
     canonical permutation.

Support is evaluated against the full KB chased once per ABox part
(``reasoner.split_abox``): a pattern's certain answers are the union of each
part's, since every atom of a pattern is linked to ``key`` and so each of
its matches lies inside one part.  It is evaluated incrementally along the
trie: a node's matches (per answer and model, every binding of the
pattern's variables) are extended by the candidate's one atom, and a key
that fails a node is never tested below it.

Every candidate takes one path in every mode: it gets a verdict, and
``Counts.record`` counts it from the verdict and, if it is ``accepted``, its
support.  In ``sem`` mode the verdict comes from three tests, in order:
satisfiability against the intensional KB, semantic freeness (no
non-reference atom is deducible from the rest), and non-equivalence to any
frequent pattern already in the trie, tested only against the nodes that
may be equivalent to it by frozen-chase signature and, unless a part of the
full chase is truncated, by certain answers (``SemanticContext.note``).
Those answers come first when no disjunctive rule has an existential
disjunct: a candidate with one is satisfiable and is not searched.
``nosem`` skips all three and accepts every candidate.

Ordering is deterministic everywhere: bias order is KB declaration order,
dependent atoms are ordered by predicate then placement, and counters,
trie shape, and outputs are reproducible byte for byte.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, NamedTuple, Optional, Sequence

from . import model as m
from .clausify import clausify, compile_atom
from .errors import EmptyReferenceConcept, InconsistentKB
from .reasoner import (ChaseConfig, ModelIndex, ModelSet, QuerySpec,
                       SemanticContext, answer_query, chase, split_abox)

log = logging.getLogger(__name__)

KEY = m.Var("key")

MODE_SEM = "sem"
MODE_NOSEM = "nosem"

ACCEPTED = "accepted"
PRUNED_UNSAT = "pruned-unsat"
PRUNED_NOT_SFREE = "pruned-not-sfree"
PRUNED_EQUIVALENT = "pruned-equivalent"

_FRESH = None  # placement slot marker


def trivial_pattern(reference_concept: str) -> QuerySpec:
    """The reference pattern: the reference atom alone."""
    return QuerySpec(KEY, (m.Atom(reference_concept, (KEY,), m.CONCEPT),))


# How many of the semantic tests (satisfiability, semantic freeness,
# non-equivalence) a candidate with each verdict passed.
_TESTS_PASSED = {PRUNED_UNSAT: 0, PRUNED_NOT_SFREE: 1, PRUNED_EQUIVALENT: 2,
                 ACCEPTED: 3}


@dataclass
class Counts:
    gen: int = 0
    sat: int = 0
    sfree: int = 0
    cand: int = 0
    freq: int = 0

    def record(self, verdict: str, frequent: bool) -> None:
        """Count one generated candidate by its verdict and its support."""
        passed = _TESTS_PASSED[verdict]
        self.gen += 1
        self.sat += passed >= 1
        self.sfree += passed >= 2
        self.cand += passed >= 3
        self.freq += frequent

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.gen, self.sat, self.sfree, self.cand, self.freq)


@dataclass
class RunStats:
    """Per-depth counters, the wall time, the full chase's shape (the model
    count of each ABox part and how many parts were truncated), and how
    many memoized frozen chases of the semantic tests were truncated."""

    per_depth: dict[int, Counts] = field(default_factory=dict)
    runtime: float = 0.0
    part_models: tuple[int, ...] = ()
    truncated_parts: int = 0
    truncated_frozen: int = 0

    def at(self, depth: int) -> Counts:
        return self.per_depth.setdefault(depth, Counts())


class TrieNode:
    """One atom of a pattern; the root-to-node path is the pattern itself."""

    __slots__ = ("atom", "pattern", "support", "depth", "parent", "children",
                 "seq")

    def __init__(self, atom: m.Atom, pattern: QuerySpec, support: Fraction,
                 depth: int, parent: Optional["TrieNode"]):
        self.atom = atom
        self.pattern = pattern
        self.support = support
        self.depth = depth
        self.parent = parent
        self.children: list[TrieNode] = []
        self.seq = 0

    def right_brothers(self) -> list["TrieNode"]:
        if self.parent is None:
            return []
        idx = self.parent.children.index(self)
        return self.parent.children[idx + 1:]

    def __repr__(self) -> str:
        return f"TrieNode({self.atom}, support={self.support})"


class Trie:
    def __init__(self, root: TrieNode):
        # Every node in registration order, which is ``seq`` order.
        self._nodes: list[TrieNode] = [root]

    def register(self, parent: TrieNode, node: TrieNode) -> None:
        node.seq = len(self._nodes)
        parent.children.append(node)
        self._nodes.append(node)

    def nodes(self) -> list[TrieNode]:
        return list(self._nodes)


@dataclass(frozen=True)
class MiningConfig:
    reference_concept: str
    minsup: Fraction
    max_depth: int
    mode: str = MODE_SEM
    bias: Optional[tuple[str, ...]] = None
    cp_keep_nondl: bool = False

    def __post_init__(self):
        if not (0 < self.minsup <= 1):
            raise ValueError("minsup must lie in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.mode not in (MODE_SEM, MODE_NOSEM):
            raise ValueError(f"unknown mode {self.mode!r}")
        repeated = [n for i, n in enumerate(self.bias or ())
                    if n in self.bias[:i]]
        if repeated:
            raise ValueError(f"predicate {repeated[0]!r} repeated in bias")


@dataclass
class MineResult:
    trie: Trie
    stats: RunStats

    @property
    def patterns(self) -> list[tuple[QuerySpec, Fraction]]:
        """Each trie node's pattern and support, in registration order."""
        return [(n.pattern, n.support) for n in self.trie.nodes()]


# ---------------------------------------------------------------------------
# Support evaluation (the full KB chased once, one chase per ABox part)
# ---------------------------------------------------------------------------

def chase_parts(kb: m.CombinedKB,
                cfg: ChaseConfig = ChaseConfig()) -> list[ModelSet]:
    """The model set of each part of the full KB (``split_abox``).  The
    product of the parts, which is the single chase's model set, is never
    built, and ``cfg.max_branches`` bounds each part's chase on its own."""
    parts = [chase(program, facts, cfg)
             for program, facts in split_abox(clausify(kb), kb.abox)]
    if any(ms.inconsistent for ms in parts):
        raise InconsistentKB("the combined knowledge base is inconsistent")
    return parts


class Matches(NamedTuple):
    """A pattern's matches: ``varmap`` numbers its variables (``key`` is 0)
    and ``bindings`` maps each answer to the distinct bindings of those
    variables in each model of the answer's part, or to None when only the
    answers were asked for."""

    varmap: dict[m.Var, int]
    bindings: dict[str, Optional[tuple[list[tuple], ...]]]


class SupportEvaluator:
    """Support over the model sets of the ABox parts.  A pattern starts
    with the reference atom and every atom is linked to ``key``, so each of
    its matches lies inside one part, and its certain answers are the union
    of each part's; parts without a reference instance add none and are
    dropped.  Each kept part has one ``ModelIndex``, kept for the run, so a
    model is indexed once and models that hold the same atoms of a
    predicate share one list of them.

    Support is evaluated along the trie.  ``start`` gives the reference
    pattern's matches, the binding ``(key,)`` in every model of each
    reference key's part, and ``extend`` adds one atom: a key stays an
    answer iff, in every model of its part, some binding of the parent
    extends over that atom.  Every binding of the parent is kept, so this
    decides what matching the child's whole body would, and only the new
    atom is compiled and matched, once per distinct pair of a binding list
    and a shared atom list, so models that agree share their bindings.
    The miner holds the matches of the patterns on the trie path it is
    expanding, so the live match sets grow with those patterns' matches.
    ``fraction`` gives one ``Fraction`` object per answer count."""

    def __init__(self, parts: Sequence[ModelSet], reference_concept: str):
        self.reference = trivial_pattern(reference_concept)
        extensions = [answer_query(ms, self.reference) for ms in parts]
        kept = [(ms, ext) for ms, ext in zip(parts, extensions) if ext]
        self.parts = tuple(ms for ms, _ in kept)
        # Per reference key, the view of its part's models.
        self._part_of: dict[str, ModelIndex] = {}
        for ms, ext in kept:
            view = ModelIndex(ms)
            self._part_of.update((key, view) for key in sorted(ext))
        self.reference_extension = frozenset().union(*extensions)
        if not self.reference_extension:
            raise EmptyReferenceConcept(
                f"concept '{reference_concept}' has no cautious instances")
        self._fractions: dict[int, Fraction] = {}

    def start(self) -> Matches:
        """The matches of the reference pattern."""
        return Matches({KEY: 0}, {
            key: ([(key,)],) * len(view.models)
            for key, view in self._part_of.items()})

    def extend(self, matches: Matches, atom: m.Atom,
               keep: bool = False) -> Matches:
        """The matches of the pattern of ``matches`` plus ``atom``: with
        ``keep``, every extension of every binding; otherwise only the
        answers, found by stopping at the first extension in each model."""
        varmap = dict(matches.varmap)
        step = compile_atom(atom, varmap)
        body, nvars = (step,), len(varmap)
        out = {}
        for key, per_model in matches.bindings.items():
            view = self._part_of[key]
            found = []
            # The same bindings extend alike over the same shared atoms.
            done: dict[tuple[int, int], list[tuple]] = {}
            for i, bindings in enumerate(per_model):
                pair = (id(bindings), id(view.index(i).get(step[0])))
                if pair not in done:
                    done[pair] = view.extend(i, body, nvars, bindings,
                                             first=not keep)
                ext = done[pair]
                if not ext:
                    break
                found.append(ext)
            else:
                out[key] = tuple(found) if keep else None
        return Matches(varmap, out)

    def fraction(self, answers) -> Fraction:
        """The share of the reference extension that ``answers`` covers, one
        object per count."""
        n = len(answers)
        if n not in self._fractions:
            self._fractions[n] = Fraction(n, len(self.reference_extension))
        return self._fractions[n]


def default_bias(kb: m.CombinedKB,
                 parts: Sequence[ModelSet]) -> list[m.Predicate]:
    """Declaration order, restricted to predicates with any extension."""
    populated = {a[0] for ms in parts for model in ms.models for a in model}
    return [p for p in kb.predicates.values() if p.name in populated]


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def _placements(arity: int, shared: Sequence[m.Var],
                new_vars: Sequence[m.Var]) -> list[tuple]:
    """Injective placements of the shareable variables into argument
    positions; at least one placed variable must be new, the rest of the
    positions become fresh variables."""
    options = list(shared) + [_FRESH]
    out = []
    for combo in product(options, repeat=arity):
        placed = [v for v in combo if v is not _FRESH]
        if len(placed) != len(set(placed)):
            continue
        if not any(v in new_vars for v in placed):
            continue
        out.append(combo)
    return out


def _make_atom(pred: m.Predicate, combo: tuple,
               fresh: Sequence[m.Var]) -> m.Atom:
    """``combo``'s fresh slots take the ``fresh`` variables in order."""
    take = iter(fresh)
    return m.Atom(pred.name, tuple(next(take) if slot is _FRESH else slot
                                   for slot in combo), pred.kind)


def _dependent_atoms(pattern: QuerySpec, bias: Sequence[m.Predicate],
                     parent_vars: set[m.Var],
                     fresh: Sequence[m.Var]) -> list[m.Atom]:
    last_vars = list(pattern.body[-1].variables())
    new_vars = [v for v in last_vars if v not in parent_vars]
    if not new_vars:
        return []
    placements: dict[int, list[tuple]] = {}
    out = []
    for pred in bias:
        if pred.arity not in placements:
            placements[pred.arity] = _placements(pred.arity, last_vars,
                                                 new_vars)
        for combo in placements[pred.arity]:
            atom = _make_atom(pred, combo, fresh)
            if atom not in pattern.body:
                out.append(atom)
    return out


def _copy_right_brother(pattern: QuerySpec, parent_vars: set[m.Var],
                        fresh: Sequence[m.Var],
                        brother: TrieNode) -> Optional[m.Atom]:
    mapping: dict[m.Var, m.Var] = {}
    args: list[m.Term] = []
    for t in brother.atom.args:
        if isinstance(t, m.Var) and t not in parent_vars:
            if t not in mapping:
                mapping[t] = fresh[len(mapping)]
            args.append(mapping[t])
        else:
            args.append(t)
    atom = m.Atom(brother.atom.pred, tuple(args), brother.atom.kind)
    return None if atom in pattern.body else atom


def refine_candidates(node: TrieNode,
                      bias: Sequence[m.Predicate]) -> list[m.Atom]:
    """Candidate atoms to append below ``node``: dependent atoms first
    (bias order, then placement order), then right-brother copies.  They
    are pairwise distinct: each dependent atom holds a variable that the
    node's atom introduced and no copy does, and copies number their fresh
    variables in order of first occurrence.  Every candidate draws its
    fresh variables from one tuple made here, so they share the objects."""
    pattern = node.pattern
    parent_vars = {v for a in pattern.body[:-1] for v in a.variables()}
    brothers = node.right_brothers()
    start = len(pattern.variables())  # key plus x1..xN, densely numbered
    # An atom takes at most one fresh variable per argument.
    width = max([p.arity for p in bias] + [len(b.atom.args) for b in brothers],
                default=0)
    fresh = tuple(m.Var(f"x{i}") for i in range(start, start + width))
    out = _dependent_atoms(pattern, bias, parent_vars, fresh)
    for brother in brothers:
        atom = _copy_right_brother(pattern, parent_vars, fresh, brother)
        if atom is not None:
            out.append(atom)
    return out


# ---------------------------------------------------------------------------
# Semantic tests
# ---------------------------------------------------------------------------

def is_semantically_free(pattern: QuerySpec, ctx: SemanticContext) -> bool:
    """No atom is deducible from the others, tested with the obligatory
    reference atom removed first (so the reference atom itself can never be
    the redundant one)."""
    reduced = pattern.body[1:]
    whole = QuerySpec(KEY, reduced)
    for i in range(len(reduced)):
        if ctx.subsumes(whole, QuerySpec(KEY, reduced[:i] + reduced[i + 1:])):
            return False
    return True


def semantic_filter(pattern: QuerySpec, ctx: SemanticContext,
                    answers: Optional[Callable[[], frozenset]] = None) -> str:
    """Satisfiability, then semantic freeness, then the equivalence scan
    over the patterns noted in ``ctx`` that share the candidate's signature
    and certain answers that ``answers``, if given, returns.  With those and
    ``ctx.witnessable``, a candidate with an answer is satisfiable and is
    not searched: its match lies in an untruncated full-KB model, and no
    split drops a child, as no disjunct is existential."""
    witnessed = answers is not None and ctx.witnessable and answers()
    if not witnessed and not ctx.satisfiable(pattern):
        return PRUNED_UNSAT
    if not is_semantically_free(pattern, ctx):
        return PRUNED_NOT_SFREE
    key = None if answers is None else answers()
    for other in ctx.equivalence_scan(pattern, key):
        if ctx.equivalent(pattern, other):
            return PRUNED_EQUIVALENT
    return ACCEPTED


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

class _Miner:
    def __init__(self, kb: m.CombinedKB, cfg: MiningConfig,
                 chase_cfg: ChaseConfig):
        self.cfg = cfg
        self.stats = RunStats()
        parts = chase_parts(kb, chase_cfg)
        self.stats.part_models = tuple(len(ms.models) for ms in parts)
        self.stats.truncated_parts = sum(ms.truncated for ms in parts)
        if self.stats.truncated_parts:
            log.warning("chase hit the skolem depth cap; the model set and "
                        "the mined patterns may be incomplete")
        pred = kb.predicates.get(cfg.reference_concept)
        if pred is None or pred.kind != m.CONCEPT:
            raise EmptyReferenceConcept(
                f"'{cfg.reference_concept}' is not a known concept")
        self.evaluator = SupportEvaluator(parts, cfg.reference_concept)
        # A frequent pattern has at least this many answers.
        self.min_answers = math.ceil(
            cfg.minsup * len(self.evaluator.reference_extension))
        self.ctx: Optional[SemanticContext] = None
        if cfg.mode == MODE_SEM:
            kb_cp = (kb.keeping_nondl_facts() if cfg.cp_keep_nondl
                     else kb.without_abox())
            self.ctx = SemanticContext(kb_cp, chase_cfg)
        # Computed answers are certain only when no part was truncated.
        self.keyed = self.ctx is not None and not self.stats.truncated_parts
        if cfg.bias is None:
            self.bias = default_bias(kb, parts)
        else:
            unknown = [n for n in cfg.bias if n not in kb.predicates]
            if unknown:
                raise ValueError("unknown predicates in bias: "
                                 + ", ".join(map(repr, unknown)))
            self.bias = [kb.predicates[n] for n in cfg.bias]

    def run(self) -> MineResult:
        root_pattern = trivial_pattern(self.cfg.reference_concept)
        root = TrieNode(root_pattern.body[0], root_pattern, Fraction(1), 1,
                        None)
        trie = Trie(root)
        if self.ctx is not None:
            self.ctx.note(root_pattern, self.evaluator.reference_extension
                          if self.keyed else None)
        # One row per depth up to the limit, whichever depths get candidates.
        for depth in range(1, self.cfg.max_depth + 1):
            self.stats.at(depth)
        self.stats.at(1).record(ACCEPTED, True)  # the reference pattern
        self.expand_node(root, trie, self.evaluator.start())
        if self.ctx is not None:
            self.stats.truncated_frozen = self.ctx.truncated_chases()
        return MineResult(trie, self.stats)

    def expand_node(self, node: TrieNode, trie: Trie,
                    matches: Matches) -> None:
        """Refine ``node``, whose pattern has ``matches``, and recurse into
        its frequent children, building each child's matches just before
        expanding it and only if it is expanded."""
        if node.depth >= self.cfg.max_depth:
            return
        counts = self.stats.at(node.depth + 1)
        for atom in refine_candidates(node, self.bias):
            child_pattern = QuerySpec(KEY, node.pattern.body + (atom,))
            verdict, evaluate = ACCEPTED, None
            if self.cfg.mode != MODE_NOSEM:
                evaluate = cache(lambda: frozenset(
                    self.evaluator.extend(matches, atom).bindings))
                verdict = semantic_filter(child_pattern, self.ctx,
                                          evaluate if self.keyed else None)
            frequent = False
            if verdict == ACCEPTED:
                answers = (self.evaluator.extend(matches, atom).bindings
                           if evaluate is None else evaluate())
                frequent = len(answers) >= self.min_answers
                if frequent:
                    trie.register(node, TrieNode(
                        atom, child_pattern, self.evaluator.fraction(answers),
                        node.depth + 1, node))
                    if self.ctx is not None:
                        self.ctx.note(child_pattern,
                                      answers if self.keyed else None)
            counts.record(verdict, frequent)
        if node.depth + 1 < self.cfg.max_depth:
            for child in node.children:
                self.expand_node(child, trie, self.evaluator.extend(
                    matches, child.atom, keep=True))


def mine(kb: m.CombinedKB, cfg: MiningConfig,
         chase_cfg: ChaseConfig = ChaseConfig()) -> MineResult:
    """Discover all frequent, semantically non-redundant patterns.

    Chases each ABox part of the full KB once for support evaluation
    (``chase_parts``; ``result.stats`` records each part's model count and
    how many parts were truncated), builds the intensional context once for
    the semantic tests in ``sem`` mode, seeds the trie with the trivial
    pattern, and expands depth-first.
    """
    started = time.perf_counter()
    miner = _Miner(kb, cfg, chase_cfg)
    result = miner.run()
    result.stats.runtime = time.perf_counter() - started
    return result
