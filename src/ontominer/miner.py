"""Trie-based frequent pattern search over a combined knowledge base.

Patterns are conjunctive DL-safe queries about a reference concept: the
first atom applies the reference concept to the distinguished variable
``key``, every other atom is linked to ``key`` through shared variables,
and every variable implicitly carries an O atom (so answers range over
named individuals only).  Each trie node holds one atom; the root-to-node
path spells out the pattern.

Children of a node arise two ways:

  1. Dependent atoms.  For each bias predicate, an atom is built for every
     injective placement of variables of the node's atom into argument
     positions, provided at least one placed variable was newly introduced
     by that atom; remaining positions get fresh variables.
  2. Right-brother copies.  Retained siblings to the right of the node are
     copied beneath it, with the variables they had introduced renamed
     fresh.  This makes every atom subset reachable in exactly one
     canonical permutation.

In ``sem`` mode each candidate must pass, in order: satisfiability against
the intensional KB, semantic freeness (no non-reference atom is deducible
from the rest), and non-equivalence to any frequent pattern already in the
trie, tested only against the nodes that share its frozen-chase signature
(``SemanticContext.signature``).  ``nosem`` skips all three.  ``sem-tax`` additionally drives concept
and role candidates top-down through the entailed taxonomy: only root
predicates are drawn for an unconstrained variable, a frequent atom spawns
its direct specializations as sibling candidates, and an infrequent one
suppresses them (support is monotone, so nothing frequent is lost).

Ordering is deterministic everywhere: bias order is KB declaration order,
dependent atoms are ordered by predicate then placement, and counters,
trie shape, and outputs are reproducible byte for byte.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from . import model as m
from .clausify import clausify
from .errors import EmptyReferenceConcept, InconsistentKB
from .reasoner import (ChaseConfig, ModelSet, QuerySpec, SemanticContext,
                       Taxonomy, answer_query, chase, classify)

log = logging.getLogger(__name__)

KEY = m.Var("key")

MODE_SEM = "sem"
MODE_NOSEM = "nosem"
MODE_SEM_TAX = "sem-tax"

ACCEPTED = "accepted"
PRUNED_UNSAT = "pruned-unsat"
PRUNED_NOT_SFREE = "pruned-not-sfree"
PRUNED_EQUIVALENT = "pruned-equivalent"

_FRESH = None  # placement slot marker


@dataclass(frozen=True)
class Pattern:
    """An ordered conjunction of atoms; atoms[0] is the reference atom."""

    atoms: tuple[m.Atom, ...]

    def __post_init__(self):
        assert self.atoms, "a pattern has at least the reference atom"

    def query(self) -> QuerySpec:
        return QuerySpec(KEY, self.atoms)

    def variables(self) -> tuple[m.Var, ...]:
        return self.query().variables()

    def next_var_index(self) -> int:
        return len(self.variables())  # key plus x1..xN, densely numbered

    def with_atom(self, atom: m.Atom) -> "Pattern":
        return Pattern(self.atoms + (atom,))

    def __str__(self) -> str:
        return f"Q(?key) :- {', '.join(str(a) for a in self.atoms)}"


def trivial_pattern(reference_concept: str) -> Pattern:
    return Pattern((m.Atom(reference_concept, (KEY,), m.CONCEPT),))


@dataclass
class Counts:
    gen: int = 0
    sat: int = 0
    sfree: int = 0
    cand: int = 0
    freq: int = 0

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.gen, self.sat, self.sfree, self.cand, self.freq)


@dataclass
class RunStats:
    per_depth: dict[int, Counts] = field(default_factory=dict)
    runtime: float = 0.0

    def at(self, depth: int) -> Counts:
        return self.per_depth.setdefault(depth, Counts())


class TrieNode:
    """One atom of a pattern; the root-to-node path is the pattern itself.
    ``expansion`` snapshots the candidate counters of this node's own
    child-construction step."""

    __slots__ = ("atom", "pattern", "support", "depth", "parent", "children",
                 "expansion", "seq")

    def __init__(self, atom: m.Atom, pattern: Pattern, support: Fraction,
                 depth: int, parent: Optional["TrieNode"]):
        self.atom = atom
        self.pattern = pattern
        self.support = support
        self.depth = depth
        self.parent = parent
        self.children: list[TrieNode] = []
        self.expansion = Counts()
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
        self.root = root
        # Every node in registration order, which is ``seq`` order.
        self._nodes: list[TrieNode] = [root]
        # Equivalence-scan index, filled lazily by ``semantic_filter`` so
        # that runs without the semantic tests never compute a signature:
        # nodes by frozen-chase signature (None: the chase has none), and
        # nodes registered since the last scan.
        self.by_signature: dict[Optional[frozenset], list[TrieNode]] = {}
        self.unindexed: list[TrieNode] = [root]

    def register(self, parent: TrieNode, node: TrieNode) -> None:
        node.seq = len(self._nodes)
        parent.children.append(node)
        self._nodes.append(node)
        self.unindexed.append(node)

    def nodes(self) -> list[TrieNode]:
        return list(self._nodes)

    def equivalence_scan(self, signature: Optional[frozenset],
                         ctx: SemanticContext) -> list[TrieNode]:
        """The nodes a query with this signature may be equivalent to: the
        nodes sharing it plus those without one, or every node when the
        query has none."""
        for node in self.unindexed:
            self.by_signature.setdefault(
                ctx.signature(node.pattern.query()), []).append(node)
        self.unindexed = []
        if signature is None:
            return self.nodes()
        return (self.by_signature.get(signature, [])
                + self.by_signature.get(None, []))


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
        if self.mode not in (MODE_SEM, MODE_NOSEM, MODE_SEM_TAX):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class MineResult:
    trie: Trie
    patterns: list[tuple[Pattern, Fraction]]
    stats: RunStats


# ---------------------------------------------------------------------------
# Support evaluation (one chase of the full KB, reused for every candidate)
# ---------------------------------------------------------------------------

class SupportEvaluator:
    def __init__(self, ms: ModelSet, individuals: frozenset[str],
                 reference_concept: str):
        self.ms = ms
        self.individuals = individuals
        ref = QuerySpec(KEY, (m.Atom(reference_concept, (KEY,), m.CONCEPT),))
        self.reference_extension = answer_query(ms, individuals, ref)
        if not self.reference_extension:
            raise EmptyReferenceConcept(
                f"concept '{reference_concept}' has no cautious instances")

    def answers(self, pattern: Pattern) -> frozenset[str]:
        return answer_query(self.ms, self.individuals, pattern.query())

    def support(self, pattern: Pattern) -> Fraction:
        return Fraction(len(self.answers(pattern)),
                        len(self.reference_extension))


def support(kb: m.CombinedKB, q: Pattern,
            cfg: ChaseConfig = ChaseConfig()) -> Fraction:
    """Answer-set ratio of the pattern against its reference query."""
    ms = chase(clausify(kb), kb.abox, cfg)
    if ms.inconsistent:
        raise InconsistentKB("support undefined on an inconsistent KB")
    return SupportEvaluator(ms, kb.individuals, q.atoms[0].pred).support(q)


def default_bias(kb: m.CombinedKB, ms: ModelSet) -> list[m.Predicate]:
    """Declaration order, restricted to predicates with any extension."""
    populated = {a[0] for model in ms.models for a in model}
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


def _make_atom(pred: m.Predicate, combo: tuple, start_index: int) -> m.Atom:
    args: list[m.Term] = []
    nxt = start_index
    for slot in combo:
        if slot is _FRESH:
            args.append(m.Var(f"x{nxt}"))
            nxt += 1
        else:
            args.append(slot)
    return m.Atom(pred.name, tuple(args), pred.kind)


def _dependent_atoms(pattern: Pattern, bias: Sequence[m.Predicate]) -> list[m.Atom]:
    last = pattern.atoms[-1]
    earlier = {v for a in pattern.atoms[:-1] for v in a.variables()}
    last_vars = list(last.variables())
    new_vars = [v for v in last_vars if v not in earlier]
    if not new_vars:
        return []
    start = pattern.next_var_index()
    out = []
    for pred in bias:
        for combo in _placements(pred.arity, last_vars, new_vars):
            atom = _make_atom(pred, combo, start)
            if atom not in pattern.atoms:
                out.append(atom)
    return out


def _copy_right_brother(pattern: Pattern, node: TrieNode,
                        brother: TrieNode) -> Optional[m.Atom]:
    parent_vars = {v for a in node.pattern.atoms[:-1] for v in a.variables()}
    mapping: dict[m.Var, m.Term] = {}
    nxt = pattern.next_var_index()
    args: list[m.Term] = []
    for t in brother.atom.args:
        if isinstance(t, m.Var) and t not in parent_vars:
            if t not in mapping:
                mapping[t] = m.Var(f"x{nxt}")
                nxt += 1
            args.append(mapping[t])
        else:
            args.append(t)
    atom = m.Atom(brother.atom.pred, tuple(args), brother.atom.kind)
    return None if atom in pattern.atoms else atom


def refine_candidates(node: TrieNode,
                      bias: Sequence[m.Predicate]) -> list[m.Atom]:
    """Candidate atoms to append below ``node``: dependent atoms first
    (bias order, then placement order), then right-brother copies."""
    out = _dependent_atoms(node.pattern, bias)
    for brother in node.right_brothers():
        atom = _copy_right_brother(node.pattern, node, brother)
        if atom is not None:
            out.append(atom)
    return out


def refine_with_taxonomy(node: TrieNode, taxonomy: Taxonomy,
                         bias: Sequence[m.Predicate]) -> list[m.Atom]:
    """Taxonomy-guided variant: concept and role dependent atoms are drawn
    from taxonomy roots only (deeper predicates are spawned as siblings once
    their parent atom proves frequent, see expand_node); the root node also
    offers the direct specializations of the reference concept."""
    by_name = {p.name: p for p in bias}
    c_roots = set(taxonomy.concept_roots())
    r_roots = set(taxonomy.role_roots())
    narrowed = [p for p in bias
                if (p.kind == m.CONCEPT and p.name in c_roots)
                or (p.kind == m.ROLE and p.name in r_roots)
                or p.kind == m.NONDL]
    out = _dependent_atoms(node.pattern, narrowed)
    if node.parent is None:
        # The reference atom is frequent by definition, so its direct
        # specializations are offered right away.
        for name in taxonomy.direct_subconcepts(node.atom.pred):
            if name in by_name:
                atom = m.Atom(name, (KEY,), m.CONCEPT)
                if atom not in node.pattern.atoms:
                    out.append(atom)
    for brother in node.right_brothers():
        atom = _copy_right_brother(node.pattern, node, brother)
        if atom is not None:
            out.append(atom)
    return out


# ---------------------------------------------------------------------------
# Semantic tests
# ---------------------------------------------------------------------------

def is_semantically_free(pattern: Pattern, ctx: SemanticContext) -> bool:
    """No atom is deducible from the others, tested with the obligatory
    reference atom removed first (so the reference atom itself can never be
    the redundant one)."""
    reduced = pattern.atoms[1:]
    for i in range(len(reduced)):
        without = reduced[:i] + reduced[i + 1:]
        if ctx.subsumes(QuerySpec(KEY, reduced), QuerySpec(KEY, without)):
            return False
    return True


def semantic_filter(pattern: Pattern, ctx: SemanticContext, trie: Trie) -> str:
    """Satisfiability, then semantic freeness, then the equivalence scan
    over the trie nodes that share the candidate's signature."""
    q = pattern.query()
    if not ctx.satisfiable(q):
        return PRUNED_UNSAT
    if not is_semantically_free(pattern, ctx):
        return PRUNED_NOT_SFREE
    for other in trie.equivalence_scan(ctx.signature(q), ctx):
        if ctx.equivalent(q, other.pattern.query()):
            return PRUNED_EQUIVALENT
    return ACCEPTED


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

class _Miner:
    def __init__(self, kb: m.CombinedKB, cfg: MiningConfig,
                 chase_cfg: ChaseConfig):
        self.kb = kb
        self.cfg = cfg
        self.chase_cfg = chase_cfg
        program = clausify(kb)
        ms = chase(program, kb.abox, chase_cfg)
        if ms.inconsistent:
            raise InconsistentKB("the combined knowledge base is inconsistent")
        if ms.truncated:
            log.warning("chase hit the skolem depth cap; the model set and "
                        "the mined patterns may be incomplete")
        self.ms = ms
        pred = kb.predicates.get(cfg.reference_concept)
        if pred is None or pred.kind != m.CONCEPT:
            raise EmptyReferenceConcept(
                f"'{cfg.reference_concept}' is not a known concept")
        self.evaluator = SupportEvaluator(ms, kb.individuals,
                                          cfg.reference_concept)
        kb_cp = kb.keeping_nondl_facts() if cfg.cp_keep_nondl else kb.without_abox()
        self.ctx = SemanticContext(kb_cp, chase_cfg)
        if cfg.bias is None:
            self.bias = default_bias(kb, ms)
        else:
            unknown = [n for n in cfg.bias if n not in kb.predicates]
            if unknown:
                raise ValueError(f"unknown predicates in bias: {', '.join(unknown)}")
            self.bias = [kb.predicates[n] for n in cfg.bias]
        self.taxonomy = classify(kb, chase_cfg) if cfg.mode == MODE_SEM_TAX else None
        self.stats = RunStats()

    def run(self) -> MineResult:
        root_pattern = trivial_pattern(self.cfg.reference_concept)
        root = TrieNode(root_pattern.atoms[0], root_pattern, Fraction(1), 1, None)
        trie = Trie(root)
        self.stats.per_depth[1] = Counts(gen=1, sat=1, sfree=1, cand=1, freq=1)
        self.expand_node(root, trie)
        patterns = [(n.pattern, n.support) for n in trie.nodes()]
        return MineResult(trie, patterns, self.stats)

    def _spawned_siblings(self, atom: m.Atom,
                          bias_names: dict[str, m.Predicate]) -> list[m.Atom]:
        assert self.taxonomy is not None
        if atom.kind == m.CONCEPT:
            subs = self.taxonomy.direct_subconcepts(atom.pred)
        elif atom.kind == m.ROLE:
            subs = self.taxonomy.direct_subroles(atom.pred)
        else:
            return []
        return [m.Atom(name, atom.args, atom.kind)
                for name in subs if name in bias_names]

    def expand_node(self, node: TrieNode, trie: Trie) -> None:
        if node.depth >= self.cfg.max_depth:
            return
        mode = self.cfg.mode
        if mode == MODE_SEM_TAX:
            worklist = refine_with_taxonomy(node, self.taxonomy, self.bias)
        else:
            worklist = refine_candidates(node, self.bias)
        bias_names = {p.name: p for p in self.bias}
        counts = self.stats.at(node.depth + 1)
        seen: set[m.Atom] = set()
        i = 0
        while i < len(worklist):
            atom = worklist[i]
            i += 1
            if atom in seen:
                continue
            seen.add(atom)
            child_pattern = node.pattern.with_atom(atom)
            counts.gen += 1
            node.expansion.gen += 1
            if mode == MODE_NOSEM:
                counts.sat += 1
                counts.sfree += 1
                node.expansion.sat += 1
                node.expansion.sfree += 1
            else:
                verdict = semantic_filter(child_pattern, self.ctx, trie)
                if verdict == PRUNED_UNSAT:
                    continue
                counts.sat += 1
                node.expansion.sat += 1
                if verdict == PRUNED_NOT_SFREE:
                    if mode == MODE_SEM_TAX:
                        worklist.extend(self._spawned_siblings(atom, bias_names))
                    continue
                counts.sfree += 1
                node.expansion.sfree += 1
                if verdict == PRUNED_EQUIVALENT:
                    if mode == MODE_SEM_TAX:
                        worklist.extend(self._spawned_siblings(atom, bias_names))
                    continue
            counts.cand += 1
            node.expansion.cand += 1
            child_support = self.evaluator.support(child_pattern)
            if child_support < self.cfg.minsup:
                continue  # infrequent: suppresses taxonomy specializations too
            counts.freq += 1
            node.expansion.freq += 1
            child = TrieNode(atom, child_pattern, child_support,
                             node.depth + 1, node)
            trie.register(node, child)
            if mode == MODE_SEM_TAX:
                worklist.extend(self._spawned_siblings(atom, bias_names))
        for child in node.children:
            self.expand_node(child, trie)


def mine(kb: m.CombinedKB, cfg: MiningConfig,
         chase_cfg: ChaseConfig = ChaseConfig()) -> MineResult:
    """Discover all frequent, semantically non-redundant patterns.

    Chases the full KB once for support evaluation, builds the intensional
    context once for the semantic tests, seeds the trie with the trivial
    pattern, and expands depth-first.
    """
    started = time.perf_counter()
    miner = _Miner(kb, cfg, chase_cfg)
    result = miner.run()
    result.stats.runtime = time.perf_counter() - started
    return result
