"""Minimal-model reasoning for the disjunctive rule program.

The chase saturates a fact set under the program rules, branch by branch:

  * Horn rules fire to fixpoint.
  * Existential heads create a memoized fresh constant per (rule, binding)
    unless an existing witness already satisfies the head.  The nesting
    depth of fresh constants is capped; hitting the cap sets ``truncated``.
  * Disjunctive heads split the branch, one child per disjunct, skipping
    instances with a disjunct already true.
  * Constraints (empty heads) kill the branch.

Saturated consistent branches are projected to atoms over named constants
and reduced to subset-minimal representatives.  Cautious entailment is
membership in every remaining model; a query answer must have a grounding
over named individuals in every model (the per-model witness may differ).

Satisfiability and containment of DL-safe queries follow the freeze-and-ask
scheme: ground the query variables with fresh constants that are granted
O membership, assert the body, chase, and inspect the result.  These tests
run against the intensional part of the KB (ground facts removed).

Everything here is a pure function over immutable inputs; concurrent calls
over the same program are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Optional, Sequence

from . import model as m
from .clausify import ExistsHead, GroundProgram, ProgramRule, TOP_PRED, clausify
from .errors import BranchLimitExceeded, InconsistentKB

GroundAtom = tuple  # (pred, const, ...)


@dataclass(frozen=True)
class ChaseConfig:
    skolem_depth_cap: int = 3
    max_branches: int = 100000

    def __post_init__(self):
        if self.skolem_depth_cap < 0:
            raise ValueError("skolem_depth_cap must be non-negative")
        if self.max_branches < 1:
            raise ValueError("max_branches must be positive")


@dataclass(frozen=True)
class ModelSet:
    """Subset-minimal consistent models restricted to named constants."""

    models: tuple[frozenset, ...]
    inconsistent: bool = False
    truncated: bool = False


@dataclass(frozen=True)
class QuerySpec:
    """A conjunctive DL-safe query: one distinguished variable ``key`` and a
    positive body.  O atoms are implicit for every variable, so answers
    range over named individuals only."""

    key: m.Var
    body: tuple[m.Atom, ...]

    def variables(self) -> tuple[m.Var, ...]:
        seen = [self.key]
        for atom in self.body:
            for v in atom.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    @classmethod
    def checked(cls, key: m.Var, body: Sequence[m.Atom]) -> "QuerySpec":
        q = cls(key, tuple(body))
        if not m.is_linked(key, q.body):
            raise ValueError(f"query body is not linked to ?{key.name}")
        return q

    def __str__(self) -> str:
        return f"Q({self.key}) :- {', '.join(str(a) for a in self.body)}"


# ---------------------------------------------------------------------------
# Rule compilation
# ---------------------------------------------------------------------------

# Body/head slots: ("c", name) for constants, ("v", index) for variables.

def _compile_atom(atom: m.Atom, varmap: dict[m.Var, int]) -> tuple:
    slots = []
    for t in atom.args:
        if isinstance(t, m.Const):
            slots.append(("c", t.name))
        else:
            if t not in varmap:
                varmap[t] = len(varmap)
            slots.append(("v", varmap[t]))
    return (atom.pred, tuple(slots))


class _CompiledRule:
    __slots__ = ("rid", "body", "heads", "nvars", "index")

    def __init__(self, index: int, rule: ProgramRule):
        varmap: dict[m.Var, int] = {}
        self.index = index
        self.rid = rule.rid
        self.body = tuple(_compile_atom(a, varmap) for a in rule.body)
        body_vars = len(varmap)
        heads = []
        for h in rule.head:
            if isinstance(h, ExistsHead):
                if h.var not in varmap:
                    varmap[h.var] = len(varmap)
                heads.append(("exists", h.role.name, h.role.inverse, h.filler,
                              varmap[h.var]))
            else:
                heads.append(("atom", _compile_atom(h, varmap)))
        if len(varmap) != body_vars:
            raise ValueError(f"rule {rule.rid} is not range-restricted: "
                             f"head variables missing from the body")
        self.heads = tuple(heads)
        self.nvars = len(varmap)


def _instantiate(slots: tuple, binding: list) -> GroundAtom:
    return tuple(s[1] if s[0] == "c" else binding[s[1]] for s in slots)


def _match(by_pred: dict[str, list], consts: Sequence[str], named: frozenset,
           named_sorted: Sequence[str], body: tuple, i: int, binding: list):
    """Yield every extension of ``binding`` that grounds ``body[i:]`` in the
    atoms indexed by ``by_pred``.  ``O`` holds the ``named`` constants and
    ``$top`` every constant in ``consts``; the yielded list is reused, so
    copy what must outlive the next step."""
    if i == len(body):
        yield binding
        return
    pred, slots = body[i]
    if pred == m.O_PRED:
        s = slots[0]
        if s[0] == "c":
            if s[1] in named:
                yield from _match(by_pred, consts, named, named_sorted, body,
                                  i + 1, binding)
        elif binding[s[1]] is not None:
            if binding[s[1]] in named:
                yield from _match(by_pred, consts, named, named_sorted, body,
                                  i + 1, binding)
        else:
            for c in named_sorted:
                binding[s[1]] = c
                yield from _match(by_pred, consts, named, named_sorted, body,
                                  i + 1, binding)
            binding[s[1]] = None
        return
    if pred == TOP_PRED:
        s = slots[0]
        if s[0] == "c" or binding[s[1]] is not None:
            yield from _match(by_pred, consts, named, named_sorted, body,
                              i + 1, binding)
        else:
            for c in list(consts):
                binding[s[1]] = c
                yield from _match(by_pred, consts, named, named_sorted, body,
                                  i + 1, binding)
            binding[s[1]] = None
        return
    for atom in by_pred.get(pred, ()):
        bound: list[int] = []
        ok = True
        for s, val in zip(slots, atom[1:]):
            if s[0] == "c":
                if s[1] != val:
                    ok = False
                    break
            else:
                cur = binding[s[1]]
                if cur is None:
                    binding[s[1]] = val
                    bound.append(s[1])
                elif cur != val:
                    ok = False
                    break
        if ok:
            yield from _match(by_pred, consts, named, named_sorted, body,
                              i + 1, binding)
        for idx in bound:
            binding[idx] = None


class _Branch:
    __slots__ = ("atoms", "by_pred", "consts", "const_set")

    def __init__(self, atoms: Iterable[GroundAtom], base_consts: Sequence[str]):
        self.atoms: set = set()
        self.by_pred: dict[str, list] = {}
        self.consts: list[str] = []
        self.const_set: set[str] = set()
        for c in base_consts:
            self._note_const(c)
        for a in atoms:
            self.add(a)

    def _note_const(self, c: str) -> None:
        if c not in self.const_set:
            self.const_set.add(c)
            self.consts.append(c)

    def add(self, atom: GroundAtom) -> bool:
        if atom in self.atoms:
            return False
        self.atoms.add(atom)
        self.by_pred.setdefault(atom[0], []).append(atom)
        for c in atom[1:]:
            self._note_const(c)
        return True

    def clone(self) -> "_Branch":
        b = _Branch.__new__(_Branch)
        b.atoms = set(self.atoms)
        b.by_pred = {k: list(v) for k, v in self.by_pred.items()}
        b.consts = list(self.consts)
        b.const_set = set(self.const_set)
        return b


class _Chase:
    def __init__(self, program: GroundProgram, facts: Sequence[m.Atom],
                 cfg: ChaseConfig, extra_individuals: frozenset = frozenset()):
        self.cfg = cfg
        self.individuals = frozenset(program.individuals) | frozenset(
            t.name for a in facts for t in a.args) | extra_individuals
        self.individuals_sorted = sorted(self.individuals)
        compiled = [_CompiledRule(i, r) for i, r in enumerate(program.rules)]
        self.constraints = [r for r in compiled if not r.heads]
        self.horn = [r for r in compiled
                     if len(r.heads) == 1 and r.heads[0][0] == "atom"]
        self.exists = [r for r in compiled
                       if len(r.heads) == 1 and r.heads[0][0] == "exists"]
        self.disjunctive = [r for r in compiled if len(r.heads) > 1]
        self.skolem_memo: dict[tuple, str] = {}
        self.skolem_depth: dict[str, int] = {}
        self.truncated = False
        base_atoms = [(a.pred,) + tuple(t.name for t in a.args) for a in facts]
        self.root = _Branch(sorted(base_atoms), self.individuals_sorted)

    def _bindings(self, branch: _Branch, rule: _CompiledRule) -> list[tuple]:
        out = []
        for b in _match(branch.by_pred, branch.consts, self.individuals,
                        self.individuals_sorted, rule.body, 0,
                        [None] * rule.nvars):
            out.append(tuple(b))
        return out

    # -- existential heads ----------------------------------------------------

    def _has_witness(self, branch: _Branch, role_name: str, inverse: bool,
                     filler: Optional[str], value: str) -> bool:
        pos = 2 if inverse else 1
        for atom in branch.by_pred.get(role_name, ()):
            if atom[pos] != value:
                continue
            w = atom[1] if inverse else atom[2]
            if filler is None or (filler, w) in branch.atoms:
                return True
        return False

    def _witness_atoms(self, key: tuple, head: tuple,
                       binding: tuple) -> Optional[list[GroundAtom]]:
        _, role_name, inverse, filler, varidx = head
        value = binding[varidx]
        skolem = self.skolem_memo.get(key)
        if skolem is None:
            depth = 1 + max((self.skolem_depth.get(c, 0) for c in binding
                             if c is not None), default=0)
            if depth > self.cfg.skolem_depth_cap:
                self.truncated = True
                return None
            skolem = f"$sk{len(self.skolem_memo)}"
            self.skolem_memo[key] = skolem
            self.skolem_depth[skolem] = depth
        edge = (role_name, skolem, value) if inverse else (role_name, value, skolem)
        atoms = [edge]
        if filler is not None:
            atoms.append((filler, skolem))
        return atoms

    # -- branch saturation ------------------------------------------------------

    def _saturate(self, branch: _Branch) -> str:
        """Returns 'dead', or 'done' once Horn/exists rules reach fixpoint."""
        while True:
            changed = False
            for rule in self.constraints:
                for _ in _match(branch.by_pred, branch.consts,
                                self.individuals, self.individuals_sorted,
                                rule.body, 0, [None] * rule.nvars):
                    return "dead"
            for rule in self.horn:
                head = rule.heads[0][1]
                pending = [_instantiate(head[1], list(b))
                           for b in self._bindings(branch, rule)]
                for atom in pending:
                    ground = (head[0],) + atom
                    if branch.add(ground):
                        changed = True
            for rule in self.exists:
                head = rule.heads[0]
                value_idx = head[4]
                for b in self._bindings(branch, rule):
                    value = b[value_idx]
                    if self._has_witness(branch, head[1], head[2], head[3], value):
                        continue
                    atoms = self._witness_atoms((rule.index, b), head, b)
                    if atoms is None:
                        continue
                    for a in atoms:
                        if branch.add(a):
                            changed = True
            if not changed:
                return "done"

    def _option_satisfied(self, branch: _Branch, head: tuple, binding: tuple) -> bool:
        if head[0] == "atom":
            pred, slots = head[1]
            return ((pred,) + _instantiate(slots, list(binding))) in branch.atoms
        return self._has_witness(branch, head[1], head[2], head[3],
                                 binding[head[4]])

    def _split(self, branch: _Branch) -> Optional[list[_Branch]]:
        """Find the first unsatisfied disjunctive instance and branch on it."""
        for rule in self.disjunctive:
            for b in self._bindings(branch, rule):
                if any(self._option_satisfied(branch, h, b) for h in rule.heads):
                    continue
                children = []
                for di, head in enumerate(rule.heads):
                    if head[0] == "atom":
                        pred, slots = head[1]
                        atoms: Optional[list[GroundAtom]] = [
                            (pred,) + _instantiate(slots, list(b))]
                    else:
                        atoms = self._witness_atoms((rule.index, di, b), head, b)
                    if atoms is None:
                        continue
                    child = branch.clone()
                    for a in atoms:
                        child.add(a)
                    children.append(child)
                return children
        return None

    # -- driver -------------------------------------------------------------------

    def run(self) -> ModelSet:
        queue = [self.root]
        finished: list[_Branch] = []
        while queue:
            branch = queue.pop(0)
            if self._saturate(branch) == "dead":
                continue
            children = self._split(branch)
            if children is None:
                finished.append(branch)
                continue
            queue.extend(children)
            if len(queue) > self.cfg.max_branches:
                raise BranchLimitExceeded(
                    f"more than {self.cfg.max_branches} live chase branches")
        models = self._minimize(finished)
        return ModelSet(models, inconsistent=not finished,
                        truncated=self.truncated)

    def _minimize(self, branches: list[_Branch]) -> tuple[frozenset, ...]:
        projected = []
        seen = set()
        for br in branches:
            model = frozenset(a for a in br.atoms
                              if all(c in self.individuals for c in a[1:]))
            if model not in seen:
                seen.add(model)
                projected.append(model)
        projected.sort(key=lambda s: (len(s), sorted(s)))
        minimal: list[frozenset] = []
        for model in projected:
            if not any(kept < model for kept in minimal):
                minimal.append(model)
        return tuple(minimal)


def chase(program: GroundProgram, facts: Sequence[m.Atom],
          cfg: ChaseConfig = ChaseConfig(),
          extra_individuals: frozenset = frozenset()) -> ModelSet:
    """Saturate ``facts`` under ``program`` and return the minimal models.

    Named individuals are the program's registry plus every constant in
    ``facts`` plus ``extra_individuals`` (used by the freeze-and-ask tests,
    whose skolem substitution can ground a variable that occurs in no body
    atom); models contain only atoms over named individuals.
    """
    for a in facts:
        if not a.is_ground():
            raise ValueError(f"chase facts must be ground: {a}")
    return _Chase(program, facts, cfg, extra_individuals).run()


def ground_tuple(atom: m.Atom) -> GroundAtom:
    return (atom.pred,) + tuple(t.name for t in atom.args)


def cautious_entails(ms: ModelSet, atom: m.Atom) -> bool:
    """True iff the ground atom holds in every minimal model."""
    if ms.inconsistent:
        raise InconsistentKB("cautious entailment undefined: KB is inconsistent")
    t = ground_tuple(atom)
    return all(t in model for model in ms.models)


# ---------------------------------------------------------------------------
# Query answering
# ---------------------------------------------------------------------------

def answer_query(ms: ModelSet, individuals: frozenset[str],
                 q: QuerySpec) -> frozenset[str]:
    """Certain answers: individuals that can ground ``key`` in every model,
    with all variables bound to named individuals."""
    if ms.inconsistent:
        raise InconsistentKB("query answering undefined: KB is inconsistent")
    varmap = {q.key: 0}
    body = [_compile_atom(a, varmap) for a in q.body]
    # DL-safety made explicit: one O atom per variable, matched after the
    # body.  If ``key`` is not in the body, O(key) ranges it over every
    # individual once the body is satisfied.
    body += [(m.O_PRED, (("v", i),)) for i in range(len(varmap))]
    body = tuple(body)
    individuals_sorted = sorted(individuals)
    result: Optional[frozenset[str]] = None
    for model in ms.models:
        index: dict[str, list] = {}
        for atom in model:
            index.setdefault(atom[0], []).append(atom)
        # Models hold no $top atoms, and query bodies none either.
        answers = frozenset(b[0] for b in _match(
            index, (), individuals, individuals_sorted, body, 0,
            [None] * len(varmap)))
        result = answers if result is None else (result & answers)
        if not result:
            return frozenset()
    return result if result is not None else frozenset()


# ---------------------------------------------------------------------------
# Canonical query forms (cache keys and fast equality-up-to-renaming)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def canonical_query(q: QuerySpec) -> tuple:
    """A form invariant under renaming of undistinguished variables (exact
    for up to six variables, conservative beyond)."""

    variables = [v for v in q.variables() if v != q.key]

    def rendered(order: Sequence[m.Var]) -> tuple:
        names = {v: f"_{i}" for i, v in enumerate(order)}
        names[q.key] = "key"
        out = []
        for a in q.body:
            out.append((a.pred,) + tuple(
                names[t] if isinstance(t, m.Var) else "c:" + t.name
                for t in a.args))
        return tuple(sorted(out))

    if len(variables) <= 6:
        return min(rendered(p) for p in permutations(variables)) if variables \
            else rendered(())
    return rendered(variables)


# ---------------------------------------------------------------------------
# Semantic tests on the intensional part
# ---------------------------------------------------------------------------

class SemanticContext:
    """The clausified intensional program plus memo tables for containment.

    Containment results are memoized per context; the cache is not locked,
    so share a context across threads only for reading after warm-up, or
    confine it to one thread (the miner is single-threaded).
    """

    def __init__(self, kb_cp: m.CombinedKB, cfg: ChaseConfig = ChaseConfig()):
        self.program = clausify(kb_cp)
        self.base_facts = tuple(kb_cp.abox)
        self.cfg = cfg
        self._subsumes_memo: dict[tuple, bool] = {}
        # Chases of frozen queries, keyed by canonical form.  The chase of a
        # frozen query is what both the satisfiability test and the specific
        # side of every containment test need, so caching it makes the
        # equivalence scan cheap: each query is chased once per context.
        self._frozen_memo: dict[tuple, tuple[ModelSet, frozenset[str]]] = {}

    def _freeze(self, q: QuerySpec) -> tuple[list[m.Atom], frozenset[str], str]:
        mapping: dict[m.Var, m.Term] = {}
        for i, v in enumerate(q.variables()):
            mapping[v] = m.Const(f"$q{i}")
        frozen = [a.substitute(mapping) for a in q.body]
        consts = frozenset(c.name for c in mapping.values())
        return frozen, consts, "$q0"

    def _frozen_chase(self, q: QuerySpec) -> tuple[ModelSet, frozenset[str]]:
        key = canonical_query(q)
        hit = self._frozen_memo.get(key)
        if hit is not None:
            return hit
        frozen, consts, _ = self._freeze(q)
        ms = chase(self.program, list(self.base_facts) + frozen, self.cfg,
                   extra_individuals=consts)
        individuals = self.program.individuals | consts | frozenset(
            t.name for a in self.base_facts for t in a.args)
        self._frozen_memo[key] = (ms, individuals)
        return ms, individuals

    def satisfiable(self, q: QuerySpec) -> bool:
        ms, _ = self._frozen_chase(q)
        return not ms.inconsistent

    def subsumes(self, q1: QuerySpec, q2: QuerySpec) -> bool:
        """True iff q1 is at least as general as q2 (q1 contains q2)."""
        c1, c2 = canonical_query(q1), canonical_query(q2)
        if c1 == c2:
            return True
        hit = self._subsumes_memo.get((c1, c2))
        if hit is not None:
            return hit
        ms, individuals = self._frozen_chase(q2)
        if ms.inconsistent:
            raise InconsistentKB(
                "frozen query body is inconsistent with the terminology")
        result = "$q0" in answer_query(ms, individuals, q1)
        self._subsumes_memo[(c1, c2)] = result
        return result

    def equivalent(self, q1: QuerySpec, q2: QuerySpec) -> bool:
        c1, c2 = canonical_query(q1), canonical_query(q2)
        if c1 == c2:
            return True
        return self.subsumes(q1, q2) and self.subsumes(q2, q1)

    def signature(self, q: QuerySpec) -> Optional[frozenset]:
        """What every minimal model of the frozen chase of ``q`` holds: each
        predicate that occurs, and each ``(pred, i)`` with the frozen key at
        argument ``i``.  Equivalent queries have equal signatures: the
        containment mapping that sends one frozen body into the other's
        models fixes the key and keeps named constants named, so whatever
        one side's models all hold, the other's hold too.  Positions that do
        not hold the key are left out, since that mapping may merge
        variables into the key.  None when the chase is truncated (or
        inconsistent), where the argument does not hold."""
        ms, _ = self._frozen_chase(q)
        if ms.truncated or ms.inconsistent:
            return None
        common: Optional[set] = None
        for model in ms.models:
            marks = {a[0] for a in model}
            marks.update((a[0], i) for a in model
                         for i, c in enumerate(a[1:]) if c == "$q0")
            common = marks if common is None else common & marks
        return frozenset(common)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Taxonomy:
    """Entailed subsumption over concept and role names.

    ``concept_subsumers[A]`` holds every B with A subsumed-by B (A != B);
    accessors expose the strict order, its transitive reduction, and roots.
    """

    concept_subsumers: dict[str, frozenset[str]]
    role_subsumers: dict[str, frozenset[str]]

    def _strict(self, table: dict[str, frozenset[str]], name: str) -> set[str]:
        return {s for s in table.get(name, frozenset())
                if name not in table.get(s, frozenset())}

    def _roots(self, table: dict[str, frozenset[str]]) -> list[str]:
        return sorted(n for n in table if not self._strict(table, n))

    def _direct_subs(self, table: dict[str, frozenset[str]], name: str) -> list[str]:
        subs = [d for d in table if name in self._strict(table, d)]
        out = []
        for d in subs:
            between = self._strict(table, d) - {name}
            if not any(name in self._strict(table, e) for e in between):
                out.append(d)
        return sorted(out)

    def concept_roots(self) -> list[str]:
        return self._roots(self.concept_subsumers)

    def role_roots(self) -> list[str]:
        return self._roots(self.role_subsumers)

    def direct_subconcepts(self, name: str) -> list[str]:
        return self._direct_subs(self.concept_subsumers, name)

    def direct_subroles(self, name: str) -> list[str]:
        return self._direct_subs(self.role_subsumers, name)

    def concept_reduction(self) -> dict[str, list[str]]:
        return {n: self._direct_subs(self.concept_subsumers, n)
                for n in self.concept_subsumers}


def classify(kb: m.CombinedKB, cfg: ChaseConfig = ChaseConfig()) -> Taxonomy:
    """Compute the concept and role taxonomies by freeze-and-entail tests:
    A is subsumed by B iff asserting A on a fresh named constant makes B
    cautiously entailed.  Unsatisfiable names subsume nothing here; their
    patterns die at the satisfiability test anyway."""
    program = clausify(kb.without_abox())
    c0, c1 = m.Const("$cls0"), m.Const("$cls1")
    concepts = sorted(p.name for p in kb.predicates.values()
                      if p.kind == m.CONCEPT)
    roles = sorted(p.name for p in kb.predicates.values() if p.kind == m.ROLE)
    concept_subsumers: dict[str, frozenset[str]] = {}
    for a in concepts:
        ms = chase(program, [m.Atom(a, (c0,), m.CONCEPT)], cfg)
        if ms.inconsistent:
            concept_subsumers[a] = frozenset()
            continue
        concept_subsumers[a] = frozenset(
            b for b in concepts
            if b != a and cautious_entails(ms, m.Atom(b, (c0,), m.CONCEPT)))
    role_subsumers: dict[str, frozenset[str]] = {}
    for r in roles:
        ms = chase(program, [m.Atom(r, (c0, c1), m.ROLE)], cfg)
        if ms.inconsistent:
            role_subsumers[r] = frozenset()
            continue
        role_subsumers[r] = frozenset(
            s for s in roles
            if s != r and cautious_entails(ms, m.Atom(s, (c0, c1), m.ROLE)))
    return Taxonomy(concept_subsumers, role_subsumers)


def format_models(ms: ModelSet) -> str:
    """One atom per line, lexicographic by predicate then arguments; models
    separated by ``---`` lines."""
    blocks = []
    for model in ms.models:
        lines = [f"{a[0]}({', '.join(a[1:])})" for a in sorted(model)]
        blocks.append("\n".join(lines))
    return "\n---\n".join(blocks) + "\n"
