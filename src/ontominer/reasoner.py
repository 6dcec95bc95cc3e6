"""Minimal-model reasoning for the disjunctive rule program.

The chase saturates a fact set under the program rules, branch by branch:

  * Horn rules fire to fixpoint.
  * When some rule mentions ``=``, each round closes the branch under
    equality after the Horn rules (a materialized congruence closure:
    ``=`` is made an equivalence and every atom gets its equal variants),
    and the root holds ``=(c, c)`` for every named ``c``.  Merges are rare,
    so keeping every atom costs little and leaves the models as they are.
  * Existential heads create a memoized fresh constant per (rule, disjunct,
    binding) unless an existing witness already satisfies the head; a
    single-head rule counts as disjunct 0.  Past the depth cap on fresh
    constants, an existential counts as satisfied, adds nothing and sets
    ``truncated``: each leaf maps into every model making its choices, so
    the chase can miss answers but never claims one or denies consistency.
  * Disjunctive heads split the branch, one child per disjunct, skipping
    instances with a disjunct already satisfied.  An inert rule, whose
    disjuncts nothing else reads or derives, is not split but settled at
    each leaf (see ``_Chase``).
  * Constraints (empty heads) kill the branch.

Once per rule tuple (``_Plan``) the chase learns which predicates the facts
can reach; a rule whose body cannot be matched is dropped, and the
equality closure runs only where an ``=`` other than ``=(c, c)`` can arise.
A rule is matched again only after its body's predicates gain an atom, so
a child branch re-runs only the rules its disjunct can feed; until then a
disjunctive rule's instances open at its last match are tested instead.

Saturated consistent branches are projected to atoms over named constants
and reduced to subset-minimal representatives.  Cautious entailment is
membership in every remaining model; a query answer must have a grounding
over named individuals in every model (the per-model witness may differ).
Outside the chase, every match in a model set goes through one view of
it, ``ModelIndex``, which indexes each model by predicate on first use.
``answer_query`` compiles the query (``compile_query``) and keeps the keys
that match in the first model and, bound, in every other (``certain``).
Containment asks ``certain`` of one key.  Support evaluation extends a
pattern's bindings in one model by one compiled atom at a time
(``extend``).

``split_abox`` cuts a KB into parts that share no constant when no rule can
join them; the miner chases each part on its own and never builds the
product of their models, which is what ``chase`` of the whole KB returns.

Satisfiability and containment of DL-safe queries follow the freeze-and-ask
scheme: ground the query variables with fresh constants that are granted
O membership, assert the body, chase, and inspect the result.  These tests
run against the intensional part of the KB (ground facts removed); the
miner spares the first where a candidate's certain answers witness it.

``canonical_query`` gives queries equal up to renaming one form, exactly
and at any size, by colour refinement and individualization.

The chase and query answering are functions of their inputs.  The state
of the semantic tests is the canonical-form cache plus, per context, a memo
and a scan index: ``canonical_query`` memoizes into a process-global
``lru_cache``, so a second mining run in one process runs faster (time each
run in a process of its own), and a ``SemanticContext``, built once per
``sem`` run, keeps the rest (see there).  The memo keeps each model as a
tuple of atoms interned per context, one object per distinct ground atom.
"""

from __future__ import annotations

import sys
from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from typing import Iterable, Optional, Sequence

from . import model as m
from .clausify import (GroundProgram, ProgramRule, TOP_PRED, clausify,
                       compile_atom)
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
    """Subset-minimal consistent models restricted to named constants;
    ``individuals`` is the extension of ``O``: the named constants the
    chase used, sorted.  Every constant of every model is among
    ``individuals``, so a variable that matches a model atom is named."""

    models: tuple[frozenset, ...]
    individuals: tuple[str, ...]
    inconsistent: bool = False
    truncated: bool = False


@dataclass(frozen=True, slots=True)
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

    def __str__(self) -> str:
        return f"Q({self.key}) :- {', '.join(str(a) for a in self.body)}"


# ---------------------------------------------------------------------------
# The chase
# ---------------------------------------------------------------------------

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


def _derived(heads: tuple) -> set:
    """The predicates ``heads`` can add atoms of: each atom's, and each
    existential's role and filler."""
    return {p for h in heads for p in ((h[1][0],) if h[0] == "atom"
                                       else (h[1], h[3])) if p}


class _Plan:
    """What a chase reads of one rule tuple (``_plan``): each rule's
    ``(index, body, heads, nvars)`` by kind in firing order (existential
    rules last, to see the round's consequences), each rule's body
    predicates but ``O``, whether a rule has ``=``, and which disjunctive
    rules are inert.  A rule is inert when every disjunct is an atom over
    variables whose predicate no rule body reads, no existential names, no
    other rule derives, and is not ``=``: its choices feed no rule."""

    def __init__(self, rules: tuple[ProgramRule, ...]):
        self.rules = rules
        plan = [(i,) + r.compiled for i, r in enumerate(rules)]
        self.body_preds = tuple(tuple(dict.fromkeys(
            pred for pred, _ in body if pred != m.O_PRED))
            for _, body, _, _ in plan)
        self.derived = [_derived(heads) for _, _, heads, _ in plan]
        self.equality = any(m.EQ_PRED in preds for preds in
                            (*self.body_preds, *self.derived))
        read = {m.EQ_PRED}.union(*self.body_preds, *(
            _derived(h for h in heads if h[0] == "exists")
            for _, _, heads, _ in plan))
        derivers = Counter(p for preds in self.derived for p in preds)
        self.inert = {i for i, _, heads, _ in plan if len(heads) > 1 and all(
            h[0] == "atom" and h[1][0] not in read and derivers[h[1][0]] == 1
            and all(s[0] == "v" for s in h[1][1]) for h in heads)}
        # Constraints, Horn, existential and disjunctive rules.
        kind = [0 if not heads else 3 if len(heads) > 1 else
                1 if heads[0][0] == "atom" else 2 for _, _, heads, _ in plan]
        self.kinds = tuple(tuple(r for r in plan if kind[r[0]] == k)
                           for k in range(4))
        self._kept: dict[frozenset, tuple] = {}

    def kept(self, preds: frozenset) -> tuple:
        """For facts over ``preds``: the predicates reachable from them,
        ``$top`` and, when a rule has ``=``, ``=``, through the rules whose
        body predicates are all reachable; those rules, as the Horn
        (constraints first), existential, other disjunctive and inert ones;
        and whether one of them derives ``=``."""
        entry = self._kept.get(preds)
        if entry is None:
            reached = set(preds) | {TOP_PRED}
            if self.equality:
                reached.add(m.EQ_PRED)
            fired: set[int] = set()
            grown = True
            while grown:
                grown = False
                for i, body in enumerate(self.body_preds):
                    if i not in fired and reached.issuperset(body):
                        fired.add(i)
                        grown |= not reached.issuperset(self.derived[i])
                        reached |= self.derived[i]
            constraints, horn, existential, disjunctive = (
                tuple(r for r in rules if r[0] in fired)
                for rules in self.kinds)
            entry = self._kept[preds] = (
                frozenset(reached), constraints + horn, existential,
                tuple(r for r in disjunctive if r[0] not in self.inert),
                tuple(r for r in disjunctive if r[0] in self.inert),
                any(m.EQ_PRED in self.derived[i] for i in fired))
        return entry


def _plan(program: GroundProgram) -> _Plan:
    """The plan of ``program.rules``, made once per rule tuple: the copies
    of a program that ``split_abox`` makes share it."""
    key = id(program.rules)  # the plan keeps the tuple, so the id is its own
    plan = program.plans.get(key)
    if plan is None:
        plan = program.plans[key] = _Plan(program.rules)
    return plan


class _Branch:
    """A branch's atoms and constants.  The atom count serves as a clock:
    ``stamp`` maps a predicate (``$top`` for a new constant) to the count
    after its last addition, ``ran`` a rule index to the count at its last
    match in this branch or an ancestor, and ``open`` a disjunctive rule
    index to its instances then open (lists that clones share, unchanged)."""

    __slots__ = ("atoms", "by_pred", "consts", "const_set", "stamp", "ran",
                 "open")

    def __init__(self, atoms: Iterable[GroundAtom], base_consts: Sequence[str]):
        self.atoms: set = set()
        self.by_pred: dict[str, list] = {}
        self.consts: list[str] = []
        self.const_set: set[str] = set()
        self.stamp: dict[str, int] = {}
        self.ran: dict[int, int] = {}
        self.open: dict[int, list[tuple]] = {}
        for c in base_consts:
            self._note_const(c)
        for a in atoms:
            self.add(a)

    def _note_const(self, c: str) -> None:
        if c not in self.const_set:
            self.const_set.add(c)
            self.consts.append(c)
            self.stamp[TOP_PRED] = len(self.atoms)

    def add(self, atom: GroundAtom) -> bool:
        if atom in self.atoms:
            return False
        self.atoms.add(atom)
        self.by_pred.setdefault(atom[0], []).append(atom)
        self.stamp[atom[0]] = len(self.atoms)
        for c in atom[1:]:
            self._note_const(c)
        return True

    def clone(self, atoms: Iterable[GroundAtom] = ()) -> "_Branch":
        """A copy of this branch with ``atoms`` added."""
        b = _Branch.__new__(_Branch)
        b.atoms = set(self.atoms)
        b.by_pred = {k: list(v) for k, v in self.by_pred.items()}
        b.consts = list(self.consts)
        b.const_set = set(self.const_set)
        b.stamp = dict(self.stamp)
        b.ran = dict(self.ran)
        b.open = dict(self.open)
        for a in atoms:
            b.add(a)
        return b


class _Chase:
    """One chase over branches (see ``_leaves``).  ``_fire`` skips each clean
    rule (``_clean``), whose match would add no atom, create no skolem and
    set no flag, so every added atom, skolem name, ``truncated`` and model
    is what matching every rule gives.  Rules the facts cannot reach
    (``_Plan.kept``) never match and are left out.

    Inert rules (``_Plan``) are never split: their atoms feed no rule and
    kill no branch, so the one-leaf search needs none of their choices, and
    ``run`` makes them at each leaf (``_projections``).  A leaf with an
    ``=`` other than ``=(c, c)`` would copy a choice onto equal constants,
    so there they are split like any disjunctive rule."""

    def __init__(self, program: GroundProgram, facts: Sequence[m.Atom],
                 cfg: ChaseConfig, extra_individuals: frozenset = frozenset()):
        self.cfg = cfg
        self.individuals = frozenset(program.individuals) | frozenset(
            t.name for a in facts for t in a.args) | extra_individuals
        self.individuals_sorted = tuple(sorted(self.individuals))
        plan = _plan(program)
        self.body_preds, self.equality = plan.body_preds, plan.equality
        self.skolem_memo: dict[tuple, str] = {}
        self.skolem_depth: dict[str, int] = {}
        self.truncated = False
        base_atoms = [(a.pred,) + tuple(t.name for t in a.args) for a in facts]
        (_, self.horn, self.existential, self.disjunctive, self.inert,
         derives_eq) = plan.kept(frozenset(a[0] for a in base_atoms))
        self.close = derives_eq or any(a[0] == m.EQ_PRED and a[1] != a[2]
                                       for a in base_atoms)
        if self.equality:
            base_atoms += [(m.EQ_PRED, c, c) for c in self.individuals_sorted]
        self.root = _Branch(sorted(base_atoms), self.individuals_sorted)

    def _matches(self, branch: _Branch, body: tuple, nvars: int):
        return _match(branch.by_pred, branch.consts, self.individuals,
                      self.individuals_sorted, body, 0, [None] * nvars)

    # -- heads ----------------------------------------------------------------

    def _has_witness(self, branch: _Branch, head: tuple, binding: tuple) -> bool:
        _, role_name, inverse, filler, varidx = head
        value = binding[varidx]
        pos = 2 if inverse else 1
        for atom in branch.by_pred.get(role_name, ()):
            if atom[pos] != value:
                continue
            w = atom[1] if inverse else atom[2]
            if filler is None or (filler, w) in branch.atoms:
                return True
        return False

    def _depth(self, binding: tuple) -> Optional[int]:
        """The depth of a skolem constant made for ``binding``, or None past
        the cap, which sets ``truncated``."""
        depth = 1 + max((self.skolem_depth.get(c, 0) for c in binding
                         if c is not None), default=0)
        if depth > self.cfg.skolem_depth_cap:
            self.truncated = True
            return None
        return depth

    def _head_atoms(self, branch: _Branch, index: int, di: int,
                    binding: tuple, head: tuple) -> list[GroundAtom]:
        """The atoms that make disjunct ``di`` of rule ``index`` true under
        ``binding``: the instantiated atom, or for an existential nothing
        when a witness exists, else an edge to the skolem constant memoized
        for (rule, disjunct, binding) plus its filler atom, and nothing once
        that constant would pass the depth cap (``_option_satisfied``)."""
        if head[0] == "atom":
            pred, slots = head[1]
            return [(pred,) + _instantiate(slots, binding)]
        if self._has_witness(branch, head, binding):
            return []
        _, role_name, inverse, filler, varidx = head
        key = (index, di, binding)
        skolem = self.skolem_memo.get(key)
        if skolem is None:
            depth = self._depth(binding)
            if depth is None:
                return []
            skolem = f"$sk{len(self.skolem_memo)}"
            self.skolem_memo[key] = skolem
            self.skolem_depth[skolem] = depth
        value = binding[varidx]
        edge = (role_name, skolem, value) if inverse else (role_name, value, skolem)
        atoms = [edge]
        if filler is not None:
            atoms.append((filler, skolem))
        return atoms

    def _option_satisfied(self, branch: _Branch, head: tuple, binding: tuple) -> bool:
        """True iff disjunct ``head`` holds under ``binding`` or is an
        existential past the depth cap (``_depth``)."""
        if head[0] == "atom":
            pred, slots = head[1]
            return ((pred,) + _instantiate(slots, binding)) in branch.atoms
        return (self._has_witness(branch, head, binding)
                or self._depth(binding) is None)

    # -- branch saturation ------------------------------------------------------

    def _clean(self, branch: _Branch, index: int) -> bool:
        """True iff rule ``index`` was matched in this branch or an ancestor
        and no predicate of its body has gained an atom (``$top``: a
        constant) since.  A rematch would find the same bindings in order;
        a single head holds for each, is past the depth cap, or is a
        constraint that did not fire, so it would add nothing."""
        ran = branch.ran.get(index)
        if ran is None:
            return False
        stamp = branch.stamp
        for pred in self.body_preds[index]:
            if stamp.get(pred, 0) > ran:
                return False
        return True

    def _fire(self, branch: _Branch, rules: list[tuple]) -> Optional[bool]:
        """Apply each single-head rule in ``rules`` once, in order, skipping
        clean ones: None once a constraint fires, else whether an atom was
        added."""
        changed = False
        for index, body, heads, nvars in rules:
            if self._clean(branch, index):
                continue
            branch.ran[index] = len(branch.atoms)
            matches = self._matches(branch, body, nvars)
            if not heads:
                if next(matches, None) is not None:
                    return None
                continue
            # Bindings are copied out before the branch grows.
            for b in [tuple(b) for b in matches]:
                for atom in self._head_atoms(branch, index, 0, b, heads[0]):
                    if branch.add(atom):
                        changed = True
        return changed

    def _close(self, branch: _Branch) -> bool:
        """Close the branch under equality: ``=`` becomes an equivalence
        over the constants it relates, and every atom gets each variant
        with its arguments replaced by equal constants (the ``=`` atoms
        included).  True iff an atom was added."""
        parent: dict[str, str] = {}

        def find(c: str) -> str:
            while c in parent:
                c = parent[c]
            return c

        for _, a, b in branch.by_pred.get(m.EQ_PRED, ()):
            a, b = find(a), find(b)
            if a != b:
                parent[b] = a
        if not parent:
            return False
        classes: dict[str, list[str]] = {}
        for c in parent:
            classes.setdefault(find(c), []).append(c)
        equal = {c: (root, *rest) for root, rest in classes.items()
                 for c in (root, *rest)}
        added = False
        for atoms in list(branch.by_pred.values()):
            for atom in list(atoms):
                if any(c in equal for c in atom[1:]):
                    for args in product(*(equal.get(c, (c,))
                                          for c in atom[1:])):
                        added = branch.add((atom[0],) + args) or added
        return added

    def _saturate(self, branch: _Branch) -> str:
        """Returns 'dead' once a constraint fires, or 'done' once the
        single-head rules and the equality closure reach fixpoint."""
        while True:
            changed = self._fire(branch, self.horn)
            if changed is None:
                return "dead"
            if self.close and self._close(branch):
                changed = True
            if self._fire(branch, self.existential):
                changed = True
            if not changed:
                return "done"

    def _split(self, branch: _Branch,
               rules: tuple) -> Optional[list[_Branch]]:
        """Find the first instance of ``rules`` with no disjunct satisfied
        and branch on it, one child per disjunct.  No witness is created
        before every disjunct is known to be false.  A clean rule
        (``_clean``) would match its last instances in order, and a satisfied
        disjunct stays satisfied, so only those then open are tested."""
        for index, body, heads, nvars in rules:
            if self._clean(branch, index):
                instances = branch.open[index]
            else:
                branch.ran[index] = len(branch.atoms)
                instances = map(tuple, self._matches(branch, body, nvars))
            branch.open[index] = pending = [
                b for b in instances
                if not any(self._option_satisfied(branch, h, b) for h in heads)]
            if pending:
                return [branch.clone(self._head_atoms(branch, index, di,
                                                      pending[0], h))
                        for di, h in enumerate(heads)]
        return None

    # -- driver -------------------------------------------------------------------

    def _leaves(self, depth_first: bool) -> Iterable[_Branch]:
        """Yield each consistent leaf, breadth-first or, with ``depth_first``,
        in disjunct order; ``cfg.max_branches`` bounds the waiting ones
        (``queue``).  Breadth-first, inert rules are split at a leaf that
        holds an ``=`` other than ``=(c, c)``."""
        self.queue = queue = deque([self.root])
        while queue:
            branch = queue.pop() if depth_first else queue.popleft()
            if self._saturate(branch) == "dead":
                continue
            children = self._split(branch, self.disjunctive)
            if children is None and not depth_first and self.close and any(
                    a[1] != a[2] for a in branch.by_pred.get(m.EQ_PRED, ())):
                children = self._split(branch, self.inert)
            if children is None:
                yield branch
                continue
            queue.extend(reversed(children) if depth_first else children)
            if len(queue) > self.cfg.max_branches:
                raise BranchLimitExceeded(
                    f"more than {self.cfg.max_branches} live chase branches")

    def run(self) -> ModelSet:
        models = [model for leaf in self._leaves(depth_first=False)
                  for model in self._projections(leaf)]
        return ModelSet(self._minimize(models), self.individuals_sorted,
                        inconsistent=not models, truncated=self.truncated)

    def consistent(self) -> bool:
        """``not run().inconsistent``, stopping at the first consistent leaf."""
        return next(self._leaves(depth_first=True), None) is not None

    def _projections(self, branch: _Branch) -> list[frozenset]:
        """The leaf's atoms over named constants, once for each way to make
        its open inert instances true, breadth-first in rule, instance and
        disjunct order; each way counts against ``cfg.max_branches`` as a
        waiting branch.  An instance with a disjunct over a skolem constant
        is left open: that disjunct adds no named atom, so every other
        choice gives a superset, which ``_minimize`` drops."""
        named = self.individuals
        # Built by insertion: a frozenset copied from a set starts from a
        # larger hash table, which memoized models would keep.
        base = frozenset(a for a in branch.atoms if named.issuperset(a[1:]))
        ways = [frozenset()]
        for _, body, heads, nvars in self.inert:
            for b in self._matches(branch, body, nvars):
                atoms = tuple(dict.fromkeys(
                    (pred,) + _instantiate(slots, b) for _, (pred, slots)
                    in heads))
                if any(a in branch.atoms or not named.issuperset(a[1:])
                       for a in atoms):
                    continue
                ways = [w2 for w in ways for w2 in (
                    (w,) if not w.isdisjoint(atoms) else (w | {a}
                                                          for a in atoms))]
                if len(ways) + len(self.queue) > self.cfg.max_branches:
                    raise BranchLimitExceeded(
                        f"more than {self.cfg.max_branches} live chase "
                        f"branches")
        return [base | w if w else base for w in ways]

    def _minimize(self, models: list[frozenset]) -> tuple[frozenset, ...]:
        projected = sorted(set(models), key=lambda s: (len(s), sorted(s)))
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
    atom); models contain only atoms over named individuals, and the
    model set carries them as ``individuals``.
    """
    for a in facts:
        if not a.is_ground():
            raise ValueError(f"chase facts must be ground: {a}")
    return _Chase(program, facts, cfg, extra_individuals).run()


# ---------------------------------------------------------------------------
# Splitting the ABox into independent parts
# ---------------------------------------------------------------------------

def _all_linked(var_sets: Sequence[set], reached: set) -> bool:
    """True iff every set in ``var_sets`` reaches ``reached`` through a
    chain of sets that share an element."""
    reached = set(reached)
    pending = list(var_sets)
    while pending:
        rest = []
        for vs in pending:
            if vs & reached:
                reached |= vs
            else:
                rest.append(vs)
        if len(rest) == len(pending):
            return False
        pending = rest
    return True


def _rule_stays_local(rule: ProgramRule) -> bool:
    """True iff every constant a match of ``rule`` touches, and every one
    its heads mention, lies in one ABox component: no atom of the rule has
    a constant slot or no slot at all, and its body atoms (``O`` and
    ``$top`` ones included) are linked through shared variables."""
    body, heads, _ = rule.compiled
    atoms = list(body) + [h[1] for h in heads if h[0] == "atom"]
    if any(not slots or any(s[0] == "c" for s in slots)
           for _, slots in atoms):
        return False
    var_sets = [{s[1] for s in slots} for _, slots in body]
    return not body or _all_linked(var_sets[1:], var_sets[0])


def split_abox(program: GroundProgram, facts: Sequence[m.Atom]
               ) -> list[tuple[GroundProgram, list[m.Atom]]]:
    """The KB split into parts that share no constant: one per connected
    component of the facts' constants, plus one without facts for each
    program individual that occurs in no fact.  Each part's program is
    ``program`` with that part's constants as its individuals (the rule
    objects are shared, so each rule is still compiled once).  Parts come
    in the order of their smallest constant.

    When every rule stays inside one component (``_rule_stays_local``), the
    minimal models of the whole KB are exactly the unions of one minimal
    model per part, the whole KB is inconsistent iff some part is, and a
    query whose atoms are all linked to its key has as certain answers the
    union of each part's (the splitting-set theorem of Lifschitz and Turner,
    applied to ABox partitions as by Guo and Heflin).  Otherwise the result
    is the single part ``[(program, facts)]``.
    """
    facts = list(facts)
    whole = [(program, facts)]
    if not all(_rule_stays_local(r) for r in program.rules) or any(
            not a.args for a in facts):
        return whole
    parent = {c: c for c in program.individuals}

    def find(c: str) -> str:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for a in facts:
        names = [t.name for t in a.args]
        for c in names:
            parent.setdefault(c, c)
        for c in names[1:]:
            parent[find(c)] = find(names[0])
    if not parent:
        return whole
    members: dict[str, list[str]] = {}
    for c in sorted(parent):
        members.setdefault(find(c), []).append(c)
    part_facts: dict[str, list[m.Atom]] = {root: [] for root in members}
    for a in facts:
        part_facts[find(a.args[0].name)].append(a)
    return [(replace(program, individuals=frozenset(consts)), part_facts[root])
            for root, consts in members.items()]


def cautious_entails(ms: ModelSet, atom: m.Atom) -> bool:
    """True iff the ground atom holds in every minimal model."""
    if ms.inconsistent:
        raise InconsistentKB("cautious entailment undefined: KB is inconsistent")
    ground = (atom.pred,) + tuple(t.name for t in atom.args)
    return all(ground in model for model in ms.models)


# ---------------------------------------------------------------------------
# Query answering
# ---------------------------------------------------------------------------

def compile_query(q: QuerySpec) -> tuple[tuple, int]:
    """The body of ``q`` compiled for ``_match`` with ``key`` as variable 0,
    and the count of its variables."""
    varmap = {q.key: 0}
    body = [compile_atom(a, varmap) for a in q.body]
    # DL-safety holds for every variable that matches a model atom (see
    # ``ModelSet``); a ``key`` in no body atom ranges over every individual
    # once the body is satisfied.
    if not any(("v", 0) in slots for _, slots in body):
        body.append((m.O_PRED, (("v", 0),)))
    return tuple(body), len(varmap)


class ModelIndex:
    """A model set viewed for matching compiled bodies: ``index(i)`` is
    model ``i``'s atoms by predicate (only ``preds``'s, if given), built on
    first use, so a match that fails in one model indexes none after it.
    In a full view, which support keeps for the run, models that hold the
    same atoms of a predicate share one list; a view limited to one query's
    predicates serves that query alone and shares none."""

    def __init__(self, ms: ModelSet, preds: Optional[set] = None):
        self.models = ms.models
        self.named = frozenset(ms.individuals)
        self.individuals = ms.individuals
        self._preds = preds
        self._indexes: list[Optional[dict]] = [None] * len(ms.models)
        self._shared: dict[frozenset, list] = {}

    def index(self, i: int) -> dict[str, list]:
        index = self._indexes[i]
        if index is None:
            preds = self._preds
            index = self._indexes[i] = {}
            for atom in self.models[i]:
                if preds is None or atom[0] in preds:
                    index.setdefault(atom[0], []).append(atom)
            if preds is None:
                for pred, atoms in index.items():
                    index[pred] = self._shared.setdefault(frozenset(atoms),
                                                          atoms)
        return index

    def extend(self, i: int, body: tuple, nvars: int,
               bindings: Iterable[tuple], first: bool = False) -> list[tuple]:
        """The bindings of ``nvars`` variables that extend one of ``bindings``
        (each over the variables numbered before ``body``'s new ones) over
        the compiled ``body`` in model ``i``; only the first with ``first``.
        Extensions of distinct bindings are distinct."""
        index = self.index(i)
        out = []
        for parent in bindings:
            for b in _match(index, (), self.named, self.individuals, body, 0,
                            [*parent] + [None] * (nvars - len(parent))):
                out.append(tuple(b))
                if first:
                    return out
        return out

    def certain(self, body: tuple, nvars: int, key: str,
                start: int = 0) -> bool:
        """True iff each model from ``start`` on matches the compiled
        ``body`` of ``nvars`` variables with variable 0 bound to ``key``."""
        # Models hold no $top atoms, and query bodies none either.
        return all(next(_match(self.index(i), (), self.named,
                               self.individuals, body, 0,
                               [key] + [None] * (nvars - 1)), None) is not None
                   for i in range(start, len(self.models)))


def answer_query(ms: ModelSet, q: QuerySpec) -> frozenset[str]:
    """Certain answers: individuals that can ground ``key`` in every model,
    with all variables bound to the named individuals of ``ms``.  The keys
    that match in the first model are tested on the others."""
    if ms.inconsistent:
        raise InconsistentKB("query answering undefined: KB is inconsistent")
    body, nvars = compile_query(q)
    view = ModelIndex(ms, {pred for pred, _ in body})
    keys = ({b[0] for b in view.extend(0, body, nvars, [()])}
            if ms.models else ())
    return frozenset(k for k in keys if view.certain(body, nvars, k, 1))


# ---------------------------------------------------------------------------
# Canonical query forms (cache keys and fast equality-up-to-renaming)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def canonical_query(q: QuerySpec) -> tuple:
    """A form that two queries share exactly when a renaming of their
    undistinguished variables maps one body onto the other, at any size.

    Colour refinement partitions the variables by how they occur, and
    individualizing each member of the first cell that is not a singleton
    explores every labelling the colours allow (McKay and Piperno, "Practical
    graph isomorphism, II", 2014); the form is the least body rendered under
    those labellings.  A cell member whose swap with one already explored
    maps the body onto itself has the same renderings and is skipped, so k
    interchangeable atoms cost k levels of one leaf each, not k! leaves."""
    # A variable argument becomes its index in order of first occurrence;
    # the key and constants become labels.
    index: dict[m.Var, int] = {}
    atoms = [(a.pred, tuple(
        ("key" if t == q.key else index.setdefault(t, len(index)))
        if isinstance(t, m.Var) else "c:" + t.name for t in a.args))
        for a in q.body]
    body = Counter(atoms)

    def least(colours: list[int]) -> tuple:
        colours = _refine(atoms, colours)
        cell = min((c for c in colours if colours.count(c) > 1), default=None)
        if cell is None:
            names = [sys.intern(f"_{c}") for c in colours]
            return tuple(sorted((pred,) + tuple(
                names[t] if type(t) is int else t for t in args)
                for pred, args in atoms))
        explored: list[int] = []
        for v, c in enumerate(colours):
            if c == cell and not any(_swap_fixes(body, u, v)
                                     for u in explored):
                explored.append(v)
        return min(least([2 * d + (d == cell and u != v)
                          for u, d in enumerate(colours)]) for v in explored)

    return least([0] * len(index))


def _refine(atoms: list[tuple], colours: list[int]) -> list[int]:
    """Split the variable colours until they are stable: two variables keep
    one colour only if they had one and occur alike, at the same
    (predicate, position) with co-arguments of the same colours.  The new
    colours are ranks of those descriptions, so they do not depend on
    variable names, and the order of the old colours is kept."""
    while True:
        seen: list[list] = [[] for _ in colours]
        for pred, args in atoms:
            labels = tuple((0, colours[t]) if type(t) is int else (1, t)
                           for t in args)
            for pos, t in enumerate(args):
                if type(t) is int:
                    seen[t].append((pred, pos, labels))
        described = [(c, tuple(sorted(s))) for c, s in zip(colours, seen)]
        rank = {d: r for r, d in enumerate(sorted(set(described)))}
        refined = [rank[d] for d in described]
        if len(rank) == len(set(colours)):
            return refined
        colours = refined


def _swap_fixes(body: Counter, u: int, v: int) -> bool:
    """True iff swapping variables ``u`` and ``v`` maps the body onto
    itself."""
    swap = {u: v, v: u}
    return Counter((pred, tuple(swap.get(t, t) for t in args))
                   for pred, args in body.elements()) == body


# ---------------------------------------------------------------------------
# Semantic tests on the intensional part
# ---------------------------------------------------------------------------

class SemanticContext:
    """The semantic filter's state for one mining run: the clausified
    intensional program, the index of the patterns ``note`` was given
    (``equivalence_scan``), and one memo by canonical form: full frozen
    chases, for the queries whose models are read (signatures, the specific
    side of a containment test), each with the marks common to its models
    (``signature``), interned, and no index of them.  A memoized model is a
    tuple of atoms, only ever iterated; the context keeps one object per
    distinct atom and individuals tuple of its chases (hash-consing), and
    the frozen constants are interned strings.  A containment needs
    each predicate of the general query in every model, so it is refused
    without a match when ``q2``'s facts cannot reach one (``subsumes``) or
    its marks lack one or a key position (``_contains``).

    The memo and the index are per context and not locked, so share a
    context across threads only for reading after warm-up, or confine it to
    one thread (the miner is single-threaded).
    """

    def __init__(self, kb_cp: m.CombinedKB, cfg: ChaseConfig = ChaseConfig()):
        self.program = clausify(kb_cp)
        self.base_facts = tuple(kb_cp.abox)
        self.cfg = cfg
        # Each memoized chase with its marks, and each distinct marks set,
        # ground atom and individuals tuple of the chases.
        self._frozen: dict[tuple, tuple[ModelSet, frozenset]] = {}
        self._interned: dict = {}
        # The noted patterns with their answers, each distinct answer set
        # (interned), and the scan index by signature and answers over the
        # first ``_indexed`` of them.
        self._noted: list[tuple[QuerySpec, Optional[frozenset]]] = []
        self._answer_sets: dict[Optional[frozenset], Optional[frozenset]] = {}
        self._by_key: dict[tuple, list[QuerySpec]] = {}
        self._indexed = 0
        self._plan = _plan(self.program)
        self._base_preds = frozenset(a.pred for a in self.base_facts)

    def _freeze(self, q: QuerySpec) -> tuple[list[m.Atom], frozenset[str]]:
        """The base facts plus the body with variable i replaced by the
        constant ``$qi`` (the key is ``$q0``), and those constants."""
        mapping: dict[m.Var, m.Term] = {}
        for i, v in enumerate(q.variables()):
            mapping[v] = m.Const(sys.intern(f"$q{i}"))
        frozen = [a.substitute(mapping) for a in q.body]
        consts = frozenset(c.name for c in mapping.values())
        return list(self.base_facts) + frozen, consts

    def _frozen_chase(self, q: QuerySpec,
                      form: tuple) -> tuple[ModelSet, frozenset]:
        """The chase of frozen ``q``, memoized by its canonical ``form``,
        and the marks every model of it holds: each predicate that occurs,
        and each ``(pred, i)`` with the frozen key at argument ``i``."""
        entry = self._frozen.get(form)
        if entry is None:
            facts, consts = self._freeze(q)
            ms = chase(self.program, facts, self.cfg, extra_individuals=consts)
            common: Optional[set] = None
            for model in ms.models:
                marks = {a[0] for a in model}
                marks.update((a[0], i) for a in model
                             for i, c in enumerate(a[1:]) if c == "$q0")
                common = marks if common is None else common & marks
            marks = frozenset(common or ())
            intern = self._interned.setdefault
            ms = replace(ms, models=tuple(tuple(intern(a, a) for a in model)
                                          for model in ms.models),
                         individuals=intern(ms.individuals, ms.individuals))
            entry = ms, intern(marks, marks)
            self._frozen[form] = entry
        return entry

    def _contains(self, q1: QuerySpec, q2: QuerySpec, form2: tuple) -> bool:
        """True iff q1 contains q2, whose canonical form is ``form2``."""
        ms, marks = self._frozen_chase(q2, form2)
        if ms.inconsistent:
            raise InconsistentKB(
                "frozen query body is inconsistent with the terminology")
        if not all(a.pred in marks and all(
                (a.pred, i) in marks for i, t in enumerate(a.args)
                if t == q1.key) for a in q1.body if a.pred != m.O_PRED):
            return False
        # No index is kept on memoized model sets: it would hold every
        # frozen chase's atoms twice.
        body, nvars = compile_query(q1)
        return ModelIndex(ms, {pred for pred, _ in body}).certain(
            body, nvars, "$q0")

    def satisfiable(self, q: QuerySpec) -> bool:
        """True iff the frozen chase of ``q`` has a consistent leaf, found by
        a one-leaf search, depth-first, on every call; read from the full
        chase (memoized) only if that search waits on more branches than
        ``cfg.max_branches``."""
        facts, consts = self._freeze(q)
        try:
            return _Chase(self.program, facts, self.cfg, consts).consistent()
        except BranchLimitExceeded:
            ms, _ = self._frozen_chase(q, canonical_query(q))
            return not ms.inconsistent

    def subsumes(self, q1: QuerySpec, q2: QuerySpec) -> bool:
        """True iff q1 is at least as general as q2 (q1 contains q2).
        Refused, before any form or chase, when the base facts and q2's
        body cannot reach a predicate of q1 (``_Plan.kept``); so an
        inconsistent q2 gives False here, not ``InconsistentKB``.  Bodies
        of different lengths never share a canonical form."""
        reached = self._plan.kept(
            self._base_preds.union(a.pred for a in q2.body))[0]
        if not all(a.pred in reached or a.pred == m.O_PRED for a in q1.body):
            return False
        c2 = canonical_query(q2)
        return (len(q1.body) == len(q2.body) and canonical_query(q1) == c2
                or self._contains(q1, q2, c2))

    def equivalent(self, q1: QuerySpec, q2: QuerySpec) -> bool:
        c1, c2 = canonical_query(q1), canonical_query(q2)
        return c1 == c2 or (self._contains(q1, q2, c2)
                            and self._contains(q2, q1, c1))

    def truncated_chases(self) -> int:
        """How many memoized frozen chases hit the skolem depth cap."""
        return sum(ms.truncated for ms, _ in self._frozen.values())

    def signature(self, q: QuerySpec) -> Optional[frozenset]:
        """The marks every minimal model of the frozen chase of ``q`` holds
        (``_frozen_chase``).  Equivalent queries have equal signatures: the
        containment mapping that sends one frozen body into the other's
        models fixes the key and keeps named constants named, so whatever
        one side's models all hold, the other's hold too.  Positions that do
        not hold the key are left out, since that mapping may merge
        variables into the key.  None when the chase is truncated (or
        inconsistent), where the argument does not hold."""
        ms, marks = self._frozen_chase(q, canonical_query(q))
        return None if ms.truncated or ms.inconsistent else marks

    def note(self, q: QuerySpec, answers: Optional[frozenset] = None) -> None:
        """Add ``q``, with its certain ``answers`` if they key the scan, to
        the patterns ``equivalence_scan`` returns."""
        answers = self._answer_sets.setdefault(answers, answers)
        self._noted.append((q, answers))

    def equivalence_scan(self, q: QuerySpec,
                         answers: Optional[frozenset] = None
                         ) -> list[QuerySpec]:
        """The noted patterns with ``q``'s certain ``answers`` that ``q`` may
        be equivalent to, in noted order: those sharing its signature plus
        those without one, or all when it has none.  A chase, truncated or
        not, claims only containments that hold, so no other pattern needs
        comparing.  Indexing waits for the first scan after a note."""
        for p, noted in self._noted[self._indexed:]:
            self._by_key.setdefault((self.signature(p), noted), []).append(p)
        self._indexed = len(self._noted)
        if answers not in self._answer_sets:
            return []
        signature = self.signature(q)
        if signature is None:
            return [p for p, noted in self._noted if noted == answers]
        return (self._by_key.get((signature, answers), [])
                + self._by_key.get((None, answers), []))


def format_models(ms: ModelSet) -> str:
    """One atom per line, lexicographic by predicate then arguments; models
    separated by ``---`` lines."""
    blocks = []
    for model in ms.models:
        lines = [f"{a[0]}({', '.join(a[1:])})" for a in sorted(model)]
        blocks.append("\n".join(lines))
    return "\n---\n".join(blocks) + "\n"
