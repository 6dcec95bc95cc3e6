"""Independent reference computations the test suite checks the engine
against: equality written out as rules, minimal models by subset
enumeration over the Herbrand base, certain answers by enumeration of
variable assignments, and the pattern space by exhaustive enumeration of
refinement sequences.  Also a pattern's support by folding the support
evaluator's one-atom steps over its whole body, with the check that it is
a pattern the miner could build."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from typing import Sequence

from ontominer import model as m
from ontominer.clausify import GroundProgram, ProgramRule
from ontominer.miner import KEY, SupportEvaluator, _make_atom, _placements
from ontominer.reasoner import ModelSet, QuerySpec, canonical_query


def permutation_form(q: QuerySpec) -> tuple:
    """The least rendering of ``q``'s body over every order of its
    undistinguished variables: a form invariant under their renaming, for
    queries of at most six of them (up to 720 orders).  The reference for
    ``canonical_query``."""
    variables = [v for v in q.variables() if v != q.key]
    assert len(variables) <= 6, "the permutation form is for small queries"

    def rendered(order: Sequence[m.Var]) -> tuple:
        names = {v: f"_{i}" for i, v in enumerate(order)}
        names[q.key] = "key"
        return tuple(sorted((a.pred,) + tuple(
            names[t] if isinstance(t, m.Var) else "c:" + t.name
            for t in a.args) for a in q.body))

    return min(rendered(p) for p in permutations(variables))


def with_equality_axioms(program: GroundProgram,
                         reflexivity: bool = True) -> GroundProgram:
    """``program`` with equality axiomatized, ahead of its user rules:
    reflexivity over ``O`` (unless ``reflexivity`` is false), symmetry,
    transitivity, and congruence for each argument position of every
    concept, role and non-DL predicate.  The reference for the chase's
    equality closure, which must find the same models when this program is
    chased with the closure switched off.  A program that does not mention
    ``=`` comes back unchanged."""
    if not any(isinstance(a, m.Atom) and a.pred == m.EQ_PRED
               for r in program.rules for a in r.head + r.body):
        return program
    x, y, z = m.Var("x0"), m.Var("x1"), m.Var("x2")

    def eq(a: m.Term, b: m.Term) -> m.Atom:
        return m.Atom(m.EQ_PRED, (a, b), m.EQUALITY)

    axioms = [((eq(y, x),), (eq(x, y),), "eq-symmetry"),
              ((eq(x, z),), (eq(x, y), eq(y, z)), "eq-transitivity")]
    if reflexivity:
        axioms.insert(0, ((eq(x, x),), (m.Atom(m.O_PRED, (x,), m.OPRED),),
                          "eq-reflexivity"))
    for pred in program.predicates.values():
        if pred.kind not in (m.CONCEPT, m.ROLE, m.NONDL):
            continue
        args = tuple(m.Var(f"a{i}") for i in range(pred.arity))
        fresh = m.Var("b")
        for i in range(pred.arity):
            moved = args[:i] + (fresh,) + args[i + 1:]
            axioms.append(((m.Atom(pred.name, moved, pred.kind),),
                           (m.Atom(pred.name, args, pred.kind),
                            eq(args[i], fresh)),
                           f"eq-congruence {pred.name}/{i}"))
    user = [i for i, r in enumerate(program.rules) if r.origin == "user rule"]
    at = user[0] if user else len(program.rules)
    rules = (program.rules[:at]
             + tuple(ProgramRule(f"eq{i}", head, body, origin)
                     for i, (head, body, origin) in enumerate(axioms))
             + program.rules[at:])
    return GroundProgram(rules, program.individuals, program.predicates)


def brute_force_minimal_models(program: GroundProgram,
                               facts: Sequence[m.Atom]):
    """All subset-minimal Herbrand models containing the facts, found by
    checking every subset of the Herbrand base against every ground rule.
    Only existential-free programs are supported."""
    consts = sorted(program.individuals | {t.name for a in facts for t in a.args})
    herbrand = []
    for pred in program.predicates.values():
        for args in product(consts, repeat=pred.arity):
            herbrand.append((pred.name,) + args)
    herbrand.sort()
    bit = {atom: 1 << i for i, atom in enumerate(herbrand)}

    ground_rules = []
    for rule in program.rules:
        variables: list[m.Var] = []
        for atom in tuple(rule.body) + tuple(rule.head):
            for v in atom.variables():
                if v not in variables:
                    variables.append(v)
        for values in product(consts, repeat=len(variables)):
            binding = dict(zip(variables, values))
            body_mask = 0
            for atom in rule.body:
                body_mask |= bit[(atom.pred,) + tuple(
                    binding[t] if isinstance(t, m.Var) else t.name
                    for t in atom.args)]
            head_mask = 0
            for atom in rule.head:
                head_mask |= bit[(atom.pred,) + tuple(
                    binding[t] if isinstance(t, m.Var) else t.name
                    for t in atom.args)]
            ground_rules.append((body_mask, head_mask))

    fact_mask = 0
    for atom in facts:
        fact_mask |= bit[(atom.pred,) + tuple(t.name for t in atom.args)]
    free = [b for atom, b in sorted(bit.items()) if not (b & fact_mask)]

    models = []
    for choice in range(1 << len(free)):
        s = fact_mask
        for i, b in enumerate(free):
            if choice >> i & 1:
                s |= b
        if all((body & s) != body or (head & s) for body, head in ground_rules):
            models.append(s)

    models.sort(key=lambda s: bin(s).count("1"))
    minimal = []
    for s in models:
        if not any((kept & s) == kept for kept in minimal):
            minimal.append(s)
    as_sets = [frozenset(atom for atom, b in bit.items() if b & s)
               for s in minimal]
    return as_sets, not models


def brute_force_certain_answers(ms: ModelSet, individuals: frozenset[str],
                                q: QuerySpec) -> frozenset[str]:
    """Certain answers by enumeration: every assignment of the query
    variables to individuals that puts each body atom in a model (an O
    atom: its argument is an individual) answers with its ``key`` in that
    model; the certain answers are those of every model."""
    variables = q.variables()
    position = {v: i for i, v in enumerate(variables)}
    body = [(a.pred, [(position.get(t), t.name) for t in a.args])
            for a in q.body]
    per_model: list[set[str]] = [set() for _ in ms.models]
    for values in product(sorted(individuals), repeat=len(variables)):
        ground = [(pred,) + tuple(name if i is None else values[i]
                                  for i, name in args)
                  for pred, args in body]
        if not all(g[1] in individuals for g in ground if g[0] == m.O_PRED):
            continue
        facts = [g for g in ground if g[0] != m.O_PRED]
        for model, answers in zip(ms.models, per_model):
            if all(g in model for g in facts):
                answers.add(values[0])
    return frozenset(set.intersection(*per_model)) if per_model \
        else frozenset()


def enumerate_pattern_space(reference_concept: str,
                            bias: Sequence[m.Predicate],
                            max_depth: int) -> list[QuerySpec]:
    """Every pattern reachable under the declarative bias, irrespective of
    search order: starting from the reference atom, repeatedly append an
    atom placing variables of one earlier atom (at least one of which that
    atom introduced), fresh variables elsewhere.  Deduplicated up to
    variable renaming and atom order."""
    root = QuerySpec(KEY, (m.Atom(reference_concept, (KEY,), m.CONCEPT),))
    results: dict[tuple, QuerySpec] = {canonical_query(root): root}
    frontier: list[tuple[QuerySpec, dict[m.Var, int]]] = [(root, {KEY: 0})]
    for _ in range(max_depth - 1):
        grown: list[tuple[QuerySpec, dict[m.Var, int]]] = []
        for pattern, introduced in frontier:
            for j, anchor in enumerate(pattern.body):
                anchor_vars = list(anchor.variables())
                new_in_anchor = [v for v in anchor_vars if introduced[v] == j]
                if not new_in_anchor:
                    continue
                for pred in bias:
                    for combo in _placements(pred.arity, anchor_vars,
                                             new_in_anchor):
                        start = len(pattern.variables())
                        atom = _make_atom(pred, combo, [
                            m.Var(f"x{i}")
                            for i in range(start, start + pred.arity)])
                        if atom in pattern.body:
                            continue
                        child = QuerySpec(KEY, pattern.body + (atom,))
                        intro = dict(introduced)
                        for v in atom.variables():
                            intro.setdefault(v, len(child.body) - 1)
                        grown.append((child, intro))
                        key = canonical_query(child)
                        if key not in results:
                            results[key] = child
        frontier = grown
    return list(results.values())


def is_connected(q: QuerySpec) -> bool:
    """True iff every body atom of ``q`` is linked to ``key`` through a
    chain of atoms that share variables (a ground atom never is)."""
    reached = {q.key}
    pending = [set(a.variables()) for a in q.body]
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


def support_answers(evaluator: SupportEvaluator,
                    pattern: QuerySpec) -> frozenset[str]:
    """The certain answers of ``pattern``, a pattern as the miner builds
    one, by folding ``evaluator.extend`` over its atoms after the first."""
    ref = evaluator.reference
    if pattern.key != ref.key or pattern.body[:1] != ref.body \
            or not is_connected(pattern):
        raise ValueError(f"support needs a pattern that starts with "
                         f"{ref.body[0]} and is connected to key: {pattern}")
    matches = evaluator.start()
    for atom in pattern.body[1:]:
        matches = evaluator.extend(matches, atom, keep=True)
    return frozenset(matches.bindings)


def support(evaluator: SupportEvaluator, pattern: QuerySpec) -> Fraction:
    """The support of ``pattern`` (``support_answers``)."""
    return evaluator.fraction(support_answers(evaluator, pattern))
