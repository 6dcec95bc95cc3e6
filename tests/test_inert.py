"""Inert disjunctions, reachability pruning and refused containments: each
shortcut against the chase or the containment test it stands in for."""

from fractions import Fraction

import pytest

from genkb import (random_eq_kb_text, random_eq_program,
                   random_inert_eq_kb_text, random_inert_kb_text,
                   random_kb_text, random_program, random_regrow_kb_text,
                   with_inert_rule)
from oracles import brute_force_minimal_models, with_equality_axioms
from ontominer import model as m
from ontominer.clausify import clausify
from ontominer.errors import BranchLimitExceeded, InconsistentKB
from ontominer.kbparse import parse_kb
from ontominer.miner import MODE_SEM, MiningConfig, mine
from ontominer.reasoner import (ChaseConfig, QuerySpec, SemanticContext,
                                _Chase, _plan, answer_query, canonical_query,
                                chase)

KEY = m.Var("key")

PROGRAMS = (("program", random_program), ("eq program", random_eq_program),
            ("inert program", lambda s: with_inert_rule(random_program(s), s)),
            ("inert eq program",
             lambda s: with_inert_rule(random_eq_program(s), s)))
KB_TEXTS = (("kb", random_kb_text), ("eq kb", random_eq_kb_text),
            ("inert kb", random_inert_kb_text),
            ("inert eq kb", random_inert_eq_kb_text),
            ("regrow kb", random_regrow_kb_text))


def generated(seeds=range(200)) -> list:
    cases = []
    for seed in seeds:
        cases += [(f"{label} {seed}", draw(seed)) for label, draw in PROGRAMS]
        for label, text_of in KB_TEXTS:
            kb = parse_kb(text_of(seed))
            cases.append((f"{label} {seed}", (clausify(kb), kb.abox)))
    return cases


def demo_cases(*kbs) -> list:
    return [(f"demo {i}", (clausify(kb), kb.abox)) for i, kb in enumerate(kbs)]


def query(kb, *atoms) -> QuerySpec:
    return QuerySpec(KEY, tuple(
        m.Atom(pred, tuple(KEY if t == "key" else m.Var(t) for t in args),
               kb.predicate(pred).kind) for pred, *args in atoms))


class _SplittingChase(_Chase):
    """The chase that treats no rule as inert: every disjunctive rule is
    split, in rule order, as before inert rules were settled at leaves."""

    def __init__(self, *args):
        super().__init__(*args)
        self.disjunctive = tuple(sorted(self.disjunctive + self.inert,
                                        key=lambda rule: rule[0]))
        self.inert = ()


class _UnprunedChase(_Chase):
    """The chase that keeps every rule, reachable or not, and closes every
    branch under equality when a rule has ``=``."""

    def __init__(self, program, *args):
        super().__init__(program, *args)
        plan = _plan(program)
        constraints, horn, self.existential, disjunctive = plan.kinds
        self.horn = constraints + horn
        self.disjunctive = tuple(r for r in disjunctive
                                 if r[0] not in plan.inert)
        self.inert = tuple(r for r in disjunctive if r[0] in plan.inert)
        self.close = self.equality


BOUND = ChaseConfig(max_branches=2000)


def outcome(chase_class, program, facts, cfg=BOUND, extra=frozenset(),
            skolems=False):
    """The models, verdicts and truncation (and skolem constants) of a
    chase, and its one-leaf verdict; each None past ``cfg.max_branches``."""
    run = chase_class(program, facts, cfg, extra)
    try:
        ms = run.run()
        full = (ms.models, ms.inconsistent, ms.truncated) + (
            (list(run.skolem_memo.items()),) if skolems else ())
    except BranchLimitExceeded:
        full = None
    try:
        consistent = chase_class(program, facts, cfg, extra).consistent()
    except BranchLimitExceeded:
        consistent = None
    return full, consistent


def settles_like(got, want) -> bool:
    """``got`` equals ``want`` wherever ``want`` finished: without inert
    splits a chase may finish where splitting them ran past the bound."""
    return all(g == w or w is None for g, w in zip(got, want))


@pytest.fixture(scope="module")
def sem_d3_calls(bank_kb, bank_inverse_kb):
    """Every frozen query, freeness test and containment test of sem d3
    runs on both bank KBs."""
    frozen, subsumed, contained = {}, [], []
    freeze = SemanticContext._freeze
    subsumes, contains = SemanticContext.subsumes, SemanticContext._contains

    def recorded_freeze(self, q):
        facts, consts = freeze(self, q)
        frozen[id(self), canonical_query(q)] = (self.program, facts,
                                                self.cfg, consts)
        return facts, consts

    def recorded_subsumes(self, q1, q2):
        result = subsumes(self, q1, q2)
        subsumed.append((self, q1, q2, result))
        return result

    def recorded_contains(self, q1, q2, form2):
        result = contains(self, q1, q2, form2)
        contained.append((self, q1, q2, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SemanticContext, "_freeze", recorded_freeze)
        mp.setattr(SemanticContext, "subsumes", recorded_subsumes)
        mp.setattr(SemanticContext, "_contains", recorded_contains)
        for kb in (bank_kb, bank_inverse_kb):
            mine(kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))
    return list(frozen.values()), subsumed, contained


# -- inert rules ----------------------------------------------------------------

def test_inert_rules_change_no_chase(monkeypatch, sem_d3_calls, bank_kb,
                                     bank_inverse_kb, pat_kb):
    """Settling inert rules at the leaves gives every chase and one-leaf
    search the models, verdicts and truncation of splitting them: on genkb
    seeds of every shape, the demo KBs and every frozen query of sem d3
    runs on both bank KBs."""
    cases = generated() + demo_cases(bank_kb, bank_inverse_kb, pat_kb)
    cases += [(f"frozen {i}", args) for i, args in enumerate(sem_d3_calls[0])]
    assert len(sem_d3_calls[0]) > 300
    expanded, fallback = [], []
    projections, split = _Chase._projections, _Chase._split

    def spy_projections(self, branch):
        models = projections(self, branch)
        expanded.append(len(models))
        return models

    def spy_split(self, branch, rules):
        children = split(self, branch, rules)
        fallback.append(rules is self.inert and children is not None)
        return children

    monkeypatch.setattr(_Chase, "_projections", spy_projections)
    monkeypatch.setattr(_Chase, "_split", spy_split)
    outcomes = {name: (outcome(_Chase, *args), outcome(_SplittingChase, *args))
                for name, args in cases}
    assert [name for name, (got, want) in outcomes.items()
            if not settles_like(got, want)] == []
    # Leaves expand inert instances, merged leaves split them, and some
    # chases finish only without inert splits.
    assert max(expanded) > 2 and any(fallback)
    assert any(None in want and None not in got
               for got, want in outcomes.values())


def test_inert_expansion_matches_brute_force():
    """On inert programs whose Herbrand base has at most 16 atoms, with
    and without a functional-style ``=`` rule, the chase finds the minimal
    models (``=`` atoms dropped, as the oracle has no reflexivity)."""
    split = merged = 0
    for seed in range(60):
        for draw in (random_program, random_eq_program):
            program, facts = with_inert_rule(draw(seed), seed)
            consts = program.individuals | {t.name for a in facts
                                            for t in a.args}
            if sum(len(consts) ** p.arity
                   for p in program.predicates.values()) > 16:
                continue
            ms = chase(program, facts)
            expected, inconsistent = brute_force_minimal_models(
                with_equality_axioms(program, reflexivity=False), facts)
            assert ms.inconsistent == inconsistent, f"seed {seed}"
            assert ({frozenset(a for a in model if a[0] != m.EQ_PRED)
                     for model in ms.models}
                    == {frozenset(a for a in model if a[0] != m.EQ_PRED)
                        for model in expected}), f"seed {seed}"
            split += len(ms.models) > 1
            merged += any(a[0] == m.EQ_PRED and a[1] != a[2]
                          for model in ms.models for a in model)
    assert split > 20 and merged


INERT_MERGE = """
(concept C)
(role r)
(functional r)
(nondl q0 1)
(nondl q1 1)
(rule (head (q0 ?x) (q1 ?x)) (body (C ?x) (O ?x)))
(related r a b)
(related r a c)
(instance C b)
(instance C c)
"""

INERT_SHARED = """
(role r)
(nondl q0 1)
(nondl q1 1)
(rule (head (q0 ?x) (q1 ?y)) (body (r ?x ?y) (O ?x) (O ?y)))
(related r a b)
(related r a c)
"""

INERT_SKOLEM = """
(concept A)
(concept B)
(concept C)
(concept D)
(concept E)
(role r)
(subclass A (some r Thing))
(subclass (some r Thing) (or B C))
(subclass (some (inv r) Thing) (or D E))
(instance A a)
"""


def test_inert_choice_on_merged_constants_is_split():
    """b and c are merged, so a choice for b is one for c: two models, not
    the four that expanding both instances on their own would give."""
    kb = parse_kb(INERT_MERGE)
    program = clausify(kb)
    assert _plan(program).inert
    ms = chase(program, kb.abox)
    assert [sorted(a for a in model if a[0] in ("q0", "q1"))
            for model in ms.models] == [[("q0", "b"), ("q0", "c")],
                                        [("q1", "b"), ("q1", "c")]]
    assert outcome(_Chase, program, kb.abox) == outcome(
        _SplittingChase, program, kb.abox)


def test_inert_instances_sharing_a_disjunct():
    """r(a, b) and r(a, c) give instances q0(a) | q1(b) and q0(a) | q1(c):
    q0(a) settles both, and the other minimal model takes q1 of both."""
    kb = parse_kb(INERT_SHARED)
    program = clausify(kb)
    base = {("r", "a", "b"), ("r", "a", "c")}
    assert set(chase(program, kb.abox).models) == {
        frozenset(base | {("q0", "a")}),
        frozenset(base | {("q1", "b"), ("q1", "c")})}
    assert outcome(_Chase, program, kb.abox) == outcome(
        _SplittingChase, program, kb.abox)


def test_inert_instance_bound_to_a_skolem_constant():
    """The edge to a's r-witness binds both inert rules: B(a) | C(a) holds
    only the witness in its body and must still branch, while D | E of the
    witness itself adds no named atom either way and is left open."""
    kb = parse_kb(INERT_SKOLEM)
    program = clausify(kb)
    assert len(_plan(program).inert) == 2
    ms = chase(program, kb.abox)
    assert set(ms.models) == {frozenset({("A", "a"), ("B", "a")}),
                              frozenset({("A", "a"), ("C", "a")})}
    assert outcome(_Chase, program, kb.abox) == outcome(
        _SplittingChase, program, kb.abox)


def test_inert_expansion_counts_against_max_branches():
    """Six inert instances give one leaf 64 ways: a bound of 64 holds
    them and 63 does not, while the one-leaf search needs none."""
    lines = ["(range r (or A B))"] + [f"(related r s t{i})"
                                      for i in range(6)]
    kb = parse_kb("\n".join(lines) + "\n")
    program = clausify(kb)
    assert len(chase(program, kb.abox, ChaseConfig(max_branches=64)).models
               ) == 64
    with pytest.raises(BranchLimitExceeded):
        chase(program, kb.abox, ChaseConfig(max_branches=63))
    assert _Chase(program, kb.abox, ChaseConfig(max_branches=1)).consistent()


# -- reachability -----------------------------------------------------------------

def test_unreachable_rules_change_no_chase(bank_kb, bank_inverse_kb, pat_kb):
    """Dropping the rules the facts cannot reach, and the equality closure
    where no ``=`` but ``=(c, c)`` can arise, changes no model, verdict,
    truncation or skolem constant: on genkb seeds and the demo KBs."""
    cases = generated() + demo_cases(bank_kb, bank_inverse_kb, pat_kb)
    assert [name for name, args in cases
            if outcome(_Chase, *args, skolems=True)
            != outcome(_UnprunedChase, *args, skolems=True)] == []
    # Some cases drop rules, and some skip the closure.
    pruned = [(_Chase(*args, ChaseConfig()),
               _UnprunedChase(*args, ChaseConfig())) for _, args in cases]
    assert any(len(a.horn) < len(b.horn) for a, b in pruned)
    assert any(b.close and not a.close for a, b in pruned)


FILLER = """
(concept A)
(concept B)
(concept D)
(role r)
(subclass A (some r B))
(subclass (some r B) D)
(instance A a)
"""


def test_existential_filler_is_reachable():
    """B holds only at A's witness, so the rule that reads it, and the
    containment of A in D, need the existential's filler reached."""
    kb = parse_kb(FILLER)
    ms = chase(clausify(kb), kb.abox)
    assert all(("D", "a") in model for model in ms.models)
    ctx = SemanticContext(kb.without_abox())
    assert ctx.subsumes(query(kb, ("D", "key")), query(kb, ("A", "key")))


# -- refused containments -----------------------------------------------------------

def test_refused_containments_agree_with_the_match(sem_d3_calls):
    """Each freeness and containment test of sem d3 runs on both bank KBs
    gives what matching the general query in the specific one's frozen
    chase gives, refused or not; both refusals occur."""
    _, subsumed, contained = sem_d3_calls
    chases = {}

    def matched(ctx, q1, q2):
        key = (id(ctx), canonical_query(q2))
        if key not in chases:
            facts, consts = ctx._freeze(q2)
            chases[key] = chase(ctx.program, facts, ctx.cfg, consts)
        return "$q0" in answer_query(chases[key], q1)

    unreachable = unmarked = 0
    for ctx, q1, q2, result in subsumed:
        reached = ctx._plan.kept(ctx._base_preds.union(
            a.pred for a in q2.body))[0]
        unreachable += not all(a.pred in reached for a in q1.body)
        assert result == matched(ctx, q1, q2), f"{q1} >= {q2}"
    for ctx, q1, q2, result in contained:
        _, marks = ctx._frozen[canonical_query(q2)]
        unmarked += not all(a.pred in marks for a in q1.body)
        assert result == matched(ctx, q1, q2), f"{q1} >= {q2}"
    assert unreachable and unmarked


BACKTRACK_F = """
(concept A)
(concept B)
(concept C)
(concept D)
(concept E)
(concept F)
(subclass A (or B C))
(subclass F A)
(disjoint B D)
(disjoint C E)
"""


def test_refused_containment_skips_the_inconsistent_chase():
    """A, D and E are inconsistent together.  Containment of B, reachable
    from A, chases them and raises; F is reached from nothing there, so its
    containment is refused first and is False."""
    kb = parse_kb(BACKTRACK_F)
    ctx = SemanticContext(kb)
    specific = query(kb, ("A", "key"), ("D", "key"), ("E", "key"))
    with pytest.raises(InconsistentKB):
        ctx.subsumes(query(kb, ("B", "key")), specific)
    assert not ctx.subsumes(query(kb, ("F", "key")), specific)
