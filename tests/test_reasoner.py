import time
from fractions import Fraction

import pytest

from genkb import (random_eq_kb_text, random_eq_program, random_kb_text,
                   random_program, random_regrow_kb_text, usable_kbs)
from oracles import (brute_force_certain_answers, brute_force_minimal_models,
                     permutation_form, with_equality_axioms)
from ontominer import model as m
from ontominer import reasoner
from ontominer.clausify import (ExistsHead, GroundProgram, ProgramRule,
                                clausify)
from ontominer.errors import BranchLimitExceeded, InconsistentKB
from ontominer.kbparse import parse_kb
from ontominer.miner import (MODE_NOSEM, MODE_SEM, MiningConfig, chase_parts,
                             mine)
from ontominer.reasoner import (ChaseConfig, ModelSet, QuerySpec,
                                SemanticContext, _Chase, answer_query,
                                canonical_query, cautious_entails, chase,
                                format_models)

KEY = m.Var("key")
X, Y, Z = m.Var("x"), m.Var("y"), m.Var("z")


def A(kb, pred, *terms):
    args = tuple(t if isinstance(t, m.Var) else m.Const(t) for t in terms)
    return m.Atom(pred, args, kb.predicate(pred).kind)


def bank_models(bank_kb):
    return chase(clausify(bank_kb), bank_kb.abox)


# -- chase basics -------------------------------------------------------------

def test_empty_program_fixpoint():
    program = GroundProgram((), frozenset({"a"}),
                            {"p": m.Predicate("p", 1, m.NONDL)})
    ms = chase(program, [m.Atom("p", (m.Const("a"),), m.NONDL)])
    assert ms.models == (frozenset({("p", "a")}),)
    assert not ms.inconsistent and not ms.truncated


def test_bank_client_extension(bank_kb):
    ms = bank_models(bank_kb)
    assert len(ms.models) == 4
    for name in ("Anna", "Jan", "Marek"):
        assert cautious_entails(ms, A(bank_kb, "Client", name))


def test_bank_skolem_consequence(bank_kb):
    ms = bank_models(bank_kb)
    assert cautious_entails(ms, A(bank_kb, "Property", "account2"))
    assert not ms.truncated


def test_models_pairwise_incomparable(bank_kb):
    ms = bank_models(bank_kb)
    for i, a in enumerate(ms.models):
        for j, b in enumerate(ms.models):
            if i != j:
                assert not a <= b


def test_models_satisfy_horn_rules_over_named_constants(bank_kb):
    """Each model is closed under every Horn rule and violates no
    constraint, restricted to named-constant instantiations."""
    from itertools import product
    program = clausify(bank_kb)
    individuals = sorted(bank_kb.individuals)
    ms = bank_models(bank_kb)
    for model in ms.models:
        for rule in program.rules:
            if not (rule.is_horn() or rule.is_constraint()):
                continue
            variables = []
            for atom in tuple(rule.body) + tuple(rule.head):
                if isinstance(atom, m.Atom):
                    for v in atom.variables():
                        if v not in variables:
                            variables.append(v)
            for values in product(individuals, repeat=len(variables)):
                binding = dict(zip(variables, values))

                def ground(atom):
                    return (atom.pred,) + tuple(
                        binding[t] if isinstance(t, m.Var) else t.name
                        for t in atom.args)

                ok = True
                for b in rule.body:
                    if b.pred == "O":
                        ok = ok and ground(b)[1] in bank_kb.individuals
                    elif b.pred == "$top":
                        pass
                    else:
                        ok = ok and ground(b) in model
                if not ok:
                    continue
                if rule.is_constraint():
                    pytest.fail(f"constraint violated in model: {rule}")
                assert ground(rule.head[0]) in model


def test_pat_kb_cautious_entailment(pat_kb):
    ms = chase(clausify(pat_kb), pat_kb.abox)
    assert cautious_entails(ms, A(pat_kb, "Human", "Pat"))
    assert not cautious_entails(ms, A(pat_kb, "Man", "Pat"))
    assert not cautious_entails(ms, A(pat_kb, "Woman", "Pat"))


def test_asserted_fact_entailed():
    kb = parse_kb("(fact p a)\n")
    ms = chase(clausify(kb), kb.abox)
    assert cautious_entails(ms, A(kb, "p", "a"))


def test_inconsistent_kb_detected():
    kb = parse_kb("(disjoint A B)\n(instance A x)\n(instance B x)\n")
    ms = chase(clausify(kb), kb.abox)
    assert ms.inconsistent
    with pytest.raises(InconsistentKB):
        cautious_entails(ms, A(kb, "A", "x"))


def test_depth_cap_truncates_infinite_chain():
    kb = parse_kb("(subclass Person (some hasParent Person))\n"
                  "(instance Person adam)\n")
    ms = chase(clausify(kb), kb.abox, ChaseConfig(skolem_depth_cap=3))
    assert ms.truncated
    assert ms.models == (frozenset({("Person", "adam")}),)


EXISTENTIAL_DISJUNCT = """
(subclass A (or B (some r C)))
(subclass C D)
(subclass (some r D) E)
(instance A a)
"""


@pytest.mark.parametrize("cap, models, truncated", [
    (ChaseConfig().skolem_depth_cap, {frozenset({("A", "a"), ("B", "a")}),
         frozenset({("A", "a"), ("E", "a")})}, False),
    (0, {frozenset({("A", "a"), ("B", "a")})}, True),
], ids=["default-cap", "cap-0"])
def test_existential_disjunct_splits(cap, models, truncated):
    """One child per disjunct, the existential one holding a skolem witness
    whose consequences reach the named constant; at the cap that disjunct
    is dropped and the chase is marked truncated."""
    kb = parse_kb(EXISTENTIAL_DISJUNCT)
    ms = chase(clausify(kb), kb.abox, ChaseConfig(skolem_depth_cap=cap))
    assert set(ms.models) == models
    assert ms.truncated == truncated


@pytest.mark.parametrize("head", [
    m.Atom("p", (X, Y), m.NONDL),
    ExistsHead(m.RoleExpr("r"), None, Y),
], ids=["atom", "exists"])
def test_chase_rejects_rule_not_range_restricted(head):
    rule = ProgramRule("r0", (head,), (m.Atom("q", (X,), m.NONDL),))
    program = GroundProgram((rule,), frozenset({"a"}))
    with pytest.raises(ValueError, match="not range-restricted"):
        chase(program, [m.Atom("q", (m.Const("a"),), m.NONDL)])


def test_branch_limit_exceeded():
    lines = ["(range r (or A B))"]
    for i in range(6):
        lines.append(f"(related r s t{i})")
    kb = parse_kb("\n".join(lines) + "\n")
    with pytest.raises(BranchLimitExceeded):
        chase(clausify(kb), kb.abox, ChaseConfig(max_branches=8))


def test_transitive_role_chains_in_chase():
    kb = parse_kb("(transitive part_of)\n(related part_of a b)\n"
                  "(related part_of b c)\n(related part_of c d)\n")
    ms = chase(clausify(kb), kb.abox)
    assert cautious_entails(ms, A(kb, "part_of", "a", "d"))


def test_equality_merges_functional_fillers():
    kb = parse_kb("(functional r)\n(concept A)\n"
                  "(related r s t1)\n(related r s t2)\n(instance A t1)\n")
    ms = chase(clausify(kb), kb.abox)
    assert cautious_entails(ms, A(kb, "A", "t2"))


def test_equality_merges_skolem_with_named_individual():
    # The witness of (some r B) for s is a skolem constant, and the
    # functional axiom makes it equal to t, so t inherits B.
    kb = parse_kb("(functional r)\n(subclass A (some r B))\n"
                  "(instance A s)\n(related r s t)\n")
    ms = chase(clausify(kb), kb.abox)
    assert cautious_entails(ms, A(kb, "B", "t"))


def test_user_rule_reads_equality():
    kb = parse_kb("(role r)\n"
                  "(rule (head (p_same ?x)) (body (r ?x ?y) (= ?x ?y)))\n"
                  "(related r a a)\n(related r b c)\n")
    ms = chase(clausify(kb), kb.abox)
    assert cautious_entails(ms, A(kb, "p_same", "a"))
    assert not cautious_entails(ms, A(kb, "p_same", "b"))


def test_user_rule_derives_equality(monkeypatch):
    # The rule makes a equal to b and to c and can re-derive only pairs
    # that start with a, so the closure itself must relate b and c.
    kb = parse_kb("(concept A)\n(concept B)\n(role r)\n"
                  "(rule (head (= a ?y)) (body (A ?y)))\n"
                  "(instance A b)\n(instance A c)\n(related r a d)\n"
                  "(instance B d)\n")
    ms = chase(clausify(kb), kb.abox)
    for x in "abc":
        assert cautious_entails(ms, A(kb, "A", x))
        assert cautious_entails(ms, A(kb, "r", x, "d"))
        for y in "abc":
            assert cautious_entails(ms, A(kb, "=", x, y))
    assert not cautious_entails(ms, A(kb, "=", "a", "d"))
    monkeypatch.setattr(_Chase, "_close", lambda self, branch: False)
    assert chase(with_equality_axioms(clausify(kb)), kb.abox) == ms


def test_models_hold_reflexive_equality(bank_kb):
    ms = bank_models(bank_kb)
    for model in ms.models:
        assert all((m.EQ_PRED, c, c) in model for c in ms.individuals)
    kb = parse_kb("(subclass A B)\n(instance A x)\n(related r x y)\n")
    ms = chase(clausify(kb), kb.abox)
    assert not any(a[0] == m.EQ_PRED for model in ms.models for a in model)


def _without_equality(models) -> set:
    return {frozenset(a for a in model if a[0] != m.EQ_PRED)
            for model in models}


def test_equality_closure_matches_axiomatization(monkeypatch, bank_kb,
                                                 bank_inverse_kb, pat_kb):
    """The chase's equality closure finds the models that the equality
    axioms find when the closure is switched off."""
    cases = [(f"eq{seed}", parse_kb(random_eq_kb_text(seed)), cap)
             for cap in (3, 1) for seed in range(400)]
    cases += [(f"kb{seed}", parse_kb(random_kb_text(seed)), 3)
              for seed in range(200)]
    cases += [("bank", bank_kb, 3), ("bank_inverse", bank_inverse_kb, 3),
              ("pat", pat_kb, 3)]
    native = [chase(clausify(kb), kb.abox, ChaseConfig(cap))
              for _, kb, cap in cases]
    monkeypatch.setattr(_Chase, "_close", lambda self, branch: False)
    differing, merged, truncated = [], 0, 0
    for (name, kb, cap), got in zip(cases, native):
        want = chase(with_equality_axioms(clausify(kb)), kb.abox,
                     ChaseConfig(cap))
        if got != want:
            differing.append((name, cap))
        merged += any(a[0] == m.EQ_PRED and a[1] != a[2]
                      for model in got.models for a in model)
        truncated += got.truncated
    assert differing == [], f"cases whose chase differs: {differing}"
    # The cases exercise what the closure has to get right.
    assert merged and truncated


def test_equality_closure_matches_brute_force():
    """On small existential-free programs with a functional-style rule,
    the chase's models agree with subset enumeration over the program
    axiomatized without reflexivity (which needs ``O``, outside the
    oracle), once ``=`` atoms are dropped from both sides."""
    merged = split = dead = 0
    for seed in range(60):
        program, facts = random_eq_program(seed)
        ms = chase(program, facts)
        expected, inconsistent = brute_force_minimal_models(
            with_equality_axioms(program, reflexivity=False), facts)
        assert ms.inconsistent == inconsistent, f"seed {seed}"
        assert _without_equality(ms.models) == _without_equality(expected), \
            f"seed {seed}"
        merged += any(a[0] == m.EQ_PRED and a[1] != a[2]
                      for model in ms.models for a in model)
        split += len(ms.models) > 1
        dead += ms.inconsistent
    assert merged and split and dead


# -- query answering -----------------------------------------------------------

def test_reference_query_answers(bank_kb):
    ms = bank_models(bank_kb)
    q = QuerySpec(KEY, (A(bank_kb, "Client", KEY),))
    assert answer_query(ms, q) == {"Anna", "Jan", "Marek"}


def test_family_account_query(bank_kb):
    ms = bank_models(bank_kb)
    q = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "isOwnerOf", KEY, X),
                        A(bank_kb, "p_familyAccount", X, KEY, Z)))
    assert answer_query(ms, q) == {"Anna", "Marek"}


def test_credit_card_query(bank_kb):
    ms = bank_models(bank_kb)
    q = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "isOwnerOf", KEY, X),
                        A(bank_kb, "CreditCard", X)))
    assert answer_query(ms, q) == {"Jan"}


def test_disjunctive_predicate_certain_answers(bank_kb):
    # p_man holds for Jan or Marek in some models but never in all of them.
    ms = bank_models(bank_kb)
    q = QuerySpec(KEY, (A(bank_kb, "p_man", KEY),))
    assert answer_query(ms, q) == frozenset()


def test_adding_atom_never_enlarges_answers(bank_kb):
    ms = bank_models(bank_kb)
    base = [A(bank_kb, "Client", KEY)]
    extensions = [
        A(bank_kb, "isOwnerOf", KEY, X),
        A(bank_kb, "relative", KEY, X),
        A(bank_kb, "p_woman", KEY),
        A(bank_kb, "p_familyAccount", X, KEY, Z),
    ]
    prev = answer_query(ms, QuerySpec(KEY, tuple(base)))
    for ext in extensions:
        grown = answer_query(ms, QuerySpec(KEY, tuple(base + [ext])))
        assert grown <= prev


def test_model_set_carries_its_named_individuals():
    kb = parse_kb("(concept A)\n(instance A m)\n")
    program = clausify(kb)
    ms = chase(program, [A(kb, "A", "b")], extra_individuals=frozenset({"e"}))
    assert program.individuals == {"m"}
    assert ms.individuals == ("b", "e", "m")
    # ``key`` is absent from the body, so once the body holds it ranges
    # over every named individual of the model set.
    q = QuerySpec(KEY, (A(kb, "A", X),))
    assert answer_query(ms, q) == {"b", "e", "m"}


def test_models_hold_only_named_constants(bank_kb, bank_inverse_kb):
    # answer_query relies on this to leave out the O atoms of variables
    # that occur in a body atom.
    sets = [chase(*random_program(seed)) for seed in range(200)]
    for seed in range(200):
        for text in (random_kb_text(seed), random_eq_kb_text(seed)):
            kb = parse_kb(text)
            sets.append(chase(clausify(kb), kb.abox))
    for kb in (bank_kb, bank_inverse_kb):
        sets += chase_parts(kb)
    for ms in sets:
        named = set(ms.individuals)
        for model in ms.models:
            assert all(c in named for atom in model for c in atom[1:])
    assert any(ms.truncated for ms in sets)


def test_answer_query_matches_brute_force(bank_kb, bank_inverse_kb):
    # Every nosem trie pattern of seeded KBs and of both bank KBs, each
    # also with its reference atom dropped (so ``key`` may be missing from
    # the body), plus a query holding a constant.
    cases = [(kb, "C0", Fraction(2, 5)) for _, kb in usable_kbs(8)]
    cases += [(bank_kb, "Client", Fraction(1, 2)),
              (bank_inverse_kb, "Client", Fraction(1, 2))]
    checked = 0
    for kb, ref, minsup in cases:
        ms = chase(clausify(kb), kb.abox)
        result = mine(kb, MiningConfig(ref, minsup, 3, MODE_NOSEM))
        queries = []
        for pattern, _ in result.patterns:
            queries += [pattern, QuerySpec(KEY, pattern.body[1:])]
        if kb is bank_kb:
            queries.append(QuerySpec(KEY, (
                A(kb, "isOwnerOf", KEY, "account2"),)))
        for q in queries:
            if len(q.variables()) > 4:
                continue
            assert answer_query(ms, q) == \
                brute_force_certain_answers(ms, kb.individuals, q), str(q)
            checked += 1
    assert checked > 500


def test_answer_query_when_answers_shrink_model_by_model():
    # Model i keeps the B witnesses of the first 4 - i keys only, and each
    # key reaches two witnesses, so a key matches in more than one way.
    keys = "abcd"
    base = [("A", k) for k in keys]
    base += [("r", k, f"{k}{j}") for k in keys for j in (1, 2)]
    models = tuple(frozenset(base + [("B", f"{k}{j}") for k in keys[:4 - i]
                                     for j in (1, 2)]) for i in range(3))
    individuals = tuple(sorted({c for a in base for c in a[1:]}))
    q = QuerySpec(KEY, (m.Atom("A", (KEY,), m.CONCEPT),
                        m.Atom("r", (KEY, Z), m.ROLE),
                        m.Atom("B", (Z,), m.CONCEPT)))
    for order in (models, models[::-1]):
        ms = ModelSet(order, individuals)
        assert answer_query(ms, q) == {"a", "b"}
        assert answer_query(ms, q) == \
            brute_force_certain_answers(ms, frozenset(individuals), q)


# -- satisfiability, containment, equivalence ----------------------------------

@pytest.fixture(scope="module")
def bank_ctx(bank_kb):
    return SemanticContext(bank_kb.without_abox())


def test_disjoint_pair_unsatisfiable(bank_kb, bank_ctx):
    q = QuerySpec(KEY, (A(bank_kb, "Account", KEY),
                        A(bank_kb, "CreditCard", KEY)))
    assert not bank_ctx.satisfiable(q)


def test_single_atom_satisfiable(bank_kb, bank_ctx):
    assert bank_ctx.satisfiable(QuerySpec(KEY, (A(bank_kb, "Client", KEY),)))


def test_mortgage_implies_account_unsat_with_credit_card(bank_kb, bank_ctx):
    q = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "isOwnerOf", KEY, X),
                        A(bank_kb, "hasMortgage", X, Y),
                        A(bank_kb, "CreditCard", X)))
    assert not bank_ctx.satisfiable(q)


def test_atom_addition_specializes(bank_kb, bank_ctx):
    q1 = QuerySpec(KEY, (A(bank_kb, "Client", KEY),))
    q2 = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                         A(bank_kb, "isOwnerOf", KEY, X)))
    assert bank_ctx.subsumes(q1, q2)
    assert not bank_ctx.subsumes(q2, q1)
    assert not bank_ctx.equivalent(q1, q2)


def test_subsumes_reflexive(bank_kb, bank_ctx):
    q = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "relative", KEY, X)))
    assert bank_ctx.subsumes(q, q)
    assert bank_ctx.equivalent(q, q)


def test_inverse_role_patterns_equivalent(bank_inverse_kb):
    ctx = SemanticContext(bank_inverse_kb.without_abox())
    qa = QuerySpec(KEY, (A(bank_inverse_kb, "Client", KEY),
                         A(bank_inverse_kb, "isOwnerOf", KEY, X)))
    qb = QuerySpec(KEY, (A(bank_inverse_kb, "Client", KEY),
                         A(bank_inverse_kb, "hasOwner", X, KEY)))
    assert ctx.subsumes(qa, qb) and ctx.subsumes(qb, qa)
    assert ctx.equivalent(qa, qb)


def test_symmetric_role_patterns_equivalent(bank_kb, bank_ctx):
    qa = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                         A(bank_kb, "relative", KEY, X)))
    qb = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                         A(bank_kb, "relative", X, KEY)))
    assert bank_ctx.equivalent(qa, qb)


def test_subsumes_is_quasi_order_on_samples(bank_kb, bank_ctx):
    samples = [
        QuerySpec(KEY, (A(bank_kb, "Client", KEY),)),
        QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "isOwnerOf", KEY, X))),
        QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "isOwnerOf", KEY, X),
                        A(bank_kb, "Account", X))),
        QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "relative", KEY, X))),
        QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "relative", X, KEY))),
        QuerySpec(KEY, (A(bank_kb, "Account", KEY),)),
    ]
    for q in samples:
        assert bank_ctx.subsumes(q, q)
    for q1 in samples:
        for q2 in samples:
            for q3 in samples:
                if bank_ctx.subsumes(q1, q2) and bank_ctx.subsumes(q2, q3):
                    assert bank_ctx.subsumes(q1, q3)


def test_frozen_constants_do_not_leak_between_queries(bank_kb, bank_ctx):
    q_many = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                             A(bank_kb, "relative", KEY, X),
                             A(bank_kb, "relative", KEY, Y)))
    assert bank_ctx.satisfiable(q_many)


def test_canonical_query_invariant_under_renaming(bank_kb):
    q1 = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                         A(bank_kb, "isOwnerOf", KEY, X),
                         A(bank_kb, "relative", X, Y)))
    q2 = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                         A(bank_kb, "relative", Z, m.Var("w")),
                         A(bank_kb, "isOwnerOf", KEY, Z)))
    assert canonical_query(q1) == canonical_query(q2)


def test_canonical_forms_match_permutation_form(monkeypatch, bank_kb):
    """On every query of a ``bank.kb`` d3 sem run and every pattern mined
    from genkb KBs, two forms are equal exactly when the permutation forms
    are."""
    runs = [(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))]
    runs += [(kb, MiningConfig("C0", Fraction(2, 5), 3, mode))
             for _, kb in usable_kbs(10) for mode in (MODE_SEM, MODE_NOSEM)]
    queries = []

    def spy(q):
        queries.append(q)
        return canonical_query(q)

    monkeypatch.setattr(reasoner, "canonical_query", spy)
    for kb, cfg in runs:
        queries += [p for p, _ in mine(kb, cfg).patterns]
    queries = set(queries)
    ours: dict[tuple, set] = {}
    theirs: dict[tuple, set] = {}
    for q in queries:
        form, reference = canonical_query(q), permutation_form(q)
        ours.setdefault(form, set()).add(reference)
        theirs.setdefault(reference, set()).add(form)
    assert all(len(v) == 1 for v in ours.values())
    assert all(len(v) == 1 for v in theirs.values())
    # Renamings do occur: some class holds more than one query.
    assert len(ours) < len(queries)


def test_canonical_form_of_twin_atoms_is_fast():
    xs = [m.Var(f"x{i}") for i in range(8)]
    q = QuerySpec(KEY, tuple(m.Atom("r", (KEY, x), m.ROLE) for x in xs))
    started = time.perf_counter()
    form = canonical_query.__wrapped__(q)
    assert time.perf_counter() - started < 0.1
    shuffled = QuerySpec(KEY, tuple(m.Atom("r", (KEY, x), m.ROLE)
                                    for x in reversed(xs)))
    assert canonical_query.__wrapped__(shuffled) == form


def test_canonical_form_where_refinement_leaves_cells():
    """Every variable of a union of directed cycles gets one colour under
    refinement, so only individualization can tell a 3- and a 4-cycle from
    a 7-cycle, and only the least leaf makes the form of the 3- and
    4-cycle independent of which cycle comes first."""
    def cycles(*lengths):
        atoms, start = [m.Atom("C", (KEY,), m.CONCEPT)], 0
        for n in lengths:
            vs = [m.Var(f"v{start + i}") for i in range(n)]
            atoms += [m.Atom("r", (vs[i], vs[(i + 1) % n]), m.ROLE)
                      for i in range(n)]
            start += n
        return QuerySpec(KEY, tuple(atoms))

    assert canonical_query(cycles(3, 4)) == canonical_query(cycles(4, 3))
    assert canonical_query(cycles(3, 4)) != canonical_query(cycles(7))


# -- subsumption between names ---------------------------------------------------

def subsumers(kb, kind):
    """Each name of ``kind`` mapped to the other names above it, by
    containment of one-atom queries: B is above A iff B(key) contains
    A(key), or for roles s(key, x1) contains r(key, x1).  An unsatisfiable
    name has none: ``subsumes`` raises InconsistentKB on it."""
    ctx = SemanticContext(kb.without_abox())
    args = (KEY,) if kind == m.CONCEPT else (KEY, m.Var("x1"))
    names = sorted(p.name for p in kb.predicates.values() if p.kind == kind)
    query = {n: QuerySpec(KEY, (m.Atom(n, args, kind),)) for n in names}
    return {a: frozenset(b for b in names if b != a
                         and ctx.satisfiable(query[a])
                         and ctx.subsumes(query[b], query[a]))
            for a in names}


def test_bank_taxonomy(bank_kb):
    above = subsumers(bank_kb, m.CONCEPT)
    assert above["Gold"] == {"CreditCard"}
    assert above["Account"] == {"Property"}
    assert above["Client"] == frozenset()


def test_student_definition_classified():
    kb = parse_kb("(equivalent Student (and Person (some takesCourse Course)))\n"
                  "(instance Student s1)\n")
    assert "Person" in subsumers(kb, m.CONCEPT)["Student"]


def test_role_taxonomy_subrole():
    kb = parse_kb("(subrole headOf worksFor)\n(related headOf a b)\n")
    above = subsumers(kb, m.ROLE)
    assert above["headOf"] == {"worksFor"}
    assert above["worksFor"] == frozenset()


def test_transitive_reduction_skips_middle():
    kb = parse_kb("(subclass A B)\n(subclass B C)\n(instance A x)\n")
    above = subsumers(kb, m.CONCEPT)
    assert above["A"] == {"B", "C"}
    assert above["B"] == {"C"}
    assert above["C"] == frozenset()


def test_equivalent_concepts_subsume_each_other():
    kb = parse_kb("""
(concept Person)
(concept Human)
(concept Adult)
(equivalent Person Human)
(subclass Adult Person)
(instance Adult c)
""")
    above = subsumers(kb, m.CONCEPT)
    assert above["Person"] == {"Human"}
    assert above["Human"] == {"Person"}
    assert above["Adult"] == {"Person", "Human"}


# -- oracle comparison -----------------------------------------------------------

def test_chase_matches_brute_force_on_small_programs():
    for seed in range(8):
        program, facts = random_program(seed)
        ms = chase(program, facts)
        expected, inconsistent = brute_force_minimal_models(program, facts)
        assert ms.inconsistent == inconsistent, f"seed {seed}"
        assert set(ms.models) == set(expected), f"seed {seed}"


def test_cautious_equals_intersection_membership():
    for seed in range(4):
        program, facts = random_program(seed)
        ms = chase(program, facts)
        if ms.inconsistent:
            continue
        universe = set().union(*ms.models) if ms.models else set()
        intersection = set.intersection(*map(set, ms.models)) if ms.models else set()
        for atom_tuple in universe:
            atom = m.Atom(atom_tuple[0],
                          tuple(m.Const(c) for c in atom_tuple[1:]), m.NONDL)
            assert cautious_entails(ms, atom) == (atom_tuple in intersection)


def test_random_kbs_chase_consistently():
    for _, kb in usable_kbs(6):
        ms = chase(clausify(kb), kb.abox)
        assert not ms.inconsistent
        for i, a in enumerate(ms.models):
            for j, b in enumerate(ms.models):
                if i != j:
                    assert not a < b


def test_new_constant_reruns_rules_over_thing():
    """``C(x) :- $top(x)`` must fire again for the skolem constant that
    the existential rule makes, although no ``C`` atom was added."""
    kb = parse_kb("(concept A)\n(concept C)\n(concept D)\n(role r)\n"
                  "(subclass A (some r Thing))\n(subclass Thing C)\n"
                  "(subclass (some r C) D)\n(instance A a)\n")
    assert cautious_entails(chase(clausify(kb), kb.abox), A(kb, "D", "a"))


def _chase_outcome(program, facts, cfg=ChaseConfig(), extra=frozenset()):
    run = _Chase(program, facts, cfg, extra)
    ms = run.run()
    return (ms.models, ms.individuals, ms.inconsistent, ms.truncated,
            len(run.skolem_memo))


def test_clean_rule_skipping_changes_no_chase(monkeypatch, bank_kb,
                                              bank_inverse_kb, pat_kb):
    """Skipping clean rules gives every chase the models, individuals,
    verdicts and skolem count of the chase that matches every rule each
    round: on genkb KBs and programs, the demo KBs, and every frozen chase
    of a ``bank.kb`` d3 sem run."""
    cases = []
    for seed in range(200):
        for label, text in (("kb", random_kb_text(seed)),
                            ("eq kb", random_eq_kb_text(seed))):
            kb = parse_kb(text)
            cases.append((f"{label} {seed}", (clausify(kb), kb.abox)))
        cases.append((f"program {seed}", random_program(seed)))
        cases.append((f"eq program {seed}", random_eq_program(seed)))
    cases += [(name, (clausify(kb), kb.abox)) for name, kb in
              (("bank", bank_kb), ("bank_inverse", bank_inverse_kb),
               ("pat", pat_kb))]
    frozen = []

    def recorded(program, facts, cfg=ChaseConfig(),
                 extra_individuals=frozenset()):
        frozen.append((program, list(facts), cfg, extra_individuals))
        return chase(program, facts, cfg, extra_individuals)

    with monkeypatch.context() as mp:
        mp.setattr(reasoner, "chase", recorded)
        mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))
    assert len(frozen) > 100
    cases += [(f"frozen {i}", args) for i, args in enumerate(frozen)]
    skipping = [_chase_outcome(*args) for _, args in cases]
    monkeypatch.setattr(_Chase, "_clean", lambda self, branch, index: False)
    differing = [name for (name, args), got in zip(cases, skipping)
                 if _chase_outcome(*args) != got]
    assert differing == []
    # The cases exercise skolems, splits and truncation.
    assert any(got[4] for got in skipping)
    assert any(len(got[0]) > 1 for got in skipping)
    assert any(got[3] for got in skipping)


class _RematchingChase(_Chase):
    """The chase whose ``_split`` matches every disjunctive rule again on
    every branch and keeps no open instances."""

    def _split(self, branch, rules):
        for index, body, heads, nvars in rules:
            for b in map(tuple, self._matches(branch, body, nvars)):
                if any(self._option_satisfied(branch, h, b) for h in heads):
                    continue
                children = []
                for di, head in enumerate(heads):
                    atoms = self._head_atoms(branch, index, di, b, head)
                    if not atoms:
                        continue
                    child = branch.clone()
                    for a in atoms:
                        child.add(a)
                    children.append(child)
                return children
        return None


REGROW = """
(concept A)
(concept B)
(concept C)
(role r)
(subclass A (or B C))
(subclass B (all r A))
(instance A a)
(related r a b)
"""


def _split_outcome(chase_class, program, facts, cfg=ChaseConfig(),
                   extra=frozenset()):
    run = chase_class(program, facts, cfg, extra)
    ms = run.run()
    try:
        consistent = chase_class(program, facts, cfg, extra).consistent()
    except BranchLimitExceeded:
        consistent = None
    return (ms.models, ms.inconsistent, ms.truncated,
            list(run.skolem_memo.items()), consistent)


def test_open_instances_change_no_split(monkeypatch, bank_kb,
                                        bank_inverse_kb):
    """Testing a clean disjunctive rule's open instances, not rematching
    it, gives every chase and every one-leaf search the models, verdicts,
    truncation and skolem constants of rematching: on genkb programs and
    KBs, ``REGROW`` (whose B child gains A(b), a new instance of the rule
    it split on) and every frozen query of sem runs on both bank KBs."""
    regrow = parse_kb(REGROW)
    cases = [("regrow", (clausify(regrow), regrow.abox))]
    for seed in range(200):
        cases.append((f"program {seed}", random_program(seed)))
        cases.append((f"eq program {seed}", random_eq_program(seed)))
        for label, text in (("kb", random_kb_text(seed)),
                            ("eq kb", random_eq_kb_text(seed))):
            kb = parse_kb(text)
            cases.append((f"{label} {seed}", (clausify(kb), kb.abox)))
    frozen = {}
    freeze = SemanticContext._freeze

    def recorded(self, q):
        facts, consts = freeze(self, q)
        frozen[id(self), canonical_query(q)] = (self.program, facts,
                                                self.cfg, consts)
        return facts, consts

    with monkeypatch.context() as mp:
        mp.setattr(SemanticContext, "_freeze", recorded)
        for kb in (bank_kb, bank_inverse_kb):
            mine(kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))
    assert len(frozen) > 300
    cases += [(f"frozen {i}", args) for i, args in enumerate(frozen.values())]
    reused = []
    clean = _Chase._clean

    def spy(self, branch, index):
        result = clean(self, branch, index)
        reused.append(result and index in branch.open)
        return result

    monkeypatch.setattr(_Chase, "_clean", spy)
    outcomes = [(_split_outcome(_Chase, *args),
                 _split_outcome(_RematchingChase, *args))
                for _, args in cases]
    assert [name for (name, _), (got, want) in zip(cases, outcomes)
            if got != want] == []
    # The cases reuse open instances, split, truncate and die.
    assert any(reused)
    assert any(len(got[0]) > 1 for got, _ in outcomes)
    assert any(got[2] for got, _ in outcomes)
    assert {got[4] for got, _ in outcomes} >= {True, False}


def test_open_instances_change_no_split_on_regrowing_kbs(monkeypatch):
    """``random_regrow_kb_text`` embeds ``REGROW``'s shape in genkb KBs, so
    that a child gains a new open instance of the rule it split on; open
    instances still change no chase there."""
    cases = []
    for seed in range(200):
        kb = parse_kb(random_regrow_kb_text(seed))
        cases.append((seed, (clausify(kb), kb.abox)))
    regrown = set()
    split = _Chase._split

    def spy(self, branch, rules):
        before = {i: list(v) for i, v in branch.open.items()}
        children = split(self, branch, rules)
        if any(set(v) - set(before[i]) for i, v in branch.open.items()
               if i in before):
            regrown.add(id(self))
        return children

    monkeypatch.setattr(_Chase, "_split", spy)
    regrowing = 0
    for seed, args in cases:
        regrown.clear()
        assert _split_outcome(_Chase, *args) == \
            _split_outcome(_RematchingChase, *args), f"seed {seed}"
        regrowing += bool(regrown)
    assert regrowing > 100


# -- the one-leaf satisfiability search -------------------------------------------

BACKTRACK = """
(concept A)
(concept B)
(concept C)
(concept D)
(concept E)
(subclass A (or B C))
(disjoint B D)
(disjoint C E)
(instance A a)
(instance D a)
"""


def _witness_and_full(program, facts, cfg=ChaseConfig(), extra=frozenset()):
    """The one-leaf verdict, and whether the full chase is consistent."""
    return (_Chase(program, facts, cfg, extra).consistent(),
            not chase(program, facts, cfg, extra).inconsistent)


def test_one_leaf_search_backtracks(monkeypatch):
    """A(key), D(key): the first disjunct of A's split dies on B and D, so
    the search goes on to the second; with E as well both die."""
    kb = parse_kb(BACKTRACK)
    ctx = SemanticContext(kb.without_abox())
    saturate = _Chase._saturate
    dead = []

    def spy(self, branch):
        result = saturate(self, branch)
        dead.append(result == "dead")
        return result

    monkeypatch.setattr(_Chase, "_saturate", spy)
    a_d = QuerySpec(KEY, (A(kb, "A", KEY), A(kb, "D", KEY)))
    assert ctx.satisfiable(a_d)
    assert dead == [False, True, False]
    assert not ctx.satisfiable(QuerySpec(KEY, a_d.body + (A(kb, "E", KEY),)))
    assert _witness_and_full(clausify(kb), kb.abox) == (True, True)


def test_satisfiability_searches_once_per_call(monkeypatch, bank_kb):
    """Each call runs one one-leaf search and computes no canonical form
    and no full chase, not even for a renamed query or one whose full
    chase is memoized; only a search past ``max_branches`` reads the full
    chase, through the frozen memo."""
    ctx = SemanticContext(bank_kb.without_abox())
    full, searched, forms = [], [], []
    monkeypatch.setattr(reasoner, "chase", lambda *args, **kw: full.append(
        args) or chase(*args, **kw))
    consistent = _Chase.consistent
    monkeypatch.setattr(_Chase, "consistent", lambda self: searched.append(
        self) or consistent(self))
    monkeypatch.setattr(reasoner, "canonical_query", lambda q: forms.append(
        q) or canonical_query(q))
    owner = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                            A(bank_kb, "isOwnerOf", KEY, X)))
    renamed = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                              A(bank_kb, "isOwnerOf", KEY, Y)))
    assert ctx.satisfiable(owner) and ctx.satisfiable(renamed)
    assert ctx.satisfiable(owner)
    assert (len(full), len(searched), len(forms)) == (0, 3, 0)
    assert not ctx.satisfiable(QuerySpec(KEY, (
        A(bank_kb, "Account", KEY), A(bank_kb, "CreditCard", KEY))))
    assert (len(full), len(searched), len(forms)) == (0, 4, 0)
    relative = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                               A(bank_kb, "relative", KEY, X)))
    assert ctx.signature(relative) is not None
    assert (len(full), len(searched), len(forms)) == (1, 4, 1)
    assert ctx.satisfiable(relative)
    assert (len(full), len(searched), len(forms)) == (1, 5, 1)
    kb = parse_kb(CHAIN)
    chain = SemanticContext(kb, ChaseConfig(max_branches=4,
                                            skolem_depth_cap=6))
    assert not chain.satisfiable(QuerySpec(KEY, (A(kb, "A", KEY),)))
    assert (len(full), len(searched), len(forms)) == (2, 6, 2)


def test_one_leaf_search_bounds_live_branches(monkeypatch):
    """Six independent splits: breadth-first, 64 branches wait at once, so
    the full chase exceeds a bound of 8; depth-first, at most 7 wait before
    the first leaf.  ``A ⊑ C`` reads the range's disjunct A; without it the
    range rule is inert and the search splits nothing."""
    lines = ["(range r (or A B))", "(subclass A C)"]
    lines += [f"(related r s t{i})" for i in range(6)]
    kb = parse_kb("\n".join(lines) + "\n")
    program = clausify(kb)
    with pytest.raises(BranchLimitExceeded):
        chase(program, kb.abox, ChaseConfig(max_branches=8))
    assert _Chase(program, kb.abox, ChaseConfig(max_branches=7)).consistent()
    with pytest.raises(BranchLimitExceeded):
        _Chase(program, kb.abox, ChaseConfig(max_branches=6)).consistent()
    inert = parse_kb("\n".join(lines[:1] + lines[2:]) + "\n")
    split = _Chase._split
    children = []
    monkeypatch.setattr(_Chase, "_split", lambda self, branch, rules: (
        children.append(split(self, branch, rules)) or children[-1]))
    assert _Chase(clausify(inert), inert.abox,
                  ChaseConfig(max_branches=1)).consistent()
    assert children == [None]


CHAIN = """
(concept A)
(concept C)
(role r)
(subclass A (or (some r A) C))
(disjoint A C)
"""


def test_satisfiability_falls_back_to_the_full_chase_past_the_bound():
    """Each split of A's chain keeps its dead C sibling waiting below it
    depth-first, one more per level, while breadth-first drops it at once:
    the search exceeds a bound the full chase keeps, so ``satisfiable``
    takes the full chase's verdict (inconsistent, as the chain ends at the
    depth cap) and raises only where that chase does."""
    kb = parse_kb(CHAIN)
    cfg = ChaseConfig(max_branches=4, skolem_depth_cap=6)
    frozen = [A(kb, "A", "$q0")]
    with pytest.raises(BranchLimitExceeded):
        _Chase(clausify(kb), frozen, cfg).consistent()
    assert chase(clausify(kb), frozen, cfg).inconsistent
    query = QuerySpec(KEY, (A(kb, "A", KEY),))
    assert not SemanticContext(kb, cfg).satisfiable(query)
    with pytest.raises(BranchLimitExceeded):
        SemanticContext(kb, ChaseConfig(max_branches=2, skolem_depth_cap=6)
                        ).satisfiable(query)


def test_one_leaf_search_matches_full_chase(monkeypatch, bank_kb,
                                            bank_inverse_kb):
    """The depth-first search finds a consistent leaf exactly when the
    full chase has one: on genkb KBs, some of them inconsistent, the
    backtracking KB, and the frozen query of every satisfiability test of
    sem runs on genkb KBs and both bank KBs, plus an unsatisfiable one."""
    cases = []
    for seed in range(200):
        for label, text in (("kb", random_kb_text(seed)),
                            ("eq kb", random_eq_kb_text(seed))):
            kb = parse_kb(text)
            cases.append((f"{label} {seed}", (clausify(kb), kb.abox)))
    backtrack = parse_kb(BACKTRACK)
    cases.append(("backtrack", (clausify(backtrack), backtrack.abox)))
    runs = [(kb, "Client", Fraction(1, 2)) for kb in (bank_kb, bank_inverse_kb)]
    runs += [(kb, "C0", Fraction(2, 5))
             for text_of in (random_kb_text, random_eq_kb_text)
             for _, kb in usable_kbs(8, text_of=text_of)]
    asked = []
    satisfiable = SemanticContext.satisfiable

    def recorded(self, q):
        asked.append((self, q))
        return satisfiable(self, q)

    with monkeypatch.context() as mp:
        mp.setattr(SemanticContext, "satisfiable", recorded)
        for kb, ref, minsup in runs:
            mine(kb, MiningConfig(ref, minsup, 3, MODE_SEM))
    ctx = SemanticContext(bank_kb.without_abox())
    asked.append((ctx, QuerySpec(KEY, (A(bank_kb, "Account", KEY),
                                       A(bank_kb, "CreditCard", KEY)))))
    seen = set()
    for ctx, q in asked:
        if (id(ctx), canonical_query(q)) not in seen:
            seen.add((id(ctx), canonical_query(q)))
            facts, extra = ctx._freeze(q)
            cases.append((f"frozen {q}", (ctx.program, facts, ctx.cfg, extra)))
    assert len(seen) > 300
    verdicts = {name: _witness_and_full(*args) for name, args in cases}
    assert [name for name, (witness, full) in verdicts.items()
            if witness != full] == []
    assert {full for _, full in verdicts.values()} == {True, False}
    assert not verdicts[f"frozen {asked[-1][1]}"][1]


def test_chase_fully_deterministic(bank_kb):
    program = clausify(bank_kb)
    first = chase(program, bank_kb.abox)
    again = chase(program, bank_kb.abox)
    assert first.models == again.models  # tuple order included


def test_intensional_copy_variants(bank_kb):
    assert bank_kb.without_abox().abox == ()
    assert bank_kb.without_abox().individuals == frozenset()
    kept = bank_kb.keeping_nondl_facts()
    assert [a.pred for a in kept.abox] == ["p_woman"]
    assert kept.individuals == {"Anna"}


def test_format_models_deterministic(pat_kb):
    ms = chase(clausify(pat_kb), pat_kb.abox)
    text = format_models(ms)
    assert text == format_models(chase(clausify(pat_kb), pat_kb.abox))
    assert "---" in text
    first_model = text.split("---")[0].strip().splitlines()
    assert first_model == sorted(first_model)
