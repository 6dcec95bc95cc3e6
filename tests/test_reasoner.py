from fractions import Fraction

import pytest

from genkb import random_program, usable_kbs
from oracles import brute_force_certain_answers, brute_force_minimal_models
from ontominer import model as m
from ontominer.clausify import (ExistsHead, GroundProgram, ProgramRule,
                                clausify)
from ontominer.errors import BranchLimitExceeded, InconsistentKB
from ontominer.kbparse import parse_kb
from ontominer.miner import MODE_NOSEM, MiningConfig, mine
from ontominer.reasoner import (ChaseConfig, QuerySpec, SemanticContext,
                                answer_query, canonical_query,
                                cautious_entails, chase, classify,
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


# -- query answering -----------------------------------------------------------

def test_reference_query_answers(bank_kb):
    ms = bank_models(bank_kb)
    q = QuerySpec(KEY, (A(bank_kb, "Client", KEY),))
    assert answer_query(ms, bank_kb.individuals, q) == {"Anna", "Jan", "Marek"}


def test_family_account_query(bank_kb):
    ms = bank_models(bank_kb)
    q = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "isOwnerOf", KEY, X),
                        A(bank_kb, "p_familyAccount", X, KEY, Z)))
    assert answer_query(ms, bank_kb.individuals, q) == {"Anna", "Marek"}


def test_credit_card_query(bank_kb):
    ms = bank_models(bank_kb)
    q = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "isOwnerOf", KEY, X),
                        A(bank_kb, "CreditCard", X)))
    assert answer_query(ms, bank_kb.individuals, q) == {"Jan"}


def test_disjunctive_predicate_certain_answers(bank_kb):
    # p_man holds for Jan or Marek in some models but never in all of them.
    ms = bank_models(bank_kb)
    q = QuerySpec(KEY, (A(bank_kb, "p_man", KEY),))
    assert answer_query(ms, bank_kb.individuals, q) == frozenset()


def test_adding_atom_never_enlarges_answers(bank_kb):
    ms = bank_models(bank_kb)
    base = [A(bank_kb, "Client", KEY)]
    extensions = [
        A(bank_kb, "isOwnerOf", KEY, X),
        A(bank_kb, "relative", KEY, X),
        A(bank_kb, "p_woman", KEY),
        A(bank_kb, "p_familyAccount", X, KEY, Z),
    ]
    prev = answer_query(ms, bank_kb.individuals, QuerySpec(KEY, tuple(base)))
    for ext in extensions:
        grown = answer_query(ms, bank_kb.individuals,
                             QuerySpec(KEY, tuple(base + [ext])))
        assert grown <= prev


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
            queries += [pattern.query(), QuerySpec(KEY, pattern.atoms[1:])]
        if kb is bank_kb:
            queries.append(QuerySpec(KEY, (
                A(kb, "isOwnerOf", KEY, "account2"),)))
        for q in queries:
            if len(q.variables()) > 4:
                continue
            assert answer_query(ms, kb.individuals, q) == \
                brute_force_certain_answers(ms, kb.individuals, q), str(q)
            checked += 1
    assert checked > 500


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


# -- classification -------------------------------------------------------------

def test_bank_taxonomy(bank_kb):
    tax = classify(bank_kb)
    assert tax.concept_subsumers["Gold"] == {"CreditCard"}
    assert tax.concept_subsumers["Account"] == {"Property"}
    assert tax.concept_subsumers["Client"] == frozenset()
    assert tax.direct_subconcepts("CreditCard") == ["Gold"]
    assert set(tax.concept_roots()) == {"Client", "CreditCard", "Mortgage",
                                        "Property"}


def test_student_definition_classified():
    kb = parse_kb("(equivalent Student (and Person (some takesCourse Course)))\n"
                  "(instance Student s1)\n")
    tax = classify(kb)
    assert "Person" in tax.concept_subsumers["Student"]


def test_role_taxonomy_subrole():
    kb = parse_kb("(subrole headOf worksFor)\n(related headOf a b)\n")
    tax = classify(kb)
    assert tax.role_subsumers["headOf"] == {"worksFor"}
    assert tax.direct_subroles("worksFor") == ["headOf"]
    assert tax.role_roots() == ["worksFor"]


def test_transitive_reduction_skips_middle():
    kb = parse_kb("(subclass A B)\n(subclass B C)\n(instance A x)\n")
    tax = classify(kb)
    assert tax.concept_subsumers["A"] == {"B", "C"}
    assert tax.direct_subconcepts("C") == ["B"]
    assert tax.direct_subconcepts("B") == ["A"]


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
