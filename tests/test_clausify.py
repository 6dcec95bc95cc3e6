import pytest

from ontominer import model as m
from ontominer.clausify import (ExistsHead, NormalInclusion, ProgramRule,
                                clausify, format_program, normalize)
from ontominer.errors import UnsupportedAxiom
from ontominer.kbparse import parse_kb


def rules_as_strings(kb):
    return [str(r) for r in clausify(kb).rules]


def test_client_definition_splits_into_two_inclusions():
    forms, _ = normalize((m.EquivClass(
        m.Atomic("Client"), m.Some(m.RoleExpr("isOwnerOf"), m.TOP)),))
    assert forms == [
        NormalInclusion(("Client",), (), (),
                        (("some", 0, m.RoleExpr("isOwnerOf"), None),)),
        NormalInclusion((), ((m.RoleExpr("isOwnerOf"), None),), (),
                        (("atomic", 0, "Client"),)),
    ]


def test_disjunctive_range_clause():
    kb = parse_kb("(range isOwnerOf (or Account CreditCard))\n")
    assert ("Account(?x1) | CreditCard(?x1) :- isOwnerOf(?x0, ?x1)."
            in rules_as_strings(kb))


def test_reflexive_inclusion_dropped():
    forms, _ = normalize((m.SubClass(m.Atomic("A"), m.Atomic("A")),))
    assert forms == []


def test_inverse_functional_equality_rule():
    kb = parse_kb("(functional (inv hasMortgage))\n")
    assert ("=(?x1, ?x2) :- hasMortgage(?x1, ?x0), hasMortgage(?x2, ?x0)."
            in rules_as_strings(kb))


def test_symmetric_role_rule():
    kb = parse_kb("(symmetric relative)\n")
    assert "relative(?x1, ?x0) :- relative(?x0, ?x1)." in rules_as_strings(kb)


def test_equivrole_inverse_pair():
    kb = parse_kb("(role isOwnerOf)\n(equivrole hasOwner (inv isOwnerOf))\n")
    out = rules_as_strings(kb)
    assert "isOwnerOf(?x1, ?x0) :- hasOwner(?x0, ?x1)." in out
    assert "hasOwner(?x0, ?x1) :- isOwnerOf(?x1, ?x0)." in out


def test_existential_superclass_becomes_exists_head():
    kb = parse_kb("(subclass Account (some (inv isOwnerOf) Thing))\n")
    program = clausify(kb)
    heads = [r.head[0] for r in program.rules if r.head]
    assert ExistsHead(m.RoleExpr("isOwnerOf", inverse=True), None,
                      m.Var("x0")) in heads


def test_disjointness_becomes_constraint():
    kb = parse_kb("(disjoint Account CreditCard)\n")
    assert ":- Account(?x0), CreditCard(?x0)." in rules_as_strings(kb)


def test_transitive_role():
    kb = parse_kb("(transitive part_of)\n")
    assert ("part_of(?x0, ?x2) :- part_of(?x0, ?x1), part_of(?x1, ?x2)."
            in rules_as_strings(kb))


def test_definition_with_conjunction_and_existential():
    kb = parse_kb("(equivalent Student (and Person (some takesCourse Course)))\n")
    out = rules_as_strings(kb)
    assert ("Student(?x0) :- Person(?x0), takesCourse(?x0, ?x1), Course(?x1)."
            in out)
    assert "Person(?x0) :- Student(?x0)." in out
    assert any("exists[takesCourse,Course]" in s for s in out)


def test_complex_existential_filler_gets_aux_concept():
    kb = parse_kb("(subclass Transport (some participant (and Protein Membrane)))\n")
    program = clausify(kb)
    assert "aux_0" in program.predicates
    out = [str(r) for r in program.rules]
    assert any("exists[participant,aux_0]" in s for s in out)
    assert "Protein(?x0) :- aux_0(?x0)." in out
    assert "Membrane(?x0) :- aux_0(?x0)." in out


def test_disjunction_around_value_restriction():
    # A below (B or all r.C) prenexes to one mixed-variable clause.
    kb = parse_kb("(subclass A (or B (all r C)))\n")
    assert "B(?x0) | C(?x1) :- A(?x0), r(?x0, ?x1)." in rules_as_strings(kb)


def test_nested_value_restrictions_get_aux():
    kb = parse_kb("(range r (all s C))\n")
    out = rules_as_strings(kb)
    assert "aux_0(?x1) :- r(?x0, ?x1)." in out
    assert "C(?x1) :- aux_0(?x0), s(?x0, ?x1)." in out


def test_disjunction_on_the_left_splits():
    kb = parse_kb("(subclass (or A B) C)\n")
    out = rules_as_strings(kb)
    assert "C(?x0) :- A(?x0)." in out and "C(?x0) :- B(?x0)." in out


def test_conjunctive_domain_splits():
    kb = parse_kb("(domain r (and A B))\n")
    out = rules_as_strings(kb)
    assert "A(?x0) :- r(?x0, ?x1)." in out and "B(?x0) :- r(?x0, ?x1)." in out


def test_existential_disjunct_at_successor():
    kb = parse_kb("(subclass A (all r (or B (some s C))))\n")
    assert ("B(?x1) | exists[s,C](?x1) :- A(?x0), r(?x0, ?x1)."
            in rules_as_strings(kb))


def test_nested_existential_on_left_gets_aux():
    kb = parse_kb("(subclass (some r (some s A)) B)\n")
    out = rules_as_strings(kb)
    assert "aux_0(?x0) :- s(?x0, ?x1), A(?x1)." in out
    assert "B(?x0) :- r(?x0, ?x1), aux_0(?x1)." in out


def test_covering_complement_flag_produces_covering_rule():
    text = "(instance Account a)\n(equivalent Account (not CreditCard))\n"
    plain = clausify(parse_kb(text))
    assert not any("$top" in str(r) for r in plain.rules)
    covering = clausify(parse_kb(text, covering_complement=True))
    assert ("Account(?x0) | CreditCard(?x0) :- $top(?x0)."
            in [str(r) for r in covering.rules])


def test_value_restriction_on_left_rejected():
    kb = parse_kb("(subclass (all r A) B)\n")
    with pytest.raises(UnsupportedAxiom):
        clausify(kb)


def test_negation_under_quantifier_rejected():
    kb = m.CombinedKB(
        (m.SubClass(m.Some(m.RoleExpr("r"), m.Not("A")), m.Atomic("B")),),
        (), (), frozenset(), {"A": m.Predicate("A", 1, m.CONCEPT),
                              "B": m.Predicate("B", 1, m.CONCEPT),
                              "r": m.Predicate("r", 2, m.ROLE)})
    with pytest.raises(UnsupportedAxiom):
        clausify(kb)


def test_user_rules_made_safe_and_appended():
    kb = parse_kb("(concept Person)\n(role livesAt)\n(role worksAt)\n"
                  "(rule (head (p_home ?x)) "
                  "(body (Person ?x) (livesAt ?x ?y) (worksAt ?x ?y)))\n")
    out = rules_as_strings(kb)
    assert ("p_home(?x) :- Person(?x), livesAt(?x, ?y), worksAt(?x, ?y), "
            "O(?x), O(?y)." in out)


def test_equality_rules_only_when_needed(bank_kb):
    assert any(r.origin == "eq-reflexivity" for r in clausify(bank_kb).rules)
    horn = parse_kb("(subclass A B)\n(instance A x)\n")
    assert not any(r.origin.startswith("eq-") for r in clausify(horn).rules)


def test_horn_kb_yields_plain_datalog():
    kb = parse_kb("(subclass A B)\n(domain r A)\n(disjoint B C)\n"
                  "(instance A x)\n(related r x y)\n")
    assert clausify(kb).is_plain_datalog()


def test_bank_program_is_not_plain_datalog(bank_kb):
    assert not clausify(bank_kb).is_plain_datalog()


def test_clausification_deterministic(bank_kb):
    first = format_program(clausify(bank_kb))
    for _ in range(3):
        assert format_program(clausify(bank_kb)) == first
    ids = [r.rid for r in clausify(bank_kb).rules]
    assert ids == sorted(ids, key=lambda s: int(s[1:]))


def test_range_restriction_holds(bank_kb):
    for rule in clausify(bank_kb).rules:
        body_vars = {v for a in rule.body for v in a.variables()}
        for h in rule.head:
            if isinstance(h, ExistsHead):
                assert h.var in body_vars
            else:
                assert set(h.variables()) <= body_vars


def test_compiled_form_is_invariant_under_renaming_only():
    def rule(x, y, z):
        return ProgramRule("r0", (m.Atom("t", (x, z), m.ROLE),),
                           (m.Atom("t", (x, y), m.ROLE),
                            m.Atom("t", (y, z), m.ROLE)))

    x, y, z, w = (m.Var(n) for n in ("x", "y", "z", "w"))
    assert rule(x, y, z).compiled == rule(w, x, y).compiled
    assert rule(x, y, z).compiled != rule(x, y, y).compiled
    exists = ProgramRule("r1", (ExistsHead(m.RoleExpr("t"), "A", x),),
                         (m.Atom("B", (x,), m.CONCEPT),))
    renamed = ProgramRule("r1", (ExistsHead(m.RoleExpr("t"), "A", w),),
                          (m.Atom("B", (w,), m.CONCEPT),))
    assert exists.compiled == renamed.compiled
