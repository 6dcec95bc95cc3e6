import dataclasses
from fractions import Fraction

import pytest

from genkb import random_kb_text, usable_kbs
from oracles import is_connected
from ontominer import model as m
from ontominer.errors import ParseError
from ontominer.kbparse import parse_kb, serialize_kb
from ontominer.miner import MODE_SEM, MiningConfig, mine
from ontominer.reasoner import QuerySpec, canonical_query


def atom(kind, pred, *terms):
    args = tuple(m.Var(t[1:]) if t.startswith("?") else m.Const(t)
                 for t in terms)
    return m.Atom(pred, args, kind)


def test_disjoint_line():
    kb = parse_kb("(disjoint Account CreditCard)\n")
    assert kb.tbox == (m.Disjoint("Account", "CreditCard"),)
    assert kb.predicates["Account"].kind == m.CONCEPT


def test_empty_file():
    kb = parse_kb("")
    assert kb.tbox == () and kb.rules == () and kb.abox == ()
    assert kb.individuals == frozenset()


def test_related_fact_registers_individuals():
    kb = parse_kb("(related isOwnerOf Anna a1)\n")
    assert kb.abox == (atom(m.ROLE, "isOwnerOf", "Anna", "a1"),)
    assert kb.individuals == {"Anna", "a1"}


def test_comments_and_blank_lines():
    kb = parse_kb("; a comment\n\n(concept A) ; trailing\n")
    assert "A" in kb.predicates


def test_unclosed_paren_reports_position():
    with pytest.raises(ParseError) as e:
        parse_kb("(concept A\n")
    assert e.value.line == 1


def test_arity_mismatch():
    with pytest.raises(ParseError, match="arity"):
        parse_kb("(nondl p 2)\n(fact p a)\n")


def test_kind_conflict():
    with pytest.raises(ParseError, match="already used"):
        parse_kb("(concept A)\n(related A x y)\n")


def test_negation_of_complex_concept_rejected():
    with pytest.raises(ParseError, match="atomic"):
        parse_kb("(subclass A (not (and B C)))\n")


def test_facts_must_be_ground():
    with pytest.raises(ParseError, match="ground"):
        parse_kb("(instance A ?x)\n")


def test_o_not_allowed_in_head():
    with pytest.raises(ParseError, match="head"):
        parse_kb("(rule (head (O ?x)) (body (p ?x)))\n")


def test_reserved_names():
    with pytest.raises(ParseError, match="reserved"):
        parse_kb("(concept Thing)\n")


def test_double_inverse_normalized():
    kb = parse_kb("(subrole (inv (inv r)) s)\n")
    assert kb.tbox == (m.SubRole(m.RoleExpr("r"), m.RoleExpr("s")),)


def test_nary_and_folds():
    kb = parse_kb("(subclass A (and B C D))\n")
    sup = kb.tbox[0].sup
    assert sup == m.And(m.Atomic("B"), m.And(m.Atomic("C"), m.Atomic("D")))


def test_equivalent_not_reads_as_disjoint():
    kb = parse_kb("(equivalent Account (not CreditCard))\n")
    assert kb.tbox == (m.Disjoint("Account", "CreditCard"),)
    kb2 = parse_kb("(equivalent Account (not CreditCard))\n",
                   covering_complement=True)
    assert kb2.tbox[0] == m.Disjoint("Account", "CreditCard")
    assert kb2.tbox[1] == m.SubClass(
        m.TOP, m.Or(m.Atomic("Account"), m.Atomic("CreditCard")))


def test_rule_with_empty_body_is_a_disjunctive_fact():
    kb = parse_kb("(rule (head (Man Pat) (Woman Pat)) (body))\n")
    assert kb.rules[0].body == ()
    assert m.check_dl_safety(kb.rules[0])


def test_rule_with_disjunctive_head(bank_kb):
    heads = [r.head for r in bank_kb.rules if len(r.head) == 2]
    assert heads == [(atom(m.NONDL, "p_man", "?x"), atom(m.NONDL, "p_woman", "?x"))]


def test_roundtrip_bank(bank_kb):
    again = parse_kb(serialize_kb(bank_kb))
    assert again == bank_kb


def test_roundtrip_random_kbs():
    for seed in range(12):
        kb = parse_kb(random_kb_text(seed))
        assert parse_kb(serialize_kb(kb)) == kb


def test_individuals_equal_abox_constants():
    for _, kb in usable_kbs(8):
        constants = {t.name for a in kb.abox for t in a.args}
        assert kb.individuals == constants


# DL-safety -----------------------------------------------------------------

def homeworker_rule(with_o: bool) -> m.DLRule:
    x, y = m.Var("x"), m.Var("y")
    body = [m.Atom("Person", (x,), m.CONCEPT),
            m.Atom("livesAt", (x, y), m.ROLE),
            m.Atom("worksAt", (x, y), m.ROLE)]
    if with_o:
        body += [m.Atom("O", (x,), m.OPRED), m.Atom("O", (y,), m.OPRED)]
    return m.DLRule((m.Atom("Homeworker", (x,), m.CONCEPT),), tuple(body))


def test_homeworker_rule_not_safe():
    assert not m.check_dl_safety(homeworker_rule(False))


def test_homeworker_rule_safe_with_o_atoms():
    assert m.check_dl_safety(homeworker_rule(True))


def test_ground_rule_is_safe():
    rule = m.DLRule((atom(m.CONCEPT, "Man", "Pat"),),
                    (atom(m.CONCEPT, "Human", "Pat"),))
    assert m.check_dl_safety(rule)


def test_make_dl_safe_appends_o_atoms():
    assert m.make_dl_safe(homeworker_rule(False)) == homeworker_rule(True)


def test_make_dl_safe_idempotent():
    safe = m.make_dl_safe(homeworker_rule(False))
    assert m.make_dl_safe(safe) == safe


def test_nondl_body_atom_already_covers():
    x, y = m.Var("x"), m.Var("y")
    rule = m.DLRule((m.Atom("p", (x,), m.NONDL),),
                    (m.Atom("q", (x, y), m.NONDL),))
    assert m.make_dl_safe(rule) == rule


def test_make_dl_safe_always_yields_safe_rules(bank_kb):
    for rule in bank_kb.rules:
        assert m.check_dl_safety(m.make_dl_safe(rule))
    for _, kb in usable_kbs(6):
        for rule in kb.rules:
            assert m.check_dl_safety(m.make_dl_safe(rule))


def test_linkedness_helper():
    key, x, y = m.Var("key"), m.Var("x"), m.Var("y")
    linked = (m.Atom("C", (key,), m.CONCEPT), m.Atom("r", (key, x), m.ROLE),
              m.Atom("r", (x, y), m.ROLE))
    assert is_connected(QuerySpec(key, linked))
    assert not is_connected(QuerySpec(key, (m.Atom("C", (key,), m.CONCEPT),
                                            m.Atom("D", (x,), m.CONCEPT))))


# -- slotted value types -----------------------------------------------------

def _values():
    key, x = m.Var("key"), m.Var("x1")
    a = m.Atom("r", (key, x), m.ROLE)
    return [key, m.Const("a"), a, QuerySpec(key, (a,))]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_types_have_no_instance_dict(value):
    assert not hasattr(value, "__dict__")
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_types_compare_and_hash_by_fields(value):
    twin = dataclasses.replace(value)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert len({value, twin}) == 1
    # A frozen dataclass hashes the tuple of its fields.
    assert hash(value) == hash(tuple(getattr(value, f.name)
                                     for f in dataclasses.fields(value)))


def test_value_types_keep_replace_and_kind_distinctions():
    _, _, role_atom, query = _values()
    assert dataclasses.replace(role_atom, pred="s") == \
        m.Atom("s", role_atom.args, m.ROLE)
    assert dataclasses.replace(query, key=m.Var("y")).key == m.Var("y")
    assert m.Var("a") != m.Const("a")
    assert len({m.Var("a"), m.Const("a")}) == 2


@pytest.mark.parametrize("kb_fixture,hits,misses", [
    ("bank_kb", 701, 209), ("bank_inverse_kb", 764, 231)])
def test_canonical_query_cache_counts_of_a_sem_run(request, kb_fixture, hits,
                                                   misses):
    """The ``canonical_query`` memo keys on ``QuerySpec`` equality and hash,
    so a sem run at depth 3 finds exactly the forms it always found."""
    kb = request.getfixturevalue(kb_fixture)
    canonical_query.cache_clear()
    mine(kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))
    info = canonical_query.cache_info()
    assert (info.hits, info.misses) == (hits, misses)
