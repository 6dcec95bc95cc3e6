"""The full-KB chase factored by ABox component (``reasoner.split_abox``).

Each part is chased on its own and support is the union of each part's
certain answers; these tests compare both against the single chase of the
whole KB, which builds the product of the parts' models, and support also
against the union of ``answer_query`` over the parts.
"""

from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

from genkb import (disjoint_copies, fan_out, random_eq_kb_text,
                   random_kb_text, random_program)
from ontominer import cli, model as m, reasoner
from ontominer.cli import main
from ontominer.clausify import GroundProgram, clausify
from ontominer.errors import BranchLimitExceeded, EmptyReferenceConcept
from ontominer.kbparse import parse_kb
from ontominer.miner import (KEY, MODE_NOSEM, MODE_SEM, MiningConfig,
                             SupportEvaluator, chase_parts,
                             default_bias, mine, refine_candidates,
                             trivial_pattern)
from ontominer.reasoner import (ChaseConfig, QuerySpec, answer_query, chase,
                                split_abox)

DEMOS = Path(__file__).resolve().parent.parent / "demos"
X, Y, Z = m.Var("x"), m.Var("y"), m.Var("z")


def product_models(parts) -> set:
    models = {frozenset()}
    for ms in parts:
        models = {a | b for a in models for b in ms.models}
    return models


def factoring_differs(program, facts) -> list[str]:
    """What the parts' product gets wrong about the single chase."""
    whole = chase(program, facts)
    parts = [chase(p, f) for p, f in split_abox(program, facts)]
    out = []
    if any(ms.inconsistent for ms in parts) != whole.inconsistent:
        out.append("inconsistent")
    if any(ms.truncated for ms in parts) != whole.truncated:
        out.append("truncated")
    if not whole.inconsistent and product_models(parts) != set(whole.models):
        out.append("models")
    if sorted(c for ms in parts for c in ms.individuals) != \
            list(whole.individuals):
        out.append("individuals")
    return out


def per_part_union(evaluator: SupportEvaluator, q: QuerySpec) -> frozenset:
    """The answers of ``q`` as the union of ``answer_query`` over the
    evaluator's parts, each model set indexed and ``q`` compiled anew."""
    return frozenset().union(*(answer_query(ms, q) for ms in evaluator.parts))


def support_differs(kb, ref: str) -> list[str]:
    """Patterns whose support or answers over the parts differ from the
    single chase's or from ``per_part_union``: every node of a nosem and of
    a sem depth-3 run, by the support the run gave it, and every candidate
    refined from the nosem run's nodes, by ``extend`` with and without
    keeping the bindings."""
    whole = chase(clausify(kb), kb.abox)
    parts = chase_parts(kb)
    ref_query = trivial_pattern(ref)
    if not answer_query(whole, ref_query):
        with pytest.raises(EmptyReferenceConcept):
            SupportEvaluator(parts, ref)
        return []
    evaluator = SupportEvaluator(parts, ref)
    if evaluator.reference_extension != answer_query(whole, ref_query):
        return [str(ref_query)]
    references: dict[QuerySpec, Optional[frozenset]] = {}

    def reference(p: QuerySpec) -> Optional[frozenset]:
        """The answers of ``p`` if both references agree, else None."""
        if p not in references:
            union = per_part_union(evaluator, p)
            references[p] = union if union == answer_query(whole, p) else None
        return references[p]

    bias = default_bias(kb, parts)
    out = []
    for mode in (MODE_NOSEM, MODE_SEM):
        result = mine(kb, MiningConfig(ref, Fraction(1, 1000), 3, mode))
        for node in result.trie.nodes():
            expected = reference(node.pattern)
            if expected is None or node.support != \
                    evaluator.fraction(expected):
                out.append(f"{mode} {node.pattern}")
            if mode == MODE_SEM or node.depth == 3:
                continue
            if evaluator.answers(node.pattern) != expected:
                out.append(f"answers of {node.pattern}")
            matches = evaluator.start()
            for atom in node.pattern.body[1:]:
                matches = evaluator.extend(matches, atom, keep=True)
            for atom in refine_candidates(node, bias):
                child = QuerySpec(KEY, node.pattern.body + (atom,))
                expected = reference(child)
                if not (expected is not None
                        and set(evaluator.extend(matches, atom).bindings)
                        == set(evaluator.extend(matches, atom,
                                                keep=True).bindings)
                        == expected):
                    out.append(str(child))
    return out


# -- the split ----------------------------------------------------------------

def test_split_by_component_with_factless_individual():
    program = GroundProgram((), frozenset({"a", "b", "c"}),
                            {"p": m.Predicate("p", 1, m.NONDL),
                             "r": m.Predicate("r", 2, m.NONDL)})
    facts = [m.Atom("p", (m.Const("d"),), m.NONDL),
             m.Atom("r", (m.Const("b"), m.Const("a")), m.NONDL)]
    parts = split_abox(program, facts)
    assert [(sorted(p.individuals), f) for p, f in parts] == [
        (["a", "b"], [facts[1]]), (["c"], []), (["d"], [facts[0]])]
    assert all(p.rules is program.rules for p, _ in parts)


def test_random_programs_factor():
    # Existential-free programs whose individuals may occur in no fact.
    differing, split = [], 0
    for seed in range(200):
        program, facts = random_program(seed)
        split += len(split_abox(program, facts)) > 1
        if factoring_differs(program, facts):
            differing.append(seed)
    assert differing == []
    assert split > 0


@pytest.mark.parametrize("text_of", [random_kb_text, random_eq_kb_text])
def test_random_kbs_factor(text_of):
    differing, split = [], 0
    for seed in range(200):
        kb = parse_kb(text_of(seed))
        program = clausify(kb)
        split += len(split_abox(program, kb.abox)) > 1
        wrong = factoring_differs(program, kb.abox)
        if not wrong and not chase(program, kb.abox).inconsistent:
            wrong = support_differs(kb, "C0")
        if wrong:
            differing.append((seed, wrong))
    assert differing == []
    assert split > 0


@pytest.mark.parametrize("name,copies", [("bank.kb", 1),
                                          ("bank_inverse.kb", 1),
                                          ("bank.kb", 2), ("bank.kb", 3),
                                          ("bank.kb", 4)])
def test_bank_kbs_factor(name, copies):
    text = (DEMOS / name).read_text(encoding="utf-8")
    kb = parse_kb(disjoint_copies(text, copies) if copies > 1 else text)
    program = clausify(kb)
    assert len(split_abox(program, kb.abox)) == 3 * copies
    assert factoring_differs(program, kb.abox) == []
    assert support_differs(kb, "Client") == []


def test_parts_share_one_chase_plan(monkeypatch):
    """The 12 parts of four bank ABox copies share the whole program's
    rules, so the chase plans them once, not once per part."""
    built = []
    init = reasoner._Plan.__init__
    monkeypatch.setattr(reasoner._Plan, "__init__", lambda self, rules: (
        built.append(rules), init(self, rules))[-1])
    kb = parse_kb(disjoint_copies(
        (DEMOS / "bank.kb").read_text(encoding="utf-8"), 4))
    program = clausify(kb)
    assert len(chase_parts(kb)) == 12 and len(built) == 1
    parts = split_abox(program, kb.abox)
    assert {id(reasoner._plan(part)) for part, _ in parts} == {
        id(reasoner._plan(program))}
    assert len(built) == 2


def test_fan_out_support(bank_path):
    # One part of eight models, where each client's isOwnerOf(key, x1) has
    # 30 bindings in every model.
    kb = parse_kb(fan_out(open(bank_path, encoding="utf-8").read()))
    assert [len(ms.models) for ms in chase_parts(kb)] == [8]
    assert support_differs(kb, "Client") == []


def test_bank_support_keeps_the_parts_with_clients(bank_kb):
    evaluator = SupportEvaluator(chase_parts(bank_kb), "Client")
    assert len(evaluator.parts) == 2
    assert evaluator.reference_extension == {"Anna", "Jan", "Marek"}


# -- fallback to one chase ----------------------------------------------------

TWO_COMPONENTS = """
(concept A)
(concept B)
(nondl p 1)
(instance A a)
(instance B b)
"""


def test_rule_with_a_constant_is_one_part():
    kb = parse_kb(TWO_COMPONENTS
                  + "(rule (head (p ?x)) (body (A ?x) (B b) (O ?x)))\n")
    assert len(split_abox(clausify(kb), kb.abox)) == 1
    kb = parse_kb(TWO_COMPONENTS + "(rule (head (p b)) (body (A ?x) (O ?x)))\n")
    assert len(split_abox(clausify(kb), kb.abox)) == 1


def test_disconnected_rule_body_is_one_part():
    kb = parse_kb(TWO_COMPONENTS + "(rule (head (p ?x)) "
                  "(body (A ?x) (B ?y) (O ?x) (O ?y)))\n")
    program = clausify(kb)
    assert len(split_abox(program, kb.abox)) == 1
    # The rule joins the two components: p(a) needs B(b).
    q = QuerySpec(KEY, (m.Atom("A", (KEY,), m.CONCEPT),
                        m.Atom("p", (KEY,), m.NONDL)))
    whole = chase(program, kb.abox)
    assert answer_query(whole, q) == {"a"}
    assert SupportEvaluator(chase_parts(kb), "A").answers(q) == {"a"}
    assert factoring_differs(program, kb.abox) == []


def test_connected_rule_bodies_split():
    # The body's atoms link up only through a chain, listed out of order.
    kb = parse_kb(TWO_COMPONENTS + "(role r)\n(rule (head (p ?x)) "
                  "(body (A ?x) (B ?w) (r ?z ?w) (r ?y ?z) (r ?x ?y) (O ?x) "
                  "(O ?y) (O ?z) (O ?w)))\n")
    assert len(split_abox(clausify(kb), kb.abox)) == 2


def test_support_rejects_a_disconnected_pattern(bank_kb):
    evaluator = SupportEvaluator(chase_parts(bank_kb), "Client")
    client = m.Atom("Client", (KEY,), m.CONCEPT)
    for atoms in [(client, m.Atom("Account", (X,), m.CONCEPT)),
                  (client, m.Atom("Account", (m.Const("a1"),), m.CONCEPT)),
                  (m.Atom("Account", (KEY,), m.CONCEPT),)]:
        with pytest.raises(ValueError):
            evaluator.answers(QuerySpec(KEY, atoms))
    with pytest.raises(ValueError):  # the reference atom is not on the key
        evaluator.answers(QuerySpec(X, (client, m.Atom("isOwnerOf", (KEY, X),
                                                       m.ROLE))))
    assert not QuerySpec(KEY, (client, m.Atom("isOwnerOf", (X, Y), m.ROLE))
                         ).is_connected()
    assert QuerySpec(KEY, (client, m.Atom("Client", (Y,), m.CONCEPT),
                           m.Atom("p_familyAccount", (X, Y, Z), m.NONDL),
                           m.Atom("isOwnerOf", (KEY, X), m.ROLE))
                     ).is_connected()


# -- scale and limits ---------------------------------------------------------

def mine_files(kb_path, out, *extra) -> dict[str, bytes]:
    assert main(["mine", "--kb", str(kb_path), "--ref-concept", "Client",
                 "--minsup", "1/2", "--max-depth", "3", "--mode", "nosem",
                 "--out", str(out), *extra]) == 0
    return {name: (out / name).read_bytes()
            for name in ("patterns.txt", "stats.csv", "trie.graphml")}


def test_sixteen_bank_copies_mine_like_one(bank_path, tmp_path, capsys):
    # The single chase would build 4^16 models.
    copies = tmp_path / "bankx16.kb"
    copies.write_text(disjoint_copies(open(bank_path, encoding="utf-8").read(),
                                      16), encoding="utf-8")
    base = mine_files(bank_path, tmp_path / "base")
    assert "full chase: 3 parts, 5 models, 4 in their product" in \
        capsys.readouterr().out
    assert mine_files(copies, tmp_path / "x16") == base
    assert f"full chase: 48 parts, 80 models, {4 ** 16} in their product" in \
        capsys.readouterr().out


def test_dump_models_stops_before_the_product(bank_path, tmp_path, capsys,
                                             monkeypatch):
    copies = tmp_path / "bankx16.kb"
    copies.write_text(disjoint_copies(open(bank_path, encoding="utf-8").read(),
                                      16), encoding="utf-8")
    monkeypatch.setattr(cli, "chase", lambda *args: pytest.fail(
        "the whole KB was chased"))
    dump = tmp_path / "models.txt"
    assert main(["mine", "--kb", str(copies), "--ref-concept", "Client",
                 "--minsup", "1/2", "--max-depth", "1", "--mode", "nosem",
                 "--out", str(tmp_path / "out"), "--dump-models",
                 str(dump)]) == 4
    err = capsys.readouterr().err
    assert f"into {4 ** 16} models, the product of its parts' model " \
        "counts, more than --max-branches 100000" in err
    assert not dump.exists()


TWO_WIDE = ["(concept A)", "(concept B)", "(range r (or A B))",
            "(related r s t0)", "(related r s t1)", "(instance A s)",
            "(related r u v0)", "(related r u v1)", "(instance A u)"]


def test_branch_limit_bounds_each_part(tmp_path):
    kb_path = tmp_path / "two_wide.kb"
    kb_path.write_text("\n".join(TWO_WIDE) + "\n")
    kb = parse_kb(kb_path.read_text())
    program = clausify(kb)
    cfg = ChaseConfig(max_branches=4)
    with pytest.raises(BranchLimitExceeded):
        chase(program, kb.abox, cfg)
    assert [len(chase(p, f, cfg).models)
            for p, f in split_abox(program, kb.abox)] == [4, 4]
    assert main(["mine", "--kb", str(kb_path), "--ref-concept", "A",
                 "--minsup", "1/2", "--max-depth", "2", "--mode", "nosem",
                 "--out", str(tmp_path / "out"), "--max-branches", "4"]) == 0


def test_truncated_part_is_reported(tmp_path, capsys):
    kb_path = tmp_path / "chain.kb"
    kb_path.write_text("(concept A)\n(role r)\n(subclass A (some r A))\n"
                       "(instance A a)\n(instance A b)\n")
    out = tmp_path / "out"
    assert main(["mine", "--kb", str(kb_path), "--ref-concept", "A",
                 "--minsup", "1/2", "--max-depth", "2", "--mode", "nosem",
                 "--out", str(out), "--skolem-depth", "1"]) == 0
    printed = capsys.readouterr().out
    assert "full chase: 2 parts, 2 models, 1 in their product" in printed
    assert "truncated: 2 of 2 parts hit the skolem depth cap" in printed
    assert "truncated" not in (out / "stats.csv").read_text()
