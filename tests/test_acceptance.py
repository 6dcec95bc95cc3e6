"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from fractions import Fraction

import pytest

from genkb import random_program, usable_kbs
from oracles import brute_force_minimal_models, enumerate_pattern_space
from ontominer import model as m
from ontominer.cli import main
from ontominer.clausify import clausify
from ontominer.kbparse import parse_kb
from ontominer.miner import (KEY, MODE_NOSEM, MODE_SEM, MODE_SEM_TAX,
                             MiningConfig, Pattern, PRUNED_NOT_SFREE,
                             PRUNED_UNSAT, SupportEvaluator, Trie, TrieNode,
                             default_bias, is_semantically_free, mine,
                             semantic_filter, trivial_pattern)
from ontominer.reasoner import (ChaseConfig, QuerySpec, SemanticContext,
                                answer_query, cautious_entails, chase)

X, Y, Z = m.Var("x"), m.Var("y"), m.Var("z")


def A(kb, pred, *terms):
    args = tuple(t if isinstance(t, m.Var) else m.Const(t) for t in terms)
    return m.Atom(pred, args, kb.predicate(pred).kind)


def ok(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_worked_example(bank_kb):
    started = time.perf_counter()
    ms = chase(clausify(bank_kb), bank_kb.abox)
    ref = QuerySpec(KEY, (A(bank_kb, "Client", KEY),))
    assert len(answer_query(ms, bank_kb.individuals, ref)) == 3
    ev = SupportEvaluator(ms, bank_kb.individuals, "Client")
    q2 = Pattern((A(bank_kb, "Client", KEY), A(bank_kb, "isOwnerOf", KEY, X),
                  A(bank_kb, "p_familyAccount", X, KEY, Z)))
    assert ev.support(q2) == Fraction(2, 3)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(1, f"worked-example reproduction, {elapsed:.2f}s")


def test_criterion_2_frequent_set(bank_kb):
    started = time.perf_counter()
    res = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))
    ctx = SemanticContext(bank_kb.without_abox())
    q_ref = Pattern((A(bank_kb, "Client", KEY),))
    q1 = q_ref.with_atom(A(bank_kb, "isOwnerOf", KEY, X))
    q2 = q1.with_atom(A(bank_kb, "p_familyAccount", X, KEY, Z))
    q3 = q1.with_atom(A(bank_kb, "isOwnerOf", KEY, Y))
    q4 = q1.with_atom(A(bank_kb, "CreditCard", X))
    mined = [p.query() for p, _ in res.patterns]
    for wanted in (q_ref, q1, q2, q3):
        assert any(ctx.equivalent(wanted.query(), got) for got in mined), \
            f"no representative for {wanted}"
    assert not any(ctx.equivalent(q4.query(), got) for got in mined)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(2, f"frequent set matches the worked example, {elapsed:.2f}s")


def test_criterion_3_disjunctive_cautious_entailment(pat_kb):
    ms = chase(clausify(pat_kb), pat_kb.abox)
    pat = m.Const("Pat")
    assert cautious_entails(ms, m.Atom("Human", (pat,), m.CONCEPT)) is True
    assert cautious_entails(ms, m.Atom("Man", (pat,), m.CONCEPT)) is False
    assert cautious_entails(ms, m.Atom("Woman", (pat,), m.CONCEPT)) is False
    ok(3, "disjunctive cautious entailment")


def test_criterion_4_existential_chase(bank_kb):
    ms = chase(clausify(bank_kb), bank_kb.abox, ChaseConfig(skolem_depth_cap=3))
    assert cautious_entails(
        ms, m.Atom("Property", (m.Const("account2"),), m.CONCEPT))
    assert not ms.truncated
    ok(4, "existential witness yields Property(account2)")


def test_criterion_5_pruning_behaviors(bank_kb, bank_inverse_kb):
    ctx = SemanticContext(bank_kb.without_abox())
    trie = Trie(TrieNode(A(bank_kb, "Account", KEY),
                         trivial_pattern("Account"), Fraction(1), 1, None))
    unsat = Pattern((A(bank_kb, "Account", KEY), A(bank_kb, "CreditCard", KEY)))
    assert semantic_filter(unsat, ctx, trie) == PRUNED_UNSAT
    not_sfree = Pattern((A(bank_kb, "Account", KEY),
                         A(bank_kb, "isOwnerOf", X, KEY),
                         A(bank_kb, "Client", X)))
    assert semantic_filter(not_sfree, ctx, trie) == PRUNED_NOT_SFREE
    exempt = Pattern((A(bank_kb, "Client", KEY),
                      A(bank_kb, "isOwnerOf", KEY, X)))
    assert is_semantically_free(exempt, ctx)

    inv_ctx = SemanticContext(bank_inverse_kb.without_abox())
    res = mine(bank_inverse_kb,
               MiningConfig("Client", Fraction(1, 2), 2, MODE_SEM))
    wanted = Pattern((A(bank_inverse_kb, "Client", KEY),
                      A(bank_inverse_kb, "isOwnerOf", KEY, X)))
    reps = [p for p, _ in res.patterns
            if inv_ctx.equivalent(p.query(), wanted.query())]
    assert len(reps) == 1
    ok(5, "unsat / s-freeness / reference exemption / inverse collapse")


def test_criterion_6_monotonicity_audit():
    violations = 0
    edges = 0
    for seed, kb in usable_kbs(50):
        res = mine(kb, MiningConfig("C0", Fraction(2, 5), 3, MODE_SEM))
        for node in res.trie.nodes():
            for child in node.children:
                edges += 1
                if child.support > node.support:
                    violations += 1
    assert edges > 0 and violations == 0
    ok(6, f"support monotone on {edges} trie edges over 50 random KBs")


def test_criterion_7_completeness_oracle():
    started = time.perf_counter()
    minsup = Fraction(2, 5)
    checked = 0
    for seed, kb in usable_kbs(25):
        ms = chase(clausify(kb), kb.abox)
        ev = SupportEvaluator(ms, kb.individuals, "C0")
        ctx = SemanticContext(kb.without_abox())
        space = enumerate_pattern_space("C0", default_bias(kb, ms), 3)
        oracle = [p for p in space
                  if ev.support(p) >= minsup and is_semantically_free(p, ctx)]
        mined = [p for p, _ in
                 mine(kb, MiningConfig("C0", minsup, 3, MODE_SEM)).patterns]
        for p in oracle:
            assert any(ctx.equivalent(p.query(), q.query()) for q in mined), \
                f"seed {seed}: trie misses {p}"
        for q in mined:
            assert any(ctx.equivalent(p.query(), q.query()) for p in oracle), \
                f"seed {seed}: trie invents {q}"
        checked += len(oracle)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    ok(7, f"complete wrt {checked} oracle patterns on 25 KBs, {elapsed:.1f}s")


def test_criterion_8_minimal_model_oracle():
    for seed in range(25):
        program, facts = random_program(seed)
        ms = chase(program, facts)
        expected, inconsistent = brute_force_minimal_models(program, facts)
        assert ms.inconsistent == inconsistent, f"seed {seed}"
        assert set(ms.models) == set(expected), f"seed {seed}"
    ok(8, "chase equals brute-force minimal models on 25 programs")


def test_criterion_9_mode_relations(bank_kb):
    sem = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))
    nosem = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_NOSEM))
    tax = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM_TAX))
    for depth, n in nosem.stats.per_depth.items():
        s = sem.stats.per_depth[depth]
        assert s.cand <= n.cand and s.freq <= n.freq
    ctx = SemanticContext(bank_kb.without_abox())
    sem_qs = [p.query() for p, _ in sem.patterns]
    tax_qs = [p.query() for p, _ in tax.patterns]
    for q in sem_qs:
        assert any(ctx.equivalent(q, other) for other in tax_qs)
    for q in tax_qs:
        assert any(ctx.equivalent(q, other) for other in sem_qs)
    ok(9, "cand/freq: sem <= nosem per depth; sem == sem+tax semantically")


def test_criterion_10_determinism(bank_path, tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["mine", "--kb", bank_path, "--ref-concept", "Client",
                     "--minsup", "0.5", "--max-depth", "3", "--mode", "sem",
                     "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("patterns.txt", "stats.csv", "trie.graphml"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    ok(10, "byte-identical patterns.txt, stats.csv, trie.graphml")
