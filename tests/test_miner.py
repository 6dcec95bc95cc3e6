from fractions import Fraction

import pytest

import oracles
from genkb import (fan_out, random_eq_kb_text, random_kb, random_kb_text,
                   usable_kbs)
from ontominer import model as m
from ontominer.errors import EmptyReferenceConcept
from ontominer.kbparse import parse_kb
from ontominer import miner
from ontominer.cli import main
from ontominer.miner import (ACCEPTED, KEY, MODE_NOSEM, MODE_SEM, Counts,
                             MiningConfig, PRUNED_EQUIVALENT,
                             PRUNED_NOT_SFREE, PRUNED_UNSAT, SupportEvaluator,
                             Trie, TrieNode, chase_parts,
                             is_semantically_free, mine, refine_candidates,
                             semantic_filter, trivial_pattern)
from ontominer.reasoner import (ChaseConfig, QuerySpec, SemanticContext,
                                answer_query)

X1, X2 = m.Var("x1"), m.Var("x2")


def A(kb, pred, *terms):
    args = tuple(t if isinstance(t, m.Var) else m.Const(t) for t in terms)
    return m.Atom(pred, args, kb.predicate(pred).kind)


def extended(pattern: QuerySpec, atom: m.Atom) -> QuerySpec:
    return QuerySpec(KEY, pattern.body + (atom,))


def node_for(pattern: QuerySpec, parent=None) -> TrieNode:
    return TrieNode(pattern.body[-1], pattern, Fraction(1),
                    len(pattern.body), parent)


def fresh_trie(pattern: QuerySpec) -> tuple[Trie, TrieNode]:
    root = node_for(pattern)
    return Trie(root), root


def noted_ctx(kb, *patterns: QuerySpec) -> SemanticContext:
    """A fresh context for ``kb``'s intensional part, with ``patterns``
    noted as the miner notes the trie's nodes."""
    ctx = SemanticContext(kb.without_abox())
    for pattern in patterns:
        ctx.note(pattern)
    return ctx


# -- refinement ----------------------------------------------------------------

def test_root_children_share_key(bank_kb):
    _, root = fresh_trie(trivial_pattern("Client"))
    bias = [bank_kb.predicate("isOwnerOf")]
    atoms = refine_candidates(root, bias)
    assert atoms == [A(bank_kb, "isOwnerOf", KEY, X1),
                     A(bank_kb, "isOwnerOf", X1, KEY)]


def test_reference_atom_not_duplicated(bank_kb):
    _, root = fresh_trie(trivial_pattern("Client"))
    bias = [bank_kb.predicate("Client")]
    assert refine_candidates(root, bias) == []


def test_dependent_atoms_can_keep_shared_last_atom_variables(bank_kb):
    """A dependent atom may reuse several variables of the last atom, as
    long as one of them was introduced by it; this is what lets the
    co-ownership pattern appear."""
    trie, root = fresh_trie(trivial_pattern("Client"))
    pattern = extended(root.pattern, A(bank_kb, "isOwnerOf", KEY, X1))
    node = node_for(pattern, root)
    trie.register(root, node)
    bias = [bank_kb.predicate("p_familyAccount")]
    atoms = refine_candidates(node, bias)
    assert A(bank_kb, "p_familyAccount", X1, KEY, X2) in atoms
    # but no atom may touch only old variables
    for atom in atoms:
        assert X1 in atom.variables()


def test_right_brother_copy_renames_new_variables(bank_kb):
    trie, root = fresh_trie(trivial_pattern("Client"))
    left = node_for(extended(root.pattern, A(bank_kb, "isOwnerOf", KEY, X1)),
                    root)
    right = node_for(extended(root.pattern, A(bank_kb, "relative", KEY, X1)),
                     root)
    trie.register(root, left)
    trie.register(root, right)
    atoms = refine_candidates(left, [])
    assert atoms == [A(bank_kb, "relative", KEY, X2)]


def test_leaf_without_new_variables_or_brothers(bank_kb):
    trie, root = fresh_trie(trivial_pattern("Client"))
    mid = node_for(extended(root.pattern, A(bank_kb, "isOwnerOf", KEY, X1)),
                   root)
    trie.register(root, mid)
    leaf_pattern = extended(mid.pattern, A(bank_kb, "Account", X1))
    leaf = node_for(leaf_pattern, mid)
    trie.register(mid, leaf)
    assert refine_candidates(leaf, [bank_kb.predicate("Account")]) == []


def test_candidates_of_one_node_share_their_fresh_variables(bank_kb):
    """Each fresh variable of a node's candidates is one object, whether a
    dependent atom or a right-brother copy introduces it."""
    trie, root = fresh_trie(trivial_pattern("Client"))
    left = node_for(extended(root.pattern, A(bank_kb, "isOwnerOf", KEY, X1)),
                    root)
    right = node_for(extended(root.pattern, A(bank_kb, "relative", KEY, X1)),
                     root)
    trie.register(root, left)
    trie.register(root, right)
    atoms = refine_candidates(left, [bank_kb.predicate("isOwnerOf"),
                                     bank_kb.predicate("p_familyAccount")])
    fresh = {}
    for atom in atoms:
        for v in atom.variables():
            if v not in (KEY, X1):
                assert fresh.setdefault(v, v) is v, atom
    assert set(fresh) == {X2, m.Var("x3")}
    assert atoms[-1] == A(bank_kb, "relative", KEY, X2)


# -- semantic filter -------------------------------------------------------------

@pytest.fixture(scope="module")
def bank_ctx(bank_kb):
    return SemanticContext(bank_kb.without_abox())


def test_filter_unsatisfiable(bank_kb, bank_ctx):
    p = QuerySpec(KEY, (A(bank_kb, "Account", KEY),
                        A(bank_kb, "CreditCard", KEY)))
    assert semantic_filter(p, bank_ctx) == PRUNED_UNSAT


def test_filter_not_s_free(bank_kb, bank_ctx):
    p = QuerySpec(KEY, (A(bank_kb, "Account", KEY),
                        A(bank_kb, "isOwnerOf", X1, KEY),
                        A(bank_kb, "Client", X1)))
    assert semantic_filter(p, bank_ctx) == PRUNED_NOT_SFREE


def test_filter_reference_atom_exempt(bank_kb, bank_ctx):
    ctx = noted_ctx(bank_kb, trivial_pattern("Client"))
    p = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "isOwnerOf", KEY, X1)))
    assert semantic_filter(p, ctx) == ACCEPTED
    assert is_semantically_free(p, bank_ctx)


def test_filter_equivalent_against_trie(bank_kb, bank_ctx):
    root = trivial_pattern("Client")
    kept = extended(root, A(bank_kb, "relative", KEY, X1))
    ctx = noted_ctx(bank_kb, root, kept)
    p = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "relative", X1, KEY)))
    assert semantic_filter(p, ctx) == PRUNED_EQUIVALENT


REFLEXIVE = """
(concept C)
(role r)
(rule (head (r ?x ?x)) (body (r ?x ?y) (O ?x) (O ?y)))
(instance C a)
"""


def test_signature_keeps_only_key_positions():
    """Under r(x,x) :- r(x,y) the two patterns are equivalent, yet r has an
    argument without the key only in the first one's models; the signature
    must not tell them apart, or the scan would miss the duplicate."""
    kb = parse_kb(REFLEXIVE)
    ctx = SemanticContext(kb.without_abox())
    loose = QuerySpec(KEY, (A(kb, "C", KEY), A(kb, "r", KEY, X1)))
    tight = QuerySpec(KEY, (A(kb, "C", KEY), A(kb, "r", KEY, KEY)))
    assert ctx.equivalent(loose, tight)
    assert ctx.signature(loose) is not None
    assert ctx.signature(loose) == ctx.signature(tight)
    ctx.note(trivial_pattern("C"))
    ctx.note(loose)
    assert semantic_filter(tight, ctx) == PRUNED_EQUIVALENT


# -- support ----------------------------------------------------------------------

def support(kb, pattern):
    reference = pattern.body[0].pred
    return oracles.support(SupportEvaluator(chase_parts(kb), reference),
                           pattern)


def test_support_of_reference_query(bank_kb):
    assert support(bank_kb, trivial_pattern("Client")) == 1


def test_support_family_account(bank_kb):
    p = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "isOwnerOf", KEY, X1),
                        A(bank_kb, "p_familyAccount", X1, KEY, X2)))
    assert support(bank_kb, p) == Fraction(2, 3)


def test_support_credit_card(bank_kb):
    p = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                        A(bank_kb, "isOwnerOf", KEY, X1),
                        A(bank_kb, "CreditCard", X1)))
    assert support(bank_kb, p) == Fraction(1, 3)


def test_support_empty_reference_concept():
    kb = parse_kb("(concept Gold)\n(instance Account a)\n")
    with pytest.raises(EmptyReferenceConcept):
        support(kb, trivial_pattern("Gold"))


# -- mining ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sem_result(bank_kb):
    return mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))


@pytest.fixture(scope="module")
def nosem_result(bank_kb):
    return mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_NOSEM))


RESULT_FIXTURES = {MODE_SEM: "sem_result", MODE_NOSEM: "nosem_result"}


def test_example_frequent_set(bank_kb, bank_ctx, sem_result):
    x, y, z = m.Var("x"), m.Var("y"), m.Var("z")
    q_ref = QuerySpec(KEY, (A(bank_kb, "Client", KEY),))
    q1 = extended(q_ref, A(bank_kb, "isOwnerOf", KEY, x))
    q2 = extended(q1, A(bank_kb, "p_familyAccount", x, KEY, z))
    q3 = extended(q1, A(bank_kb, "isOwnerOf", KEY, y))
    q4 = extended(q1, A(bank_kb, "CreditCard", x))
    mined = [p for p, _ in sem_result.patterns]
    for wanted in (q_ref, q1, q2, q3):
        assert any(bank_ctx.equivalent(wanted, got) for got in mined)
    assert not any(bank_ctx.equivalent(q4, got) for got in mined)


def test_max_depth_one_returns_only_trivial_pattern(bank_kb):
    res = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 1, MODE_SEM))
    assert [(str(p), s) for p, s in res.patterns] == \
        [("Q(?key) :- Client(?key)", Fraction(1))]


def test_minsup_one_keeps_reference_pattern(bank_kb):
    res = mine(bank_kb, MiningConfig("Client", Fraction(1), 2, MODE_SEM))
    assert all(s == 1 for _, s in res.patterns)
    assert any(len(p.body) == 1 for p, _ in res.patterns)


@pytest.mark.parametrize("mode", [MODE_SEM, MODE_NOSEM])
def test_support_equal_to_minsup_is_frequent(bank_kb, mode):
    """Two of the three clients have a relative: the pattern is kept at
    minsup 2/3 and dropped at 67/100, just above its support."""
    relative = "Q(?key) :- Client(?key), relative(?key, ?x1)"
    for minsup, expected in ((Fraction(2, 3), [Fraction(2, 3)]),
                             (Fraction(67, 100), [])):
        res = mine(bank_kb, MiningConfig("Client", minsup, 2, mode))
        assert [s for p, s in res.patterns if str(p) == relative] == expected


def test_unknown_reference_concept(bank_kb):
    with pytest.raises(EmptyReferenceConcept):
        mine(bank_kb, MiningConfig("isOwnerOf", Fraction(1, 2), 2, MODE_SEM))


def test_counter_chain_every_depth(sem_result, nosem_result):
    for res in (sem_result, nosem_result):
        for counts in res.stats.per_depth.values():
            assert counts.gen >= counts.sat >= counts.sfree >= counts.cand \
                >= counts.freq


def test_counts_record_by_verdict():
    c = Counts()
    c.record(PRUNED_UNSAT, False)
    assert c.as_tuple() == (1, 0, 0, 0, 0)
    c.record(PRUNED_NOT_SFREE, False)
    assert c.as_tuple() == (2, 1, 0, 0, 0)
    c.record(PRUNED_EQUIVALENT, False)
    assert c.as_tuple() == (3, 2, 1, 0, 0)
    c.record(ACCEPTED, False)
    assert c.as_tuple() == (4, 3, 2, 1, 0)
    c.record(ACCEPTED, True)
    assert c.as_tuple() == (5, 4, 3, 2, 1)


# gen, sat, sfree, cand, freq at depths 1-3 on bank.kb, minsup 1/2.
BANK_COUNTERS = {
    MODE_SEM: [(1, 1, 1, 1, 1), (18, 18, 18, 17, 6), (499, 499, 454, 426, 97)],
    MODE_NOSEM: [(1, 1, 1, 1, 1), (18, 18, 18, 18, 7),
                 (541, 541, 541, 541, 189)],
}


@pytest.mark.parametrize("mode", BANK_COUNTERS)
def test_counters_by_depth(request, mode):
    per_depth = request.getfixturevalue(RESULT_FIXTURES[mode]).stats.per_depth
    assert [per_depth[d].as_tuple() for d in sorted(per_depth)] == \
        BANK_COUNTERS[mode]


def test_edge_supports_monotone(sem_result):
    for node in sem_result.trie.nodes():
        for child in node.children:
            assert child.support <= node.support


def test_no_two_retained_sem_patterns_equivalent(bank_kb, bank_ctx, sem_result):
    patterns = [p for p, _ in sem_result.patterns]
    for i, p in enumerate(patterns):
        for q in patterns[i + 1:]:
            assert not bank_ctx.equivalent(p, q), f"{p} == {q}"


def test_supports_share_one_object_per_answer_count(bank_kb, nosem_result):
    """Nodes with equal support hold one ``Fraction``: one per answer count
    up to the reference extension, plus the root's."""
    nodes = nosem_result.trie.nodes()
    evaluator = SupportEvaluator(chase_parts(bank_kb), "Client")
    assert len(nodes) > 4
    assert len({id(n.support) for n in nodes}) <= len(
        evaluator.reference_extension) + 1


def test_retained_sem_patterns_satisfiable_and_s_free(bank_ctx, sem_result):
    for p, _ in sem_result.patterns:
        assert bank_ctx.satisfiable(p)
        assert is_semantically_free(p, bank_ctx)


def test_retained_patterns_are_linked(sem_result, nosem_result):
    for res in (sem_result, nosem_result):
        for p, _ in res.patterns:
            assert oracles.is_connected(p)


def test_nosem_keeps_range_redundant_pattern(bank_kb, bank_ctx, nosem_result,
                                             sem_result):
    redundant = QuerySpec(KEY, (A(bank_kb, "Client", KEY),
                                A(bank_kb, "isOwnerOf", KEY, X1),
                                A(bank_kb, "Property", X1)))
    assert any(p.body == redundant.body for p, _ in nosem_result.patterns)
    assert not any(p.body == redundant.body for p, _ in sem_result.patterns)
    assert not is_semantically_free(redundant, bank_ctx)


def test_nosem_builds_no_semantic_context(monkeypatch, bank_kb):
    def refuse(*args):
        raise AssertionError("nosem built a SemanticContext")

    monkeypatch.setattr(miner, "SemanticContext", refuse)
    mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 2, MODE_NOSEM))


def test_sem_cheaper_than_nosem_per_depth(sem_result, nosem_result):
    for depth, nosem_counts in nosem_result.stats.per_depth.items():
        sem_counts = sem_result.stats.per_depth[depth]
        assert sem_counts.cand <= nosem_counts.cand
        assert sem_counts.freq <= nosem_counts.freq


def test_inverse_role_pair_collapses(bank_inverse_kb):
    ctx = SemanticContext(bank_inverse_kb.without_abox())
    res = mine(bank_inverse_kb, MiningConfig("Client", Fraction(1, 2), 2,
                                             MODE_SEM))
    wanted = QuerySpec(KEY, (A(bank_inverse_kb, "Client", KEY),
                             A(bank_inverse_kb, "isOwnerOf", KEY, X1)))
    reps = [p for p, _ in res.patterns
            if ctx.equivalent(p, wanted)]
    assert len(reps) == 1


def test_figure_bias_mining_snapshot(bank_kb):
    """Golden run with the narrow predicate selection: reference concept,
    both ownership orientations, kinship, mortgages, and one sex predicate,
    at a low threshold."""
    cfg = MiningConfig("Client", Fraction(1, 5), 3, MODE_SEM,
                       bias=("Client", "isOwnerOf", "relative",
                             "hasMortgage", "p_woman"))
    res = mine(bank_kb, cfg)
    assert res.stats.per_depth[2].as_tuple() == (7, 7, 7, 6, 3)
    assert res.stats.per_depth[3].as_tuple() == (29, 29, 25, 25, 7)
    depth2 = [(str(p), s) for p, s in res.patterns if len(p.body) == 2]
    assert depth2 == [
        ("Q(?key) :- Client(?key), isOwnerOf(?key, ?x1)", Fraction(1)),
        ("Q(?key) :- Client(?key), relative(?key, ?x1)", Fraction(2, 3)),
        ("Q(?key) :- Client(?key), p_woman(?key)", Fraction(1, 3)),
    ]
    assert len(res.patterns) == 11


def test_cp_keep_nondl_smoke(bank_kb):
    """Keeping the non-DL facts in the semantic-test KB changes nothing on
    this fixture (the frozen constants are disconnected from them), but the
    configuration must run end to end."""
    kept = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM,
                                      cp_keep_nondl=True))
    plain = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))
    assert [p.body for p, _ in kept.patterns] == \
        [p.body for p, _ in plain.patterns]


# -- random knowledge bases ----------------------------------------------------------

def test_random_kbs_mine_cleanly():
    for seed, kb in usable_kbs(6):
        for mode in (MODE_SEM, MODE_NOSEM):
            res = mine(kb, MiningConfig("C0", Fraction(2, 5), 3, mode))
            for counts in res.stats.per_depth.values():
                assert counts.gen >= counts.sat >= counts.sfree >= counts.cand \
                    >= counts.freq, f"seed {seed}"
            for node in res.trie.nodes():
                for child in node.children:
                    assert child.support <= node.support, f"seed {seed}"


def test_stats_rows_do_not_depend_on_the_mode():
    """Every depth up to the limit gets a row, also one that no candidate
    reaches: on this seed no sem node at depth 2 is frequent."""
    kb = random_kb(31)
    depths = {}
    for mode in (MODE_SEM, MODE_NOSEM):
        res = mine(kb, MiningConfig("C0", Fraction(2, 5), 3, mode))
        depths[mode] = list(res.stats.per_depth)
    assert depths[MODE_SEM] == depths[MODE_NOSEM] == [1, 2, 3]


def test_refinement_yields_distinct_atoms(monkeypatch, bank_kb,
                                          bank_inverse_kb):
    """The miner takes every atom ``refine_candidates`` returns, with no
    duplicate check of its own, so each expanded node must get pairwise
    distinct atoms."""
    expanded, duplicated = [], []

    def checked(node, bias):
        atoms = refine_candidates(node, bias)
        expanded.append(node)
        if len(set(atoms)) != len(atoms):
            duplicated.append(str(node.pattern))
        return atoms

    monkeypatch.setattr(miner, "refine_candidates", checked)
    runs = [(kb, "Client", Fraction(1, 2), mode)
            for kb in (bank_kb, bank_inverse_kb)
            for mode in (MODE_SEM, MODE_NOSEM)]
    runs += [(kb, "C0", Fraction(2, 5), mode)
             for _, kb in usable_kbs(20) + [(40, random_kb(40))]
             for mode in (MODE_SEM, MODE_NOSEM)]
    for kb, ref, minsup, mode in runs:
        before = len(expanded)
        mine(kb, MiningConfig(ref, minsup, 3, mode))
        assert len(expanded) > before
    assert duplicated == []


# -- equivalence-scan index ------------------------------------------------------------

def test_equivalence_scan_indexes_each_node_once(bank_kb):
    """The scan indexes every pattern noted since the previous scan, in the
    order noted, and no pattern twice."""
    asked = []

    def signature(pattern):
        asked.append(pattern)
        return None  # every noted pattern may be equivalent to every pattern

    root = trivial_pattern("Client")
    ctx = noted_ctx(bank_kb, root)
    ctx.signature = signature
    added = [root]
    for pred in ("Account", "CreditCard", "Gold"):
        pattern = extended(root, A(bank_kb, pred, KEY))
        ctx.note(pattern)
        added.append(pattern)
        assert ctx.equivalence_scan(root) == added
    # Each pattern once, then the scanned pattern itself, per scan.
    assert asked == [*added[:2], root, added[2], root, added[3], root]


def test_contexts_share_no_noted_patterns(bank_kb):
    """Each context scans only the patterns noted in it."""
    root = trivial_pattern("Client")
    first = noted_ctx(bank_kb, root)
    second = noted_ctx(bank_kb)
    assert first.equivalence_scan(root) == [root]
    assert second.equivalence_scan(root) == []
    second.note(extended(root, A(bank_kb, "Account", KEY)))
    assert first.equivalence_scan(root) == [root]


def test_sem_at_depth_one_takes_no_signature_and_no_frozen_chase(
        bank_kb, monkeypatch):
    """At depth 1 no candidate is scanned, so the noted root is never
    indexed: no signature is taken and no frozen query is chased."""
    asked = []
    signature, frozen_chase = (SemanticContext.signature,
                               SemanticContext._frozen_chase)

    def signature_spy(self, q):
        asked.append(("signature", q))
        return signature(self, q)

    def frozen_chase_spy(self, q, form):
        asked.append(("frozen chase", q))
        return frozen_chase(self, q, form)

    monkeypatch.setattr(SemanticContext, "signature", signature_spy)
    monkeypatch.setattr(SemanticContext, "_frozen_chase", frozen_chase_spy)
    res = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 1, MODE_SEM))
    assert len(res.patterns) == 1
    assert asked == []


def _outcome(res):
    """Trie shape, patterns, supports and per-depth counters of a run."""
    nodes = [(n.seq, n.parent.seq if n.parent else None, n.pattern.body,
              n.support) for n in res.trie.nodes()]
    return nodes, {d: c.as_tuple() for d, c in res.stats.per_depth.items()}


def _full_scan(kb, cfg, chase_cfg=ChaseConfig(), signatures=False,
               answer_key=False, verdicts=None):
    """Mine with every signature withheld, so each candidate is compared
    against every trie node its answers allow; with ``signatures``, only
    against those that share its signature.  Without ``answer_key`` every
    pattern is noted and scanned without answers, so no scan is keyed on
    them.  Each candidate's body, verdict and whether its scan was keyed
    on its answers are appended to ``verdicts``."""
    log = [] if verdicts is None else verdicts
    note = SemanticContext.note

    def recorded(pattern, ctx, answers=None):
        if not answer_key:
            answers = None
        verdict = semantic_filter(pattern, ctx, answers)
        log.append((pattern.body, verdict, answers is not None))
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        if not signatures:
            mp.setattr(SemanticContext, "signature", lambda self, q: None)
        if not answer_key:
            mp.setattr(SemanticContext, "note",
                       lambda self, q, answers=None: note(self, q))
        mp.setattr(miner, "semantic_filter", recorded)
        return mine(kb, cfg, chase_cfg)


def _answer_key_verdicts(kb, cfg, chase_cfg=ChaseConfig()):
    """The verdicts of a run with the answer key, checked against a run
    that scans without it: the same verdict for every candidate, and the
    same outcome."""
    keyed, plain = [], []
    res = _full_scan(kb, cfg, chase_cfg, signatures=True, answer_key=True,
                     verdicts=keyed)
    ref = _full_scan(kb, cfg, chase_cfg, signatures=True, verdicts=plain)
    assert [v[:2] for v in keyed] == [v[:2] for v in plain]
    assert _outcome(res) == _outcome(ref)
    return res, keyed


@pytest.mark.parametrize("cap", [3, 1, 0])
def test_answer_key_matches_scan_without_it_on_random_kbs(cap):
    """At the default skolem cap, and at caps where frozen chases are
    truncated far more often than parts."""
    keyed = []
    for text_of in (random_kb_text, random_eq_kb_text):
        for seed, kb in usable_kbs(12, text_of=text_of):
            cfg = MiningConfig("C0", Fraction(2, 5), 3, MODE_SEM)
            res, verdicts = _answer_key_verdicts(
                kb, cfg, ChaseConfig(skolem_depth_cap=cap))
            # Every scan is keyed, unless a part was truncated.
            assert all(k == (not res.stats.truncated_parts)
                       for _, v, k in verdicts
                       if v not in (PRUNED_UNSAT, PRUNED_NOT_SFREE)), seed
            keyed += verdicts
    # The key pruned duplicates and accepted candidates without a scan.
    assert {(v, k) for _, v, k in keyed} >= {(PRUNED_EQUIVALENT, True),
                                             (ACCEPTED, True)}


@pytest.mark.parametrize("kb_name", ["bank_kb", "bank_inverse_kb", "fan_out"])
def test_answer_key_matches_scan_without_it_on_bank(request, bank_path,
                                                    kb_name):
    if kb_name == "fan_out":
        kb = parse_kb(fan_out(open(bank_path, encoding="utf-8").read()))
    else:
        kb = request.getfixturevalue(kb_name)
    _, verdicts = _answer_key_verdicts(
        kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))
    assert (PRUNED_EQUIVALENT, True) in {(v, k) for _, v, k in verdicts}


CAPPED = """
(concept K)
(concept A)
(concept B)
(concept C)
(role r)
(subclass A (or B (some r C)))
(subclass B A)
(instance K a)
(instance A a)
(related r a c)
(instance C c)
(instance K b)
(instance B b)
(instance K d)
(instance A d)
"""


def test_truncated_full_chase_scans_without_the_answer_key():
    """At skolem depth 0 the existential disjunct is past the cap for d, so
    it counts as satisfied: part d is truncated, and no scan may use the
    key.  d answers K(key), A(key) but not K(key), B(key), which only b
    answers, as is certain: a's witness satisfies the disjunct, and d may
    satisfy it either way.  The truncated frozen chases claim no
    equivalence of the two, so K(key), B(key) is accepted, not pruned as a
    duplicate, and is infrequent."""
    kb = parse_kb(CAPPED)
    cfg = MiningConfig("K", Fraction(1, 2), 2, MODE_SEM)
    res, verdicts = _answer_key_verdicts(kb, cfg,
                                         ChaseConfig(skolem_depth_cap=0))
    assert res.stats.truncated_parts == 1
    assert not any(k for *_, k in verdicts)
    assert [str(p) for p, _ in res.patterns] == [
        "Q(?key) :- K(?key)", "Q(?key) :- K(?key), A(?key)"]
    assert {str(body[-1]): v for body, v, _ in verdicts}["B(?key)"] == ACCEPTED
    assert PRUNED_EQUIVALENT not in {v for _, v, _ in verdicts}


@pytest.mark.parametrize("first", ["A", "B"])
def test_truncated_frozen_chase_is_compared_under_the_answer_key(first):
    """With e in place of d no part is truncated, so the scans are keyed,
    but the frozen chase of K(key), A(key) still is, so it has no
    signature.  It claims no equivalence with K(key), B(key): a answers
    only the first, so each is kept, mined first or second, as without
    the key.  Under the key, an unsigned pattern is compared only with
    patterns that have its answers, whichever of the two is noted."""
    text = CAPPED.replace("(instance K d)\n(instance A d)\n",
                          "(instance K e)\n")
    if first == "B":
        text = text.replace("(concept A)\n(concept B)",
                            "(concept B)\n(concept A)")
    kb = parse_kb(text)
    cfg = MiningConfig("K", Fraction(1, 3), 2, MODE_SEM)
    capped = ChaseConfig(skolem_depth_cap=0)
    res, verdicts = _answer_key_verdicts(kb, cfg, capped)
    assert res.stats.truncated_parts == 0
    assert {(v, k) for _, v, k in verdicts} == {(ACCEPTED, True)}
    second = "B" if first == "A" else "A"
    assert [str(p) for p, _ in res.patterns] == [
        "Q(?key) :- K(?key)", f"Q(?key) :- K(?key), {first}(?key)",
        f"Q(?key) :- K(?key), {second}(?key)",
        "Q(?key) :- K(?key), r(?key, ?x1)"]
    ctx = SemanticContext(kb.without_abox(), capped)
    pattern = {c: QuerySpec(KEY, (A(kb, "K", KEY), A(kb, c, KEY)))
               for c in "AB"}
    answers = {"A": frozenset("ab"), "B": frozenset("b")}
    assert ctx.signature(pattern["A"]) is None
    assert ctx.signature(pattern["B"]) is not None
    ctx.note(pattern[first], answers[first])
    assert ctx.equivalence_scan(pattern[second], answers[second]) == []
    assert ctx.equivalence_scan(pattern[second], answers[first]) == [
        pattern[first]]


def test_truncated_frozen_chases_are_counted_and_reported(tmp_path, capsys):
    """On the KB above at skolem depth 0 no part is truncated, but the
    frozen chase of K(key), A(key) is: ``RunStats`` counts it, ``mine``
    prints a ``truncated:`` line for it, and ``stats.csv`` is as before."""
    text = CAPPED.replace("(instance K d)\n(instance A d)\n",
                          "(instance K e)\n")
    cfg = MiningConfig("K", Fraction(1, 3), 2, MODE_SEM)
    res = mine(parse_kb(text), cfg, ChaseConfig(skolem_depth_cap=0))
    assert res.stats.truncated_parts == 0
    assert res.stats.truncated_frozen > 0
    assert mine(parse_kb(text), cfg).stats.truncated_frozen == 0
    kb = tmp_path / "capped.kb"
    kb.write_text(text)
    args = ["mine", "--kb", str(kb), "--ref-concept", "K", "--minsup", "1/3",
            "--max-depth", "2", "--mode", "sem"]
    printed = {}
    for depth in (0, 3):
        out = tmp_path / f"skolem{depth}"
        assert main(args + ["--skolem-depth", str(depth),
                            "--out", str(out)]) == 0
        printed[depth] = [line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("truncated:")]
    assert printed == {0: [f"truncated: {res.stats.truncated_frozen} frozen "
                           f"query chases hit the skolem depth cap; semantic "
                           f"verdicts read from them may be inexact"], 3: []}
    assert (tmp_path / "skolem0" / "stats.csv").read_text().splitlines() == [
        "depth,gen,sat,sfree,cand,freq"] + [
        ",".join(map(str, (depth, *counts.as_tuple())))
        for depth, counts in sorted(res.stats.per_depth.items())]


GUARD = """
(concept A)
(concept C)
(role r)
(subclass A (or (some r A) C))
(disjoint A C)
(instance A a)
(related r a a)
"""


def test_answers_witness_satisfiability_with_existential_disjuncts(
        monkeypatch, bank_kb):
    """r(a, a) settles a's disjunction, so no part is truncated and the
    scans are keyed.  A frozen chase of A(key) without an r-loop runs the
    chain of A's existential disjunct to the depth cap, where the disjunct
    counts as satisfied, so it stays consistent: A(key), r(key, x1), which
    a answers, is satisfiable with or without the key, as an endless
    r-chain of As is a model.  So the answers spare the searches here, as
    they spare some on bank.kb."""
    kb = parse_kb(GUARD)
    cfg = MiningConfig("A", Fraction(1, 2), 2, MODE_SEM)
    res, verdicts = _answer_key_verdicts(kb, cfg)
    assert res.stats.truncated_parts == 0
    assert res.stats.at(2).as_tuple() == (2, 2, 2, 2, 2)
    assert [(v, k) for _, v, k in verdicts] == [(ACCEPTED, True)] * 2
    satisfiable = SemanticContext.satisfiable
    searched = []
    monkeypatch.setattr(SemanticContext, "satisfiable", lambda self, q: (
        searched.append(q) or satisfiable(self, q)))
    assert _outcome(mine(kb, cfg)) == _outcome(res)
    assert searched == []
    res = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))
    tested = sum(c.gen for d, c in res.stats.per_depth.items() if d > 1)
    assert 0 < len(searched) < tested


def test_noted_answers_are_one_object_per_value(bank_kb):
    """After a sem run at depth 4 on the benchmark's family bias, the
    context keeps each frequent pattern with its answers, and equal answer
    sets are one object."""
    bias = ("Client", "Account", "CreditCard", "Property", "isOwnerOf",
            "relative", "p_familyAccount", "p_man", "p_woman")
    run = miner._Miner(bank_kb, MiningConfig(
        "Client", Fraction(1, 2), 4, MODE_SEM, bias), ChaseConfig())
    res = run.run()
    noted = [answers for _, answers in run.ctx._noted]
    assert len(noted) == len(res.patterns) == 388
    assert len({id(a) for a in noted}) == len(set(noted)) == 2


def test_signature_index_matches_full_scan_on_random_kbs(monkeypatch):
    signature = SemanticContext.signature
    unsigned = []

    def spy(self, q):
        sig = signature(self, q)
        if sig is None:
            unsigned.append(q)
        return sig

    monkeypatch.setattr(SemanticContext, "signature", spy)
    for seed, kb in usable_kbs(20) + [(40, random_kb(40))]:
        cfg = MiningConfig("C0", Fraction(2, 5), 3, MODE_SEM)
        assert _outcome(mine(kb, cfg)) == _outcome(_full_scan(kb, cfg)), \
            f"seed {seed}"
    # Truncated frozen chases occur on these seeds: the fallback ran.
    assert unsigned


@pytest.mark.parametrize("mode", [MODE_SEM])
@pytest.mark.parametrize("kb_name", ["bank_kb", "bank_inverse_kb"])
def test_signature_index_matches_full_scan_on_bank(request, kb_name, mode):
    kb = request.getfixturevalue(kb_name)
    cfg = MiningConfig("Client", Fraction(1, 2), 3, mode)
    assert _outcome(mine(kb, cfg)) == _outcome(_full_scan(kb, cfg))


@pytest.mark.parametrize("kb_name", ["bank_kb", "bank_inverse_kb"])
def test_containment_matches_answer_query(monkeypatch, request, kb_name):
    """Each containment test of a sem run asks whether the frozen key is a
    certain answer; the reference is whether it is among all of them."""
    contains = SemanticContext._contains
    calls = []

    def spy(self, q1, q2, form2):
        result = contains(self, q1, q2, form2)
        calls.append((self, q1, q2, form2, result))
        return result

    monkeypatch.setattr(SemanticContext, "_contains", spy)
    mine(request.getfixturevalue(kb_name),
         MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM))
    assert {result for *_, result in calls} == {True, False}
    for ctx, q1, q2, form2, result in calls:
        ms, _ = ctx._frozen_chase(q2, form2)
        assert result == ("$q0" in answer_query(ms, q1)), f"{q1} >= {q2}"


def test_mining_twice_in_one_process_is_identical(bank_kb):
    """Neither the context's memo and scan index, which each run builds
    afresh, nor the process-wide canonical-form cache may carry state from
    one run into the next."""
    cfg = MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM)
    assert _outcome(mine(bank_kb, cfg)) == _outcome(mine(bank_kb, cfg))
