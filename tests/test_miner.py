from fractions import Fraction

import pytest

from genkb import random_kb, usable_kbs
from ontominer import model as m
from ontominer.errors import EmptyReferenceConcept
from ontominer.kbparse import parse_kb
from ontominer.miner import (ACCEPTED, KEY, MODE_NOSEM, MODE_SEM,
                             MODE_SEM_TAX, MiningConfig, Pattern,
                             PRUNED_EQUIVALENT, PRUNED_NOT_SFREE,
                             PRUNED_UNSAT, Trie, TrieNode, default_bias,
                             is_semantically_free, mine, refine_candidates,
                             refine_with_taxonomy, semantic_filter, support,
                             trivial_pattern)
from ontominer.reasoner import SemanticContext, classify

X1, X2 = m.Var("x1"), m.Var("x2")


def A(kb, pred, *terms):
    args = tuple(t if isinstance(t, m.Var) else m.Const(t) for t in terms)
    return m.Atom(pred, args, kb.predicate(pred).kind)


def node_for(pattern: Pattern, parent=None) -> TrieNode:
    return TrieNode(pattern.atoms[-1], pattern, Fraction(1),
                    len(pattern.atoms), parent)


def fresh_trie(pattern: Pattern) -> tuple[Trie, TrieNode]:
    root = node_for(pattern)
    return Trie(root), root


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
    pattern = root.pattern.with_atom(A(bank_kb, "isOwnerOf", KEY, X1))
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
    left = node_for(root.pattern.with_atom(A(bank_kb, "isOwnerOf", KEY, X1)), root)
    right = node_for(root.pattern.with_atom(A(bank_kb, "relative", KEY, X1)), root)
    trie.register(root, left)
    trie.register(root, right)
    atoms = refine_candidates(left, [])
    assert atoms == [A(bank_kb, "relative", KEY, X2)]


def test_leaf_without_new_variables_or_brothers(bank_kb):
    trie, root = fresh_trie(trivial_pattern("Client"))
    mid = node_for(root.pattern.with_atom(A(bank_kb, "isOwnerOf", KEY, X1)), root)
    trie.register(root, mid)
    leaf_pattern = mid.pattern.with_atom(A(bank_kb, "Account", X1))
    leaf = node_for(leaf_pattern, mid)
    trie.register(mid, leaf)
    assert refine_candidates(leaf, [bank_kb.predicate("Account")]) == []


# -- semantic filter -------------------------------------------------------------

@pytest.fixture(scope="module")
def bank_ctx(bank_kb):
    return SemanticContext(bank_kb.without_abox())


def test_filter_unsatisfiable(bank_kb, bank_ctx):
    trie, _ = fresh_trie(trivial_pattern("Account"))
    p = Pattern((A(bank_kb, "Account", KEY), A(bank_kb, "CreditCard", KEY)))
    assert semantic_filter(p, bank_ctx, trie) == PRUNED_UNSAT


def test_filter_not_s_free(bank_kb, bank_ctx):
    trie, _ = fresh_trie(trivial_pattern("Account"))
    p = Pattern((A(bank_kb, "Account", KEY), A(bank_kb, "isOwnerOf", X1, KEY),
                 A(bank_kb, "Client", X1)))
    assert semantic_filter(p, bank_ctx, trie) == PRUNED_NOT_SFREE


def test_filter_reference_atom_exempt(bank_kb, bank_ctx):
    trie, _ = fresh_trie(trivial_pattern("Client"))
    p = Pattern((A(bank_kb, "Client", KEY), A(bank_kb, "isOwnerOf", KEY, X1)))
    assert semantic_filter(p, bank_ctx, trie) == ACCEPTED
    assert is_semantically_free(p, bank_ctx)


def test_filter_equivalent_against_trie(bank_kb, bank_ctx):
    trie, root = fresh_trie(trivial_pattern("Client"))
    kept = node_for(root.pattern.with_atom(A(bank_kb, "relative", KEY, X1)), root)
    trie.register(root, kept)
    p = Pattern((A(bank_kb, "Client", KEY), A(bank_kb, "relative", X1, KEY)))
    assert semantic_filter(p, bank_ctx, trie) == PRUNED_EQUIVALENT


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
    loose = Pattern((A(kb, "C", KEY), A(kb, "r", KEY, X1)))
    tight = Pattern((A(kb, "C", KEY), A(kb, "r", KEY, KEY)))
    assert ctx.equivalent(loose.query(), tight.query())
    assert ctx.signature(loose.query()) is not None
    assert ctx.signature(loose.query()) == ctx.signature(tight.query())
    trie, root = fresh_trie(trivial_pattern("C"))
    trie.register(root, node_for(loose, root))
    assert semantic_filter(tight, ctx, trie) == PRUNED_EQUIVALENT


# -- support ----------------------------------------------------------------------

def test_support_of_reference_query(bank_kb):
    assert support(bank_kb, trivial_pattern("Client")) == 1


def test_support_family_account(bank_kb):
    p = Pattern((A(bank_kb, "Client", KEY), A(bank_kb, "isOwnerOf", KEY, X1),
                 A(bank_kb, "p_familyAccount", X1, KEY, X2)))
    assert support(bank_kb, p) == Fraction(2, 3)


def test_support_credit_card(bank_kb):
    p = Pattern((A(bank_kb, "Client", KEY), A(bank_kb, "isOwnerOf", KEY, X1),
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


def test_example_frequent_set(bank_kb, bank_ctx, sem_result):
    x, y, z = m.Var("x"), m.Var("y"), m.Var("z")
    q_ref = Pattern((A(bank_kb, "Client", KEY),))
    q1 = q_ref.with_atom(A(bank_kb, "isOwnerOf", KEY, x))
    q2 = q1.with_atom(A(bank_kb, "p_familyAccount", x, KEY, z))
    q3 = q1.with_atom(A(bank_kb, "isOwnerOf", KEY, y))
    q4 = q1.with_atom(A(bank_kb, "CreditCard", x))
    mined = [p.query() for p, _ in sem_result.patterns]
    for wanted in (q_ref, q1, q2, q3):
        assert any(bank_ctx.equivalent(wanted.query(), got) for got in mined)
    assert not any(bank_ctx.equivalent(q4.query(), got) for got in mined)


def test_max_depth_one_returns_only_trivial_pattern(bank_kb):
    res = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 1, MODE_SEM))
    assert [(str(p), s) for p, s in res.patterns] == \
        [("Q(?key) :- Client(?key)", Fraction(1))]


def test_minsup_one_keeps_reference_pattern(bank_kb):
    res = mine(bank_kb, MiningConfig("Client", Fraction(1), 2, MODE_SEM))
    assert all(s == 1 for _, s in res.patterns)
    assert any(len(p.atoms) == 1 for p, _ in res.patterns)


def test_unknown_reference_concept(bank_kb):
    with pytest.raises(EmptyReferenceConcept):
        mine(bank_kb, MiningConfig("isOwnerOf", Fraction(1, 2), 2, MODE_SEM))


def test_counter_chain_every_depth(sem_result, nosem_result):
    for res in (sem_result, nosem_result):
        for counts in res.stats.per_depth.values():
            assert counts.gen >= counts.sat >= counts.sfree >= counts.cand \
                >= counts.freq


def test_counters_depth_two(sem_result):
    assert sem_result.stats.per_depth[2].as_tuple() == (18, 18, 18, 17, 6)


def test_edge_supports_monotone(sem_result):
    for node in sem_result.trie.nodes():
        for child in node.children:
            assert child.support <= node.support


def test_expansion_counter_snapshots(sem_result):
    for node in sem_result.trie.nodes():
        c = node.expansion
        assert c.gen >= c.sat >= c.sfree >= c.cand >= c.freq
        assert c.freq == len(node.children)
    for depth, counts in sem_result.stats.per_depth.items():
        if depth == 1:
            continue
        parents = [n for n in sem_result.trie.nodes() if n.depth == depth - 1]
        assert counts.gen == sum(n.expansion.gen for n in parents)


def test_no_two_retained_sem_patterns_equivalent(bank_kb, bank_ctx, sem_result):
    patterns = [p for p, _ in sem_result.patterns]
    for i, p in enumerate(patterns):
        for q in patterns[i + 1:]:
            assert not bank_ctx.equivalent(p.query(), q.query()), \
                f"{p} == {q}"


def test_retained_sem_patterns_satisfiable_and_s_free(bank_ctx, sem_result):
    for p, _ in sem_result.patterns:
        assert bank_ctx.satisfiable(p.query())
        assert is_semantically_free(p, bank_ctx)


def test_retained_patterns_are_linked(sem_result, nosem_result):
    for res in (sem_result, nosem_result):
        for p, _ in res.patterns:
            assert m.is_linked(KEY, p.atoms)


def test_nosem_keeps_range_redundant_pattern(bank_kb, bank_ctx, nosem_result,
                                             sem_result):
    redundant = Pattern((A(bank_kb, "Client", KEY),
                         A(bank_kb, "isOwnerOf", KEY, X1),
                         A(bank_kb, "Property", X1)))
    assert any(p.atoms == redundant.atoms for p, _ in nosem_result.patterns)
    assert not any(p.atoms == redundant.atoms for p, _ in sem_result.patterns)
    assert not is_semantically_free(redundant, bank_ctx)


def test_sem_cheaper_than_nosem_per_depth(sem_result, nosem_result):
    for depth, nosem_counts in nosem_result.stats.per_depth.items():
        sem_counts = sem_result.stats.per_depth[depth]
        assert sem_counts.cand <= nosem_counts.cand
        assert sem_counts.freq <= nosem_counts.freq


def test_sem_tax_equals_sem_frequent_set(bank_kb, bank_ctx, sem_result):
    tax_result = mine(bank_kb, MiningConfig("Client", Fraction(1, 2), 3,
                                            MODE_SEM_TAX))
    sem_qs = [p.query() for p, _ in sem_result.patterns]
    tax_qs = [p.query() for p, _ in tax_result.patterns]
    for q in sem_qs:
        assert any(bank_ctx.equivalent(q, other) for other in tax_qs)
    for q in tax_qs:
        assert any(bank_ctx.equivalent(q, other) for other in sem_qs)


def test_inverse_role_pair_collapses(bank_inverse_kb):
    ctx = SemanticContext(bank_inverse_kb.without_abox())
    res = mine(bank_inverse_kb, MiningConfig("Client", Fraction(1, 2), 2,
                                             MODE_SEM))
    wanted = Pattern((A(bank_inverse_kb, "Client", KEY),
                      A(bank_inverse_kb, "isOwnerOf", KEY, X1)))
    reps = [p for p, _ in res.patterns
            if ctx.equivalent(p.query(), wanted.query())]
    assert len(reps) == 1


# -- taxonomy-guided refinement ----------------------------------------------------

VEHICLES = """
(concept Person)
(concept Vehicle)
(concept Car)
(concept Boat)
(role owns)
(subclass Car Vehicle)
(subclass Boat Vehicle)
(instance Person ann)
(instance Person bob)
(instance Person cleo)
(related owns ann v1)
(related owns bob v2)
(related owns cleo v3)
(instance Car v1)
(instance Car v2)
(instance Boat v3)
"""


def test_taxonomy_refinement_draws_roots_only():
    kb = parse_kb(VEHICLES)
    taxonomy = classify(kb)
    trie, root = fresh_trie(trivial_pattern("Person"))
    pattern = root.pattern.with_atom(A(kb, "owns", KEY, X1))
    node = node_for(pattern, root)
    trie.register(root, node)
    bias = [kb.predicates[n] for n in ("Person", "Vehicle", "Car", "Boat", "owns")]
    atoms = refine_with_taxonomy(node, taxonomy, bias)
    names = {a.pred for a in atoms if a.kind == m.CONCEPT}
    assert "Vehicle" in names and "Person" in names
    assert "Car" not in names and "Boat" not in names


def test_taxonomy_specializations_spawn_when_parent_frequent():
    kb = parse_kb(VEHICLES)
    res = mine(kb, MiningConfig("Person", Fraction(2, 3), 3, MODE_SEM_TAX))
    rendered = [str(p) for p, _ in res.patterns]
    assert "Q(?key) :- Person(?key), owns(?key, ?x1), Car(?x1)" in rendered
    # Boat(v3) covers one person out of three: infrequent, so generated but
    # not retained, and Vehicle itself is frequent.
    assert any("Vehicle(?x1)" in s for s in rendered)
    assert not any("Boat" in s for s in rendered)


def test_infrequent_parent_suppresses_specializations():
    # No person owns anything here, so Vehicle(x1) can never be reached;
    # with the ownership edges removed the concept atoms on key are the
    # only children, Vehicle(key) is infrequent, and Car(key) must not even
    # be generated.
    kb = parse_kb("""
(concept Person)
(concept Vehicle)
(concept Car)
(subclass Car Vehicle)
(instance Person ann)
(instance Person bob)
(instance Vehicle v1)
(instance Car v1)
""")
    res = mine(kb, MiningConfig("Person", Fraction(1, 2), 2, MODE_SEM_TAX))
    gen_total = sum(c.gen for c in res.stats.per_depth.values())
    res_sem = mine(kb, MiningConfig("Person", Fraction(1, 2), 2, MODE_SEM))
    gen_sem = sum(c.gen for c in res_sem.stats.per_depth.values())
    assert gen_total < gen_sem


def test_equivalent_concepts_do_not_loop_the_spawner():
    # Person and Human subsume each other; both must classify as roots with
    # no mutual specialization edge, and the taxonomy-guided search must
    # terminate with the same frequent set as the plain one.
    kb = parse_kb("""
(concept Person)
(concept Human)
(concept Adult)
(equivalent Person Human)
(subclass Adult Person)
(role knows)
(instance Person a)
(instance Human b)
(instance Adult c)
(related knows a b)
(related knows b c)
""")
    taxonomy = classify(kb)
    assert set(taxonomy.concept_roots()) == {"Human", "Person"}
    assert taxonomy.direct_subconcepts("Person") == ["Adult"]
    assert taxonomy.direct_subconcepts("Human") == ["Adult"]
    ctx = SemanticContext(kb.without_abox())
    sem = mine(kb, MiningConfig("Person", Fraction(1, 3), 3, MODE_SEM))
    tax = mine(kb, MiningConfig("Person", Fraction(1, 3), 3, MODE_SEM_TAX))
    sem_qs = [p.query() for p, _ in sem.patterns]
    tax_qs = [p.query() for p, _ in tax.patterns]
    assert all(any(ctx.equivalent(q, o) for o in tax_qs) for q in sem_qs)
    assert all(any(ctx.equivalent(q, o) for o in sem_qs) for q in tax_qs)


def test_flat_taxonomy_matches_plain_refinement(bank_kb):
    kb = parse_kb("(concept A)\n(concept B)\n(role r)\n"
                  "(instance A a)\n(instance B b)\n(related r a b)\n")
    taxonomy = classify(kb)
    _, root = fresh_trie(trivial_pattern("A"))
    bias = list(kb.predicates.values())
    assert refine_with_taxonomy(root, taxonomy, bias) == \
        refine_candidates(root, bias)


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
    depth2 = [(str(p), s) for p, s in res.patterns if len(p.atoms) == 2]
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
    assert [p.atoms for p, _ in kept.patterns] == \
        [p.atoms for p, _ in plain.patterns]


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


# -- equivalence-scan index ------------------------------------------------------------

def _outcome(res):
    """Trie shape, patterns, supports and per-depth counters of a run."""
    nodes = [(n.seq, n.parent.seq if n.parent else None, n.pattern.atoms,
              n.support) for n in res.trie.nodes()]
    return nodes, {d: c.as_tuple() for d, c in res.stats.per_depth.items()}


def _full_scan(kb, cfg):
    """Mine with every signature withheld, so each candidate is compared
    against every trie node."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SemanticContext, "signature", lambda self, q: None)
        return mine(kb, cfg)


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


@pytest.mark.parametrize("mode", [MODE_SEM, MODE_SEM_TAX])
@pytest.mark.parametrize("kb_name", ["bank_kb", "bank_inverse_kb"])
def test_signature_index_matches_full_scan_on_bank(request, kb_name, mode):
    kb = request.getfixturevalue(kb_name)
    cfg = MiningConfig("Client", Fraction(1, 2), 3, mode)
    assert _outcome(mine(kb, cfg)) == _outcome(_full_scan(kb, cfg))


def test_mining_twice_in_one_process_is_identical(bank_kb):
    """Neither the trie's scan index nor the process-wide canonical-form
    cache may carry state from one run into the next."""
    cfg = MiningConfig("Client", Fraction(1, 2), 3, MODE_SEM)
    assert _outcome(mine(bank_kb, cfg)) == _outcome(mine(bank_kb, cfg))
