"""Property tests over drawn inputs.  Every test runs derandomized, so a
run draws the same examples each time and tier-1 stays reproducible."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_minimal_models
from ontominer import model as m
from ontominer.clausify import GroundProgram, ProgramRule
from ontominer.kbparse import parse_kb, serialize_kb
from ontominer.miner import KEY
from ontominer.reasoner import QuerySpec, canonical_query, chase

REPRODUCIBLE = settings(derandomize=True, deadline=None, database=None,
                        max_examples=200)


@st.composite
def kb_texts(draw):
    """KB text built from the constructs ``genkb.random_kb_text`` emits:
    declarations first, in any order, then any mix of axioms, rules and
    facts over the declared names."""
    concepts = [f"C{i}" for i in range(draw(st.integers(1, 4)))]
    roles = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    nondl = [f"p{i}" for i in range(draw(st.integers(0, 2)))]
    c, r = st.sampled_from(concepts), st.sampled_from(roles)
    ind = st.sampled_from([f"i{k}" for k in range(8)])
    forms = [
        st.builds("(subclass {} {})".format, c, c),
        st.builds("(range {} (or {} {}))".format, r, c, c),
        st.builds("(range {} {})".format, r, c),
        st.builds("(domain {} {})".format, r, c),
        st.builds("(disjoint {} {})".format, c, c),
        st.builds("(symmetric {})".format, r),
        st.builds("(subrole {} {})".format, r, r),
        st.builds("(subclass {} (some {} {}))".format, c, r, c),
        st.builds("(instance {} {})".format, c, ind),
        st.builds("(related {} {} {})".format, r, ind, ind),
    ]
    if nondl:
        p = st.sampled_from(nondl)
        forms += [
            st.builds("(rule (head ({} ?x)) "
                      "(body ({} ?x) ({} ?x ?y) (O ?x) (O ?y)))".format,
                      p, c, r),
            st.builds("(fact {} {})".format, p, ind),
        ]
    declarations = ([f"(concept {n})" for n in concepts]
                    + [f"(role {n})" for n in roles]
                    + [f"(nondl {n} 1)" for n in nondl])
    lines = (draw(st.permutations(declarations))
             + draw(st.lists(st.one_of(forms), max_size=20)))
    return "\n".join(lines) + "\n"


@REPRODUCIBLE
@given(kb_texts())
def test_serialize_parse_round_trip(text):
    kb = parse_kb(text)
    assert parse_kb(serialize_kb(kb)) == kb


@st.composite
def programs(draw):
    """An existential-free program drawn like ``genkb.random_program``:
    disjunctive, Horn and constraint rules over three unary predicates
    and, with at most two constants, a binary one, plus ground facts.  The Herbrand base has at most ten atoms, so subset enumeration
    over it stays cheap."""
    consts = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    unary = [m.Predicate(f"u{i}", 1, m.NONDL) for i in range(3)]
    binary = ([m.Predicate("b0", 2, m.NONDL)]
              if len(consts) <= 2 and draw(st.booleans()) else [])
    x, y = m.Var("x"), m.Var("y")
    u = st.sampled_from(unary)
    two = st.lists(u, min_size=2, max_size=2, unique=True)

    def atom(pred, *args):
        return m.Atom(pred.name, args, m.NONDL)

    # The body of a rule about x, u(x) or b0(x, y), under heads about x
    # whose predicates differ from the body's.
    def about_x(heads):
        return st.sampled_from(
            [(atom(p, x),) for p in unary if p not in heads]
            + ([(atom(binary[0], x, y),)] if binary else [])
        ).map(lambda body: ([atom(p, x) for p in heads], body))

    disjunctive = two.flatmap(about_x)
    horn = [u.flatmap(lambda h: about_x([h]))]
    if binary:
        horn += [st.just(([atom(binary[0], y, x)], [atom(binary[0], x, y)])),
                 st.builds(lambda h: ([atom(h, y)], [atom(binary[0], x, y)]),
                           u)]
    constraint = two.map(lambda ps: ([], [atom(p, x) for p in ps]))
    rules = (draw(st.lists(disjunctive, min_size=1, max_size=2))
             + draw(st.lists(st.one_of(horn), max_size=3))
             + draw(st.lists(constraint, max_size=1)))
    # One or two unary facts about each constant, and some b0 edges.
    facts = [atom(p, m.Const(n)) for n in consts
             for p in draw(st.lists(u, min_size=1, max_size=2, unique=True))]
    if binary:
        c = st.sampled_from([m.Const(n) for n in consts])
        facts += draw(st.lists(st.builds(lambda a, b: atom(binary[0], a, b),
                                         c, c), max_size=2, unique=True))
    program = GroundProgram(
        tuple(ProgramRule(f"r{i}", tuple(head), tuple(body))
              for i, (head, body) in enumerate(rules)),
        frozenset(consts), {p.name: p for p in unary + binary})
    return program, sorted(facts, key=str)


@REPRODUCIBLE
@given(programs())
def test_chase_finds_the_minimal_models(drawn):
    program, facts = drawn
    ms = chase(program, facts)
    expected, inconsistent = brute_force_minimal_models(program, facts)
    assert ms.inconsistent == inconsistent
    assert set(ms.models) == set(expected)


@st.composite
def queries(draw):
    """A query over the key and up to nine other variables, each of which
    occurs: atoms of two unary, two binary and one ternary predicate over
    those variables and one constant, plus a seeded ``random.Random``."""
    variables = [m.Var(f"x{i}") for i in range(draw(st.sampled_from(
        range(10))))]
    terms = [KEY, m.Const("a")] + variables
    term = st.sampled_from(terms)
    shape = st.sampled_from([("A", 1), ("B", 1), ("r", 2), ("s", 2),
                             ("t", 3)])

    def atoms_with(first):
        """Atoms of a drawn shape whose first argument is ``first``."""
        return shape.flatmap(lambda pa: st.builds(
            lambda rest: m.Atom(pa[0], (first,) + tuple(rest), m.NONDL),
            st.lists(term, min_size=pa[1] - 1, max_size=pa[1] - 1)))

    # One atom per variable, so every drawn variable occurs, then extra ones.
    atoms = [draw(atoms_with(v)) for v in variables]
    atoms += draw(st.lists(term.flatmap(atoms_with), max_size=4))
    return QuerySpec(KEY, tuple(atoms)), draw(st.randoms(use_true_random=False))


@REPRODUCIBLE
@given(queries())
def test_canonical_form_ignores_names_and_atom_order(drawn):
    q, rng = drawn
    variables = [v for v in q.variables() if v != q.key]
    names = [f"y{i}" for i in range(len(variables))]
    rng.shuffle(names)
    renaming = {v: m.Var(n) for v, n in zip(variables, names)}
    body = [a.substitute(renaming) for a in q.body]
    rng.shuffle(body)
    assert canonical_query(QuerySpec(q.key, tuple(body))) == canonical_query(q)
