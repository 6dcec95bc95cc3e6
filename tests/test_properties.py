"""Property tests over drawn inputs.  Every test runs derandomized, so a
run draws the same examples each time and tier-1 stays reproducible."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ontominer.kbparse import parse_kb, serialize_kb

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
