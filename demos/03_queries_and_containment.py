"""Conjunctive DL-safe queries: answers, satisfiability, and containment.

Queries bind variables to named individuals only: those the chase used,
which the model set carries.  Answering happens against the full KB; the
semantic decision procedures (is this query satisfiable at all? does one
query contain another?) run against the intensional part alone, by
freezing the query variables to fresh named constants and chasing.
"""

from pathlib import Path

from ontominer import (SemanticContext, answer_query, chase, clausify,
                       load_kb)
from ontominer.miner import KEY
from ontominer.model import CONCEPT, Var
from ontominer.reasoner import QuerySpec

here = Path(__file__).parent
kb = load_kb(str(here / "bank.kb"))
models = chase(clausify(kb), kb.abox)
x, y = Var("x"), Var("y")


def atom(pred, *terms):
    from ontominer.model import Atom, Const
    return Atom(pred, tuple(t if isinstance(t, Var) else Const(t)
                            for t in terms), kb.predicate(pred).kind)


queries = {
    "clients": QuerySpec(KEY, (atom("Client", KEY),)),
    "clients owning something": QuerySpec(
        KEY, (atom("Client", KEY), atom("isOwnerOf", KEY, x))),
    "co-owners with a relative": QuerySpec(
        KEY, (atom("Client", KEY), atom("isOwnerOf", KEY, x),
              atom("p_familyAccount", x, KEY, y))),
    "credit-card owners": QuerySpec(
        KEY, (atom("Client", KEY), atom("isOwnerOf", KEY, x),
              atom("CreditCard", x))),
}
for label, q in queries.items():
    answers = sorted(answer_query(models, q))
    print(f"{label:28s} -> {answers}")

ctx = SemanticContext(kb.without_abox())
print()

# Disjointness makes some queries dead on arrival.
dead = QuerySpec(KEY, (atom("Account", KEY), atom("CreditCard", KEY)))
print("Account+CreditCard satisfiable:", ctx.satisfiable(dead))

# Containment: every answer of the longer query is an answer of the
# shorter one, never the other way around.
broad, narrow = queries["clients"], queries["clients owning something"]
print("clients contains owners:", ctx.subsumes(broad, narrow))
print("owners contains clients:", ctx.subsumes(narrow, broad))

# The symmetric role makes both orientations of 'relative' the same query.
qa = QuerySpec(KEY, (atom("Client", KEY), atom("relative", KEY, x)))
qb = QuerySpec(KEY, (atom("Client", KEY), atom("relative", x, KEY)))
print("relative either way equivalent:", ctx.equivalent(qa, qb))

# Entailed concept subsumptions, including one that needs the existential
# witness: accounts have owners, and owned things are properties.  A is
# below B iff the query B(key) contains the query A(key).  ``subsumes``
# raises InconsistentKB on an unsatisfiable concept, so those are skipped.
concepts = sorted(p.name for p in kb.predicates.values() if p.kind == CONCEPT)
named = {c: QuerySpec(KEY, (atom(c, KEY),)) for c in concepts}
print("\nconcept subsumptions:")
for a in concepts:
    if not ctx.satisfiable(named[a]):
        continue
    above = [b for b in concepts
             if b != a and ctx.subsumes(named[b], named[a])]
    if above:
        print(f"  {a} below {', '.join(above)}")
