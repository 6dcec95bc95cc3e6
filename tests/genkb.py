"""Seeded generators of small random knowledge bases and rule programs.

Everything here is deterministic in the seed, so test failures reproduce.
``random_kb`` may return None when the drawn KB is inconsistent or its
reference concept ends up empty; callers walk the seed sequence until they
have collected as many usable KBs as they need.
"""

from __future__ import annotations

import random
from typing import Optional

from ontominer import clausify, parse_kb
from ontominer import model as m
from ontominer.clausify import GroundProgram, ProgramRule
from ontominer.reasoner import ChaseConfig, chase


def random_kb_text(seed: int) -> str:
    rng = random.Random(seed)
    n_concepts = rng.randint(2, 3)
    n_roles = rng.randint(1, 2)
    n_nondl = rng.randint(0, 1)
    concepts = [f"C{i}" for i in range(n_concepts)]
    roles = [f"r{i}" for i in range(n_roles)]
    nondl = [f"p{i}" for i in range(n_nondl)]
    individuals = [f"i{k}" for k in range(rng.randint(4, 8))]

    lines = [f"(concept {c})" for c in concepts]
    lines += [f"(role {r})" for r in roles]
    lines += [f"(nondl {p} 1)" for p in nondl]

    if rng.random() < 0.7 and n_concepts >= 2:
        a, b = rng.sample(concepts, 2)
        lines.append(f"(subclass {a} {b})")
    if rng.random() < 0.6:
        r = rng.choice(roles)
        if rng.random() < 0.4 and n_concepts >= 2:
            a, b = rng.sample(concepts, 2)
            lines.append(f"(range {r} (or {a} {b}))")
        else:
            lines.append(f"(range {r} {rng.choice(concepts)})")
    if rng.random() < 0.5:
        lines.append(f"(domain {rng.choice(roles)} {rng.choice(concepts)})")
    if rng.random() < 0.4 and n_concepts >= 2:
        a, b = rng.sample(concepts, 2)
        lines.append(f"(disjoint {a} {b})")
    if rng.random() < 0.4:
        lines.append(f"(symmetric {rng.choice(roles)})")
    if n_roles == 2 and rng.random() < 0.4:
        lines.append(f"(subrole {roles[0]} {roles[1]})")
    if rng.random() < 0.3:
        a, b = rng.choice(concepts), rng.choice(concepts)
        r = rng.choice(roles)
        lines.append(f"(subclass {a} (some {r} {b}))")
    if nondl and rng.random() < 0.6:
        c = rng.choice(concepts)
        r = rng.choice(roles)
        lines.append(f"(rule (head ({nondl[0]} ?x)) "
                     f"(body ({c} ?x) ({r} ?x ?y) (O ?x) (O ?y)))")

    for k in range(rng.randint(2, 3)):
        lines.append(f"(instance C0 {individuals[k % len(individuals)]})")
    for _ in range(rng.randint(2, 4)):
        c = rng.choice(concepts)
        lines.append(f"(instance {c} {rng.choice(individuals)})")
    for _ in range(rng.randint(3, 7)):
        r = rng.choice(roles)
        a, b = rng.choice(individuals), rng.choice(individuals)
        lines.append(f"(related {r} {a} {b})")
    if nondl and rng.random() < 0.5:
        lines.append(f"(fact {nondl[0]} {rng.choice(individuals)})")
    return "\n".join(lines) + "\n"


def random_eq_kb_text(seed: int) -> str:
    """``random_kb_text(seed)`` plus a functional or inverse-functional
    axiom on one of its roles and, sometimes, a transitive axiom, so that
    the program carries the equality rules.  The extra axioms are drawn
    from their own stream, which leaves ``random_kb_text`` as it was."""
    text = random_kb_text(seed)
    rng = random.Random(f"eq-{seed}")
    roles = [line[len("(role "):-1] for line in text.splitlines()
             if line.startswith("(role ")]
    r = rng.choice(roles)
    extra = [f"(functional {r})" if rng.random() < 0.5
             else f"(functional (inv {r}))"]
    if rng.random() < 0.3:
        extra.append(f"(transitive {rng.choice(roles)})")
    return text + "\n".join(extra) + "\n"


def _declared(text: str, kind: str) -> list[str]:
    return [line[len(kind) + 2:-1] for line in text.splitlines()
            if line.startswith(f"({kind} ")]


def random_inert_kb_text(seed: int) -> str:
    """``random_kb_text(seed)`` plus an inert disjunction, drawn from its
    own stream: a user rule over fresh non-DL predicates ``q0 | q1`` on one
    concept's instances or on a role's two ends (whose instances can share
    a disjunct), or ``(some r Thing) ⊑ D0 ⊔ D1`` over fresh concepts, whose
    body-only variable can hold a skolem constant."""
    text = random_kb_text(seed)
    rng = random.Random(f"inert-{seed}")
    concepts, roles = _declared(text, "concept"), _declared(text, "role")
    individuals = sorted({w.rstrip(")") for line in text.splitlines()
                          if line.startswith(_ABOX_HEADS)
                          for w in line.split()[2:]})
    r, c = rng.choice(roles), rng.choice(concepts)
    shape = rng.randrange(3)
    if shape == 2:
        extra = ["(concept D0)", "(concept D1)",
                 f"(subclass (some {r} Thing) (or D0 D1))"]
        if rng.random() < 0.5:
            extra.append(f"(subclass {c} (some {r} Thing))")
    else:
        head = "(q0 ?x) (q1 ?x)" if shape == 0 else "(q0 ?x) (q1 ?y)"
        body = (f"({c} ?x) (O ?x)" if shape == 0
                else f"({r} ?x ?y) (O ?x) (O ?y)")
        extra = ["(nondl q0 1)", "(nondl q1 1)",
                 f"(rule (head {head}) (body {body}))"]
    for _ in range(rng.randint(0, 2)):
        extra.append(f"(related {r} {rng.choice(individuals)} "
                     f"{rng.choice(individuals)})")
    return text + "\n".join(extra) + "\n"


def random_inert_eq_kb_text(seed: int) -> str:
    """``random_inert_kb_text(seed)`` with a functional or inverse
    functional role, so that merges can copy an inert choice onto an equal
    constant."""
    text = random_inert_kb_text(seed)
    rng = random.Random(f"inert-eq-{seed}")
    r = rng.choice(_declared(text, "role"))
    return text + (f"(functional {r})" if rng.random() < 0.5
                   else f"(functional (inv {r}))") + "\n"


def random_regrow_kb_text(seed: int) -> str:
    """``random_kb_text(seed)`` plus ``G0 ⊑ G1 ⊔ G2`` and ``G1 ⊑ ∀r.G0``
    over fresh concepts, and a G0 instance at the start of an ``r`` chain:
    the G1 child of a split gains G0 at the next link, a new open instance
    of the rule it split on."""
    text = random_kb_text(seed)
    rng = random.Random(f"regrow-{seed}")
    r = rng.choice(_declared(text, "role"))
    chain = [f"g{k}" for k in range(rng.randint(2, 4))]
    extra = [f"(concept G{k})" for k in range(3)]
    extra += ["(subclass G0 (or G1 G2))", f"(subclass G1 (all {r} G0))",
              f"(instance G0 {chain[0]})"]
    extra += [f"(related {r} {a} {b})" for a, b in zip(chain, chain[1:])]
    if rng.random() < 0.5:
        extra.append(f"(instance C0 {chain[-1]})")
    return text + "\n".join(extra) + "\n"


_ABOX_HEADS = ("(fact ", "(related ", "(instance ")


def disjoint_copies(text: str, k: int) -> str:
    """The KB's terminology and rules once, then ``k`` copies of its ABox;
    copy ``j`` renames every individual ``a`` to ``a_j``.  The copies share
    no individual, so the single chase has the base model count to the
    power ``k`` while every support ratio stays the base KB's."""
    kept, abox = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith(_ABOX_HEADS):
            kept.append(line)
        elif "(" in line[1:]:
            raise ValueError(f"cannot copy a nested fact: {line}")
        else:
            abox.append(line[1:-1].split())
    for j in range(k):
        kept += [f"({' '.join(f[:2] + [f'{a}_{j}' for a in f[2:]])})"
                 for f in abox]
    return "\n".join(kept) + "\n"


def fan_out(text: str, clients: int = 3, items: int = 30) -> str:
    """The KB's terminology and rules with a new ABox: clients ``c0``..
    in a ``relative`` ring, each owning ``items`` items that are
    alternately an ``Account`` and a ``CreditCard``.  For ``bank.kb`` every
    client's patterns fan out over its items."""
    kept = [line.strip() for line in text.splitlines()
            if not line.strip().startswith(_ABOX_HEADS)]
    for c in range(clients):
        kept.append(f"(related relative c{c} c{(c + 1) % clients})")
        for i in range(items):
            kept.append(f"(related isOwnerOf c{c} c{c}_i{i})")
            kept.append(f"(instance {('Account', 'CreditCard')[i % 2]} "
                        f"c{c}_i{i})")
    return "\n".join(kept) + "\n"


def random_kb(seed: int, cfg: ChaseConfig = ChaseConfig(),
              text_of=random_kb_text) -> Optional[m.CombinedKB]:
    """A consistent random KB, drawn by ``text_of``, whose concept C0 has
    cautious instances, or None when this seed draws an unusable one."""
    kb = parse_kb(text_of(seed))
    ms = chase(clausify(kb), kb.abox, cfg)
    if ms.inconsistent:
        return None
    c0 = ("C0",)
    if not any(all(c0 + (i,) in model for model in ms.models)
               for i in kb.individuals):
        return None
    return kb


def usable_kbs(count: int, start_seed: int = 0,
               text_of=random_kb_text) -> list[tuple[int, m.CombinedKB]]:
    out = []
    seed = start_seed
    while len(out) < count:
        kb = random_kb(seed, text_of=text_of)
        if kb is not None:
            out.append((seed, kb))
        seed += 1
    return out


# ---------------------------------------------------------------------------
# Random existential-free programs (for the minimal-model comparison)
# ---------------------------------------------------------------------------

def random_program(seed: int) -> tuple[GroundProgram, list[m.Atom]]:
    """A small positive program without existentials, with at most two
    disjunctive rules, plus ground facts.  The Herbrand base stays small so
    subset enumeration over it is feasible."""
    rng = random.Random(seed)
    n_consts = rng.randint(2, 5)
    consts = [f"c{i}" for i in range(n_consts)]
    n_unary = rng.randint(2, 3)
    unary = [m.Predicate(f"u{i}", 1, m.NONDL) for i in range(n_unary)]
    binary = []
    if n_consts <= 3 and rng.random() < 0.6:
        binary = [m.Predicate("b0", 2, m.NONDL)]
    preds = unary + binary

    x, y = m.Var("x"), m.Var("y")

    def uatom(p, t):
        return m.Atom(p.name, (t,), m.NONDL)

    def batom(p, t1, t2):
        return m.Atom(p.name, (t1, t2), m.NONDL)

    rules: list[ProgramRule] = []

    def emit(head, body):
        rules.append(ProgramRule(f"r{len(rules)}", tuple(head), tuple(body)))

    n_disj = rng.randint(1, 2)
    for _ in range(n_disj):
        h1, h2, b = rng.choice(unary), rng.choice(unary), rng.choice(unary)
        if h1 is h2 or b is h1:
            continue
        emit([uatom(h1, x), uatom(h2, x)], [uatom(b, x)])
    for _ in range(rng.randint(1, 2)):
        h, b = rng.sample(unary, 2)
        emit([uatom(h, x)], [uatom(b, x)])
    if binary:
        h = rng.choice(unary)
        emit([uatom(h, x)], [batom(binary[0], x, y)])
        if rng.random() < 0.5:
            emit([batom(binary[0], y, x)], [batom(binary[0], x, y)])
    if rng.random() < 0.4 and n_unary >= 3:
        a, b = rng.sample(unary, 2)
        emit([], [uatom(a, x), uatom(b, x)])

    facts: list[m.Atom] = []
    for _ in range(rng.randint(1, 3)):
        facts.append(uatom(rng.choice(unary), m.Const(rng.choice(consts))))
    if binary:
        for _ in range(rng.randint(1, 2)):
            facts.append(batom(binary[0], m.Const(rng.choice(consts)),
                               m.Const(rng.choice(consts))))
    facts = sorted(set(facts), key=str)
    program = GroundProgram(tuple(rules), frozenset(consts),
                            {p.name: p for p in preds})
    return program, facts


def random_eq_program(seed: int) -> tuple[GroundProgram, list[m.Atom]]:
    """A small existential-free program over the two constants ``c0`` and
    ``c1`` whose binary predicate ``b0`` is functional or inverse
    functional (``=(y, z) :- b0(x, y), b0(x, z)`` or its mirror), plus
    Horn, disjunctive and constraint rules over two or three unary
    predicates, and ground facts.  ``=`` is registered as a predicate, so
    subset enumeration covers it."""
    rng = random.Random(f"eqp-{seed}")
    consts = ["c0", "c1"]
    unary = [m.Predicate(f"u{i}", 1, m.NONDL)
             for i in range(rng.randint(2, 3))]
    b0 = m.Predicate("b0", 2, m.NONDL)
    x, y, z = m.Var("x"), m.Var("y"), m.Var("z")

    def u(p, t):
        return m.Atom(p.name, (t,), m.NONDL)

    def b(t1, t2):
        return m.Atom("b0", (t1, t2), m.NONDL)

    eq = m.Atom(m.EQ_PRED, (y, z), m.EQUALITY)
    rules = [([eq], [b(x, y), b(x, z)]) if rng.random() < 0.5
             else ([eq], [b(y, x), b(z, x)])]
    h, g = rng.sample(unary, 2)
    rules.append(([u(h, x)], [u(g, x)]))
    if rng.random() < 0.8:
        h1, h2 = rng.sample(unary, 2)
        rules.append(([u(h1, x), u(h2, x)], [b(x, y)]))
    if rng.random() < 0.5:
        rules.append(([u(rng.choice(unary), y)], [b(x, y)]))
    if rng.random() < 0.4:
        rules.append(([], [u(unary[0], x), u(unary[1], x)]))
    facts = {u(rng.choice(unary), m.Const(rng.choice(consts)))
             for _ in range(rng.randint(1, 2))}
    facts |= {b(m.Const(rng.choice(consts)), m.Const(rng.choice(consts)))
              for _ in range(rng.randint(1, 3))}
    program = GroundProgram(
        tuple(ProgramRule(f"r{i}", tuple(head), tuple(body))
              for i, (head, body) in enumerate(rules)),
        frozenset(consts),
        {p.name: p for p in unary + [b0, m.EQ_PREDICATE]})
    return program, sorted(facts, key=str)


def with_inert_rule(drawn: tuple[GroundProgram, list[m.Atom]], seed: int
                    ) -> tuple[GroundProgram, list[m.Atom]]:
    """The program of ``drawn`` plus an inert disjunctive rule, drawn from
    its own stream: fresh unary predicates ``v0 | v1`` over one variable of
    a body atom of a predicate the program has (not ``=``), or over both
    variables of a binary one."""
    program, facts = drawn
    rng = random.Random(f"inert-program-{seed}")
    x, y = m.Var("x"), m.Var("y")
    pred = rng.choice(sorted((p for p in program.predicates.values()
                              if p.name != m.EQ_PRED), key=lambda p: p.name))
    if pred.arity == 2:
        body = m.Atom(pred.name, (x, y), pred.kind)
        second = rng.choice((x, y))
    else:
        body, second = m.Atom(pred.name, (x,), pred.kind), x
    fresh = [m.Predicate(f"v{i}", 1, m.NONDL) for i in range(2)]
    rule = ProgramRule(f"r{len(program.rules)}", (
        m.Atom("v0", (x,), m.NONDL), m.Atom("v1", (second,), m.NONDL)),
        (body,))
    return GroundProgram(
        program.rules + (rule,), program.individuals,
        {**program.predicates, **{p.name: p for p in fresh}}), facts
