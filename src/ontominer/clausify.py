"""Translation of a combined KB into a positive disjunctive rule program.

Clausification is one pass over the axioms.  Each concept inclusion is
rewritten until it has the normal form

    A1 and ... and An  subclass-of  D1 or ... or Dm

where each Ai is an atomic concept or an existential restriction with
atomic filler, and each Dj is an atomic concept, Nothing, or an existential
restriction with atomic filler; once normal it becomes a rule at once,
unless it is a tautology.  A value restriction on the right becomes a
clause whose body walks the role edge: ``all R.A`` turns into
``A(y) <- lhs(x), R(x, y)``.  Fresh auxiliary concepts (``aux_N``) name
nested subexpressions; they are conservative, so named-constant
consequences are unchanged.  Negation is accepted only on atomic concepts
outside quantifier scope; everything else raises UnsupportedAxiom rather
than being silently approximated.

The resulting program consists of rules whose heads are plain atoms or
existential markers (skolemized later by the chase), role-property rules
(a functional role gives ``=(y, z) :- R(x, y), R(x, z)``), and the user
rules made DL-safe.  A rule's ``origin`` is ``"inclusion"`` for a concept
inclusion, the role axiom for a role-property rule (``"functional
(inv r)"``) and ``"user rule"`` for a user rule.  A rule equal to an earlier
one up to variable renaming is dropped.  No equality axiom is emitted: the
chase closes each branch under ``=`` itself (see ``reasoner``).
Clausification is deterministic: the same KB yields the same rule sequence
with stable ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from . import model as m
from .errors import UnsupportedAxiom

# Virtual body predicate meaning "any constant of the active domain"; used
# only when an inclusion has Thing as its entire left-hand side.
TOP_PRED = "$top"


@dataclass(frozen=True)
class ExistsHead:
    """Head marker for an existential: some ``role`` successor of ``var``
    satisfying ``filler`` (None = Thing) must exist."""

    role: m.RoleExpr
    filler: Optional[str]
    var: m.Var

    def __str__(self) -> str:
        filler = self.filler if self.filler else "Thing"
        return f"exists[{self.role},{filler}]({self.var})"


HeadAtom = Union[m.Atom, ExistsHead]


def compile_atom(atom: m.Atom, varmap: dict[m.Var, int]) -> tuple:
    """``(pred, slots)`` with one slot per argument: ``("c", name)`` for a
    constant, ``("v", index)`` for a variable, numbered in order of first
    occurrence through ``varmap``."""
    slots = []
    for t in atom.args:
        if isinstance(t, m.Const):
            slots.append(("c", t.name))
        else:
            if t not in varmap:
                varmap[t] = len(varmap)
            slots.append(("v", varmap[t]))
    return (atom.pred, tuple(slots))


@dataclass(frozen=True)
class ProgramRule:
    rid: str
    head: tuple[HeadAtom, ...]
    body: tuple[m.Atom, ...]
    origin: str = ""

    @cached_property
    def compiled(self) -> tuple:
        """The rule up to variable renaming, as the chase matches it:
        ``(body, heads, nvars)``.  Body atoms are compiled by
        ``compile_atom``; a head is ``("atom", compiled atom)`` or
        ``("exists", role, inverse, filler, frontier variable index)``.
        Computed once per rule object; raises ValueError when a head
        variable (an existential frontier variable included, since it
        denotes the subject the witness hangs off) is missing from the
        body."""
        varmap: dict[m.Var, int] = {}
        body = tuple(compile_atom(a, varmap) for a in self.body)
        body_vars = len(varmap)
        heads = []
        for h in self.head:
            if isinstance(h, ExistsHead):
                if h.var not in varmap:
                    varmap[h.var] = len(varmap)
                heads.append(("exists", h.role.name, h.role.inverse, h.filler,
                              varmap[h.var]))
            else:
                heads.append(("atom", compile_atom(h, varmap)))
        if len(varmap) != body_vars:
            raise ValueError(f"rule {self.rid} is not range-restricted: "
                             f"head variables missing from the body")
        return body, tuple(heads), len(varmap)

    def is_horn(self) -> bool:
        return len(self.head) == 1 and isinstance(self.head[0], m.Atom)

    def is_constraint(self) -> bool:
        return not self.head

    def __str__(self) -> str:
        head = " | ".join(str(h) for h in self.head)
        body = ", ".join(str(b) for b in self.body)
        if not self.head:
            return f":- {body}."
        if not body:
            return f"{head}."
        return f"{head} :- {body}."


@dataclass(frozen=True)
class GroundProgram:
    rules: tuple[ProgramRule, ...]
    individuals: frozenset[str]
    predicates: dict[str, m.Predicate] = field(default_factory=dict)
    # The chase plan of ``rules`` (``reasoner``), made on first use; every
    # copy that ``dataclasses.replace`` makes shares this dict.
    plans: dict = field(default_factory=dict, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Normalization and rule emission
# ---------------------------------------------------------------------------

# A right-hand disjunct: ("atomic", var_index, name) or
# ("some", var_index, RoleExpr, filler-or-None).  Variable index 0 is the
# subject; positive indices are successor variables of value restrictions.
RhsDisjunct = tuple


def _check_negation_scope(c: m.ConceptExpr, under_quantifier: bool) -> None:
    if isinstance(c, m.Not):
        if under_quantifier:
            raise UnsupportedAxiom(
                "negated concepts under quantifiers are outside the fragment")
        return
    if isinstance(c, (m.And, m.Or)):
        _check_negation_scope(c.left, under_quantifier)
        _check_negation_scope(c.right, under_quantifier)
    elif isinstance(c, (m.Some, m.All)):
        _check_negation_scope(c.filler, True)


def _role_atom(role: m.RoleExpr, subj: m.Term, obj: m.Term) -> m.Atom:
    if role.inverse:
        return m.Atom(role.name, (obj, subj), m.ROLE)
    return m.Atom(role.name, (subj, obj), m.ROLE)


# The variables of the role-property rules.
_ROLE_VARS = (m.Var("x0"), m.Var("x1"), m.Var("x2"))


class _Normalizer:
    def __init__(self):
        self.aux_count = 0
        self.aux_predicates: dict[str, m.Predicate] = {}
        self.rules: list[ProgramRule] = []
        self.seen: set = set()

    def fresh_aux(self) -> str:
        name = f"aux_{self.aux_count}"
        self.aux_count += 1
        self.aux_predicates[name] = m.Predicate(name, 1, m.CONCEPT)
        return name

    def emit(self, head, body, origin: str) -> None:
        """Append the rule unless one equal up to variable renaming is
        already in the program."""
        rule = ProgramRule(f"r{len(self.rules)}", tuple(head), tuple(body),
                           origin)
        if rule.compiled not in self.seen:
            self.seen.add(rule.compiled)
            self.rules.append(rule)

    # -- main entry per concept inclusion ------------------------------------

    def add_gci(self, lhs: m.ConceptExpr, rhs: m.ConceptExpr) -> None:
        _check_negation_scope(lhs, False)
        _check_negation_scope(rhs, False)
        queue: list[tuple[list, list]] = [([lhs], [rhs])]
        while queue:
            left, right = queue.pop(0)
            queue[0:0] = self._step(left, right)

    def _step(self, left: list, right: list) -> list[tuple[list, list]]:
        """Rewrite one inclusion; emit its rule if it is normal, else
        return successors."""
        # Left side: a conjunction.
        concepts: list[str] = []
        exists: list[tuple[m.RoleExpr, Optional[str]]] = []
        work = list(left)
        while work:
            c = work.pop(0)
            if isinstance(c, m.Atomic):
                if c.name not in concepts:
                    concepts.append(c.name)
            elif isinstance(c, m.Top):
                pass
            elif isinstance(c, m.Bottom):
                return []  # trivially true
            elif isinstance(c, m.And):
                work[0:0] = [c.left, c.right]
            elif isinstance(c, m.Or):
                rest = work + self._conjuncts(concepts, exists)
                return [([c.left] + rest, list(right)),
                        ([c.right] + rest, list(right))]
            elif isinstance(c, m.Not):
                right = list(right) + [m.Atomic(c.name)]
            elif isinstance(c, m.Some):
                filler = c.filler
                if isinstance(filler, m.Top):
                    exists.append((c.role, None))
                elif isinstance(filler, m.Atomic):
                    exists.append((c.role, filler.name))
                elif isinstance(filler, m.Bottom):
                    return []  # some R.Nothing is empty: trivially true
                else:
                    aux = self.fresh_aux()
                    self.add_gci(filler, m.Atomic(aux))
                    exists.append((c.role, aux))
            elif isinstance(c, m.All):
                raise UnsupportedAxiom(
                    "value restriction on the left-hand side is outside the fragment")
            else:
                raise UnsupportedAxiom(f"unsupported concept {c}")

        # Right side: a disjunction, possibly behind value restrictions.
        succ_roles: list[m.RoleExpr] = []
        disjuncts: list[RhsDisjunct] = []
        work = [(0, r) for r in right]
        while work:
            at, c = work.pop(0)
            if isinstance(c, m.Atomic):
                d = ("atomic", at, c.name)
                if d not in disjuncts:
                    disjuncts.append(d)
            elif isinstance(c, m.Top):
                return []  # trivially true
            elif isinstance(c, m.Bottom):
                pass
            elif isinstance(c, m.Or):
                work[0:0] = [(at, c.left), (at, c.right)]
            elif isinstance(c, m.And):
                if at != 0 or succ_roles:
                    # Conjunction nested where splitting is no longer simple;
                    # name it and defer.
                    self._defer(c, at, work)
                    continue
                return self._split(concepts, exists, disjuncts, work,
                                   c.left, c.right)
            elif isinstance(c, m.Not):
                # At the subject: _check_negation_scope rejects a negation
                # under a quantifier.
                if c.name not in concepts:
                    concepts.append(c.name)
            elif isinstance(c, m.Some):
                filler = c.filler
                if isinstance(filler, m.Top):
                    d = ("some", at, c.role, None)
                elif isinstance(filler, m.Atomic):
                    d = ("some", at, c.role, filler.name)
                elif isinstance(filler, m.Bottom):
                    continue  # empty disjunct
                else:
                    aux = self.fresh_aux()
                    self.add_gci(m.Atomic(aux), filler)
                    d = ("some", at, c.role, aux)
                if d not in disjuncts:
                    disjuncts.append(d)
            elif isinstance(c, m.All):
                filler = c.filler
                if at != 0 or (isinstance(filler, m.And) and succ_roles):
                    self._defer(c, at, work)
                    continue
                if isinstance(filler, m.And):
                    return self._split(concepts, exists, disjuncts, work,
                                       m.All(c.role, filler.left),
                                       m.All(c.role, filler.right))
                succ_roles.append(c.role)
                work[0:0] = [(len(succ_roles), filler)]
            else:
                raise UnsupportedAxiom(f"unsupported concept {c}")

        for d in disjuncts:
            if d[1] == 0 and (d[2] in concepts if d[0] == "atomic"
                              else (d[2], d[3]) in exists):
                return []  # tautology
        subject = m.Var("x0")
        body = [m.Atom(name, (subject,), m.CONCEPT) for name in concepts]
        for i, (role, filler) in enumerate(exists, 1):
            v = m.Var(f"x{i}")
            body.append(_role_atom(role, subject, v))
            if filler:
                body.append(m.Atom(filler, (v,), m.CONCEPT))
        at_var = [subject]
        for i, role in enumerate(succ_roles, len(exists) + 1):
            at_var.append(m.Var(f"x{i}"))
            body.append(_role_atom(role, subject, at_var[-1]))
        if not body:
            body.append(m.Atom(TOP_PRED, (subject,), m.OPRED))
        head = [m.Atom(d[2], (at_var[d[1]],), m.CONCEPT) if d[0] == "atomic"
                else ExistsHead(d[2], d[3], at_var[d[1]]) for d in disjuncts]
        self.emit(head, body, "inclusion")
        return []

    @staticmethod
    def _conjuncts(concepts: list[str], exists: list) -> list:
        """The left side read so far, as concepts again."""
        return ([m.Atomic(n) for n in concepts]
                + [m.Some(r, m.Atomic(f) if f else m.TOP) for r, f in exists])

    def _defer(self, c: m.ConceptExpr, at: int, work: list) -> None:
        """Name ``c`` by a fresh auxiliary concept, define it, and put the
        name back at the front of ``work``."""
        aux = self.fresh_aux()
        self.add_gci(m.Atomic(aux), c)
        work.insert(0, (at, m.Atomic(aux)))

    def _split(self, concepts: list[str], exists: list,
               disjuncts: list[RhsDisjunct], work: list,
               first: m.ConceptExpr,
               second: m.ConceptExpr) -> list[tuple[list, list]]:
        """Split a conjunction on the right side: the left side read so far
        implies the disjuncts read so far or the pending ones or ``first``,
        and likewise with ``second``."""
        left = self._conjuncts(concepts, exists)
        # Splitting only happens before any value restriction was opened, so
        # every accumulated disjunct still sits at the subject.
        assert all(d[1] == 0 for d in disjuncts)
        remaining = [m.Atomic(d[2]) if d[0] == "atomic"
                     else m.Some(d[2], m.Atomic(d[3]) if d[3] else m.TOP)
                     for d in disjuncts] + [c for _, c in work]
        return [(left, remaining + [first]), (left, remaining + [second])]

    # -- axiom dispatch -------------------------------------------------------

    def add_subrole(self, sub: m.RoleExpr, sup: m.RoleExpr) -> None:
        x, y, _ = _ROLE_VARS
        self.emit([_role_atom(sup, x, y)], [_role_atom(sub, x, y)],
                  f"subrole {sub} {sup}")

    def add_axiom(self, ax: m.TBoxAxiom) -> None:
        if isinstance(ax, m.SubClass):
            self.add_gci(ax.sub, ax.sup)
        elif isinstance(ax, m.EquivClass):
            self.add_gci(ax.left, ax.right)
            self.add_gci(ax.right, ax.left)
        elif isinstance(ax, m.Disjoint):
            self.add_gci(m.And(m.Atomic(ax.left), m.Atomic(ax.right)), m.BOTTOM)
        elif isinstance(ax, m.Domain):
            self.add_gci(m.Some(m.RoleExpr(ax.role), m.TOP), ax.concept)
        elif isinstance(ax, m.Range):
            self.add_gci(m.TOP, m.All(m.RoleExpr(ax.role), ax.concept))
        elif isinstance(ax, m.SubRole):
            self.add_subrole(ax.sub, ax.sup)
        elif isinstance(ax, m.EquivRole):
            self.add_subrole(ax.left, ax.right)
            self.add_subrole(ax.right, ax.left)
        elif isinstance(ax, m.Symmetric):
            self.add_subrole(m.RoleExpr(ax.name),
                             m.RoleExpr(ax.name, inverse=True))
        elif isinstance(ax, m.Transitive):
            x, y, z = _ROLE_VARS
            r = m.RoleExpr(ax.name)
            self.emit([_role_atom(r, x, z)],
                      [_role_atom(r, x, y), _role_atom(r, y, z)],
                      f"transitive {ax.name}")
        elif isinstance(ax, m.Functional):
            x, y, z = _ROLE_VARS
            self.emit([m.Atom(m.EQ_PRED, (y, z), m.EQUALITY)],
                      [_role_atom(ax.role, x, y), _role_atom(ax.role, x, z)],
                      f"functional {ax.role}")
        else:
            raise UnsupportedAxiom(f"unknown axiom {ax!r}")


def clausify(kb: m.CombinedKB) -> GroundProgram:
    """Build the disjunctive program equisatisfiable with the KB for
    named-constant atomic consequences.  ABox facts are not part of the
    program; they are handed to the chase separately."""
    n = _Normalizer()
    for ax in kb.tbox:
        n.add_axiom(ax)
    for rule in kb.rules:
        safe = m.make_dl_safe(rule)
        n.emit(safe.head, safe.body, "user rule")
    predicates = dict(kb.predicates)
    predicates.update(n.aux_predicates)
    return GroundProgram(tuple(n.rules), kb.individuals, predicates)


def format_program(program: GroundProgram) -> str:
    """Debug dump, one rule per line in ``h1 | h2 :- b1, b2.`` syntax."""
    return "\n".join(str(r) for r in program.rules) + "\n"
