"""Translation of a combined KB into a positive disjunctive rule program.

Terminological axioms are first normalized to inclusions

    A1 and ... and An  subclass-of  D1 or ... or Dm

where each Ai is an atomic concept or an existential restriction with
atomic filler, and each Dj is an atomic concept, Nothing, or an existential
restriction with atomic filler.  A value restriction on the right becomes a
clause whose body walks the role edge: ``all R.A`` turns into
``A(y) <- lhs(x), R(x, y)``.  Fresh auxiliary concepts (``aux_N``) name
nested subexpressions; they are conservative, so named-constant
consequences are unchanged.  Negation is accepted only on atomic concepts
outside quantifier scope; everything else raises UnsupportedAxiom rather
than being silently approximated.

The resulting program consists of rules whose heads are plain atoms or
existential markers (skolemized later by the chase), role-property rules,
an equality axiomatization (present only when a functional axiom or an
explicit ``=`` occurs), and the user rules made DL-safe.  Clausification is
deterministic: the same KB yields the same rule sequence with stable ids.
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

    def is_plain_datalog(self) -> bool:
        """No existential heads and no disjunctive heads."""
        return all(r.is_horn() or r.is_constraint() for r in self.rules)


# ---------------------------------------------------------------------------
# Normalized inclusions
# ---------------------------------------------------------------------------

# A right-hand disjunct: ("atomic", var_index, name) or
# ("some", var_index, RoleExpr, filler-or-None).  Variable index 0 is the
# subject; positive indices are successor variables of value restrictions.
RhsDisjunct = tuple


@dataclass(frozen=True)
class NormalInclusion:
    lhs_concepts: tuple[str, ...]
    lhs_exists: tuple[tuple[m.RoleExpr, Optional[str]], ...]
    succ_roles: tuple[m.RoleExpr, ...]
    rhs: tuple[RhsDisjunct, ...]

    def __str__(self) -> str:
        parts = list(self.lhs_concepts)
        parts += [f"some {r}.{f or 'Thing'}" for r, f in self.lhs_exists]
        parts += [f"{r}(x0,y{i + 1})" for i, r in enumerate(self.succ_roles)]
        lhs = " and ".join(parts) if parts else "Thing"
        if not self.rhs:
            rhs = "Nothing"
        else:
            bits = []
            for d in self.rhs:
                at = "" if d[1] == 0 else f"@y{d[1]}"
                if d[0] == "atomic":
                    bits.append(d[2] + at)
                else:
                    bits.append(f"some {d[2]}.{d[3] or 'Thing'}{at}")
            rhs = " or ".join(bits)
        return f"{lhs} subclass-of {rhs}"


NormalizedForm = Union[NormalInclusion, m.SubRole, m.Transitive, m.Functional]


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


class _Normalizer:
    def __init__(self):
        self.aux_count = 0
        self.aux_predicates: dict[str, m.Predicate] = {}
        self.out: list[NormalizedForm] = []

    def fresh_aux(self) -> str:
        name = f"aux_{self.aux_count}"
        self.aux_count += 1
        self.aux_predicates[name] = m.Predicate(name, 1, m.CONCEPT)
        return name

    # -- main entry per concept inclusion ------------------------------------

    def add_gci(self, lhs: m.ConceptExpr, rhs: m.ConceptExpr) -> None:
        _check_negation_scope(lhs, False)
        _check_negation_scope(rhs, False)
        queue: list[tuple[list, list]] = [([lhs], [rhs])]
        while queue:
            left, right = queue.pop(0)
            queue[0:0] = self._step(left, right)

    def _step(self, left: list, right: list) -> list[tuple[list, list]]:
        """Rewrite one inclusion; emit it if normal, else return successors."""
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
                rest = list(work)
                return [([c.left] + rest + [m.Atomic(n) for n in concepts]
                         + [m.Some(r, m.Atomic(f) if f else m.TOP) for r, f in exists],
                         list(right)),
                        ([c.right] + rest + [m.Atomic(n) for n in concepts]
                         + [m.Some(r, m.Atomic(f) if f else m.TOP) for r, f in exists],
                         list(right))]
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
                base_left = ([m.Atomic(n) for n in concepts]
                             + [m.Some(r, m.Atomic(f) if f else m.TOP)
                                for r, f in exists])
                if at != 0 or succ_roles:
                    # Conjunction nested where splitting is no longer simple;
                    # name it and defer.
                    aux = self.fresh_aux()
                    self.add_gci(m.Atomic(aux), c)
                    work[0:0] = [(at, m.Atomic(aux))]
                    continue
                rest = [d for d in work]
                remaining = [self._undo(d) for d in disjuncts] + \
                            [self._undo_pending(p) for p in rest]
                return [(base_left, remaining + [c.left]),
                        (base_left, remaining + [c.right])]
            elif isinstance(c, m.Not):
                if at != 0:
                    aux = self.fresh_aux()
                    self.add_gci(m.Atomic(aux), c)
                    work[0:0] = [(at, m.Atomic(aux))]
                else:
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
                if at != 0:
                    aux = self.fresh_aux()
                    self.add_gci(m.Atomic(aux), c)
                    work[0:0] = [(at, m.Atomic(aux))]
                    continue
                filler = c.filler
                if isinstance(filler, m.And):
                    base_left = ([m.Atomic(n) for n in concepts]
                                 + [m.Some(r, m.Atomic(f) if f else m.TOP)
                                    for r, f in exists])
                    if succ_roles:
                        aux = self.fresh_aux()
                        self.add_gci(m.Atomic(aux), c)
                        work[0:0] = [(0, m.Atomic(aux))]
                        continue
                    remaining = [self._undo(d) for d in disjuncts] + \
                                [self._undo_pending(p) for p in work]
                    return [(base_left, remaining + [m.All(c.role, filler.left)]),
                            (base_left, remaining + [m.All(c.role, filler.right)])]
                succ_roles.append(c.role)
                work[0:0] = [(len(succ_roles), filler)]
            else:
                raise UnsupportedAxiom(f"unsupported concept {c}")

        inc = NormalInclusion(tuple(concepts), tuple(exists),
                              tuple(succ_roles), tuple(disjuncts))
        if not self._tautology(inc):
            self.out.append(inc)
        return []

    @staticmethod
    def _undo(d: RhsDisjunct) -> m.ConceptExpr:
        # Splitting only happens before any value restriction was opened, so
        # every accumulated disjunct still sits at the subject.
        assert d[1] == 0
        if d[0] == "atomic":
            return m.Atomic(d[2])
        return m.Some(d[2], m.Atomic(d[3]) if d[3] else m.TOP)

    @staticmethod
    def _undo_pending(p: tuple) -> m.ConceptExpr:
        return p[1]

    @staticmethod
    def _tautology(inc: NormalInclusion) -> bool:
        for d in inc.rhs:
            if d[1] != 0:
                continue
            if d[0] == "atomic" and d[2] in inc.lhs_concepts:
                return True
            if d[0] == "some" and (d[2], d[3]) in inc.lhs_exists:
                return True
        return False

    # -- axiom dispatch -------------------------------------------------------

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
            self.out.append(ax)
        elif isinstance(ax, m.EquivRole):
            self.out.append(m.SubRole(ax.left, ax.right))
            self.out.append(m.SubRole(ax.right, ax.left))
        elif isinstance(ax, m.Symmetric):
            self.out.append(m.SubRole(m.RoleExpr(ax.name),
                                      m.RoleExpr(ax.name, inverse=True)))
        elif isinstance(ax, (m.Transitive, m.Functional)):
            self.out.append(ax)
        else:
            raise UnsupportedAxiom(f"unknown axiom {ax!r}")


def normalize(tbox) -> tuple[list[NormalizedForm], dict[str, m.Predicate]]:
    """Rewrite TBox axioms into normalized inclusions plus role forms.

    Returns the normalized sequence and the auxiliary concept registry.
    Tautological inclusions are dropped; the output order is deterministic.
    """
    n = _Normalizer()
    for ax in tbox:
        n.add_axiom(ax)
    seen = set()
    unique: list[NormalizedForm] = []
    for f in n.out:
        key = repr(f)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique, n.aux_predicates


# ---------------------------------------------------------------------------
# Rule emission
# ---------------------------------------------------------------------------

def _role_atom(role: m.RoleExpr, subj: m.Term, obj: m.Term) -> m.Atom:
    if role.inverse:
        return m.Atom(role.name, (obj, subj), m.ROLE)
    return m.Atom(role.name, (subj, obj), m.ROLE)


class _Emitter:
    def __init__(self):
        self.rules: list[ProgramRule] = []
        self.seen: set = set()

    def emit(self, head, body, origin: str) -> None:
        """Append the rule unless one equal up to variable renaming is
        already in the program."""
        rule = ProgramRule(f"r{len(self.rules)}", tuple(head), tuple(body),
                           origin)
        if rule.compiled not in self.seen:
            self.seen.add(rule.compiled)
            self.rules.append(rule)


def _inclusion_rule(inc: NormalInclusion, emit: _Emitter) -> None:
    subject = m.Var("x0")
    body: list[m.Atom] = []
    for name in inc.lhs_concepts:
        body.append(m.Atom(name, (subject,), m.CONCEPT))
    nextvar = 1
    for role, filler in inc.lhs_exists:
        v = m.Var(f"x{nextvar}")
        nextvar += 1
        body.append(_role_atom(role, subject, v))
        if filler:
            body.append(m.Atom(filler, (v,), m.CONCEPT))
    succ_vars: list[m.Var] = []
    for role in inc.succ_roles:
        v = m.Var(f"x{nextvar}")
        nextvar += 1
        succ_vars.append(v)
        body.append(_role_atom(role, subject, v))
    if not body:
        body.append(m.Atom(TOP_PRED, (subject,), m.OPRED))
    head: list[HeadAtom] = []
    for d in inc.rhs:
        var = subject if d[1] == 0 else succ_vars[d[1] - 1]
        if d[0] == "atomic":
            head.append(m.Atom(d[2], (var,), m.CONCEPT))
        else:
            head.append(ExistsHead(d[2], d[3], var))
    emit.emit(head, body, str(inc))


def _role_rule(form: NormalizedForm, emit: _Emitter) -> None:
    x, y, z = m.Var("x0"), m.Var("x1"), m.Var("x2")
    if isinstance(form, m.SubRole):
        emit.emit([_role_atom(form.sup, x, y)], [_role_atom(form.sub, x, y)],
                  f"subrole {form.sub} {form.sup}")
    elif isinstance(form, m.Transitive):
        r = m.RoleExpr(form.name)
        emit.emit([_role_atom(r, x, z)], [_role_atom(r, x, y), _role_atom(r, y, z)],
                  f"transitive {form.name}")
    elif isinstance(form, m.Functional):
        emit.emit([m.Atom(m.EQ_PRED, (y, z), m.EQUALITY)],
                  [_role_atom(form.role, x, y), _role_atom(form.role, x, z)],
                  f"functional {form.role}")


def _equality_rules(predicates: dict[str, m.Predicate], emit: _Emitter) -> None:
    x, y = m.Var("x0"), m.Var("x1")
    eq = lambda a, b: m.Atom(m.EQ_PRED, (a, b), m.EQUALITY)
    emit.emit([eq(x, x)], [m.Atom(m.O_PRED, (x,), m.OPRED)], "eq-reflexivity")
    emit.emit([eq(y, x)], [eq(x, y)], "eq-symmetry")
    z = m.Var("x2")
    emit.emit([eq(x, z)], [eq(x, y), eq(y, z)], "eq-transitivity")
    for pred in predicates.values():
        if pred.kind not in (m.CONCEPT, m.ROLE, m.NONDL):
            continue
        args = tuple(m.Var(f"a{i}") for i in range(pred.arity))
        fresh = m.Var("b")
        for i in range(pred.arity):
            new_args = args[:i] + (fresh,) + args[i + 1:]
            emit.emit([m.Atom(pred.name, new_args, pred.kind)],
                      [m.Atom(pred.name, args, pred.kind), eq(args[i], fresh)],
                      f"eq-congruence {pred.name}/{i}")


def _needs_equality(kb: m.CombinedKB) -> bool:
    if any(isinstance(ax, m.Functional) for ax in kb.tbox):
        return True
    for rule in kb.rules:
        for atom in rule.head + rule.body:
            if atom.pred == m.EQ_PRED:
                return True
    return False


def clausify(kb: m.CombinedKB) -> GroundProgram:
    """Build the disjunctive program equisatisfiable with the KB for
    named-constant atomic consequences.  ABox facts are not part of the
    program; they are handed to the chase separately."""
    forms, aux = normalize(kb.tbox)
    predicates = dict(kb.predicates)
    predicates.update(aux)
    emit = _Emitter()
    for form in forms:
        if isinstance(form, NormalInclusion):
            _inclusion_rule(form, emit)
        else:
            _role_rule(form, emit)
    if _needs_equality(kb):
        _equality_rules(predicates, emit)
    for rule in kb.rules:
        safe = m.make_dl_safe(rule)
        emit.emit(list(safe.head), list(safe.body), "user rule")
    return GroundProgram(tuple(emit.rules), kb.individuals, predicates)


def format_program(program: GroundProgram) -> str:
    """Debug dump, one rule per line in ``h1 | h2 :- b1, b2.`` syntax."""
    return "\n".join(str(r) for r in program.rules) + "\n"
