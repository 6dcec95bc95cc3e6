"""Domain types for combined knowledge bases.

A combined knowledge base pairs a description-logic terminology (TBox) and
fact set (ABox) with a positive disjunctive rule program whose rules are
DL-safe: every variable must occur in a non-DL body atom, which restricts
rule applicability to individuals known by name.  The built-in unary
predicate ``O`` holds exactly the named individuals and is never stored in
files or fact sets; it is evaluated virtually against the individual
registry.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Predicate kinds.  Concepts and roles (and equality) are DL predicates;
# everything else is non-DL.  O is the built-in individual-enumeration
# predicate, non-DL by definition.
CONCEPT = "concept"
ROLE = "role"
NONDL = "nondl"
EQUALITY = "equality"
OPRED = "opred"

O_PRED = "O"
EQ_PRED = "="


# ---------------------------------------------------------------------------
# Terms and atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Const:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __str__(self) -> str:
        return "?" + self.name


Term = Union[Const, Var]


@dataclass(frozen=True)
class Predicate:
    name: str
    arity: int
    kind: str


O_PREDICATE = Predicate(O_PRED, 1, OPRED)
EQ_PREDICATE = Predicate(EQ_PRED, 2, EQUALITY)


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to terms; ``kind`` is stamped from the registry."""

    pred: str
    args: tuple[Term, ...]
    kind: str = NONDL

    def variables(self) -> tuple[Var, ...]:
        seen: list[Var] = []
        for t in self.args:
            if isinstance(t, Var) and t not in seen:
                seen.append(t)
        return tuple(seen)

    def is_ground(self) -> bool:
        return all(isinstance(t, Const) for t in self.args)

    def is_dl(self) -> bool:
        return self.kind in (CONCEPT, ROLE, EQUALITY)

    def substitute(self, binding: dict[Var, Term]) -> "Atom":
        return Atom(self.pred, tuple(binding.get(t, t) if isinstance(t, Var) else t
                                     for t in self.args), self.kind)

    def __str__(self) -> str:
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"


# ---------------------------------------------------------------------------
# Concept and role expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atomic:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Top:
    def __str__(self) -> str:
        return "Thing"


@dataclass(frozen=True)
class Bottom:
    def __str__(self) -> str:
        return "Nothing"


@dataclass(frozen=True)
class And:
    left: "ConceptExpr"
    right: "ConceptExpr"

    def __str__(self) -> str:
        return f"(and {self.left} {self.right})"


@dataclass(frozen=True)
class Or:
    left: "ConceptExpr"
    right: "ConceptExpr"

    def __str__(self) -> str:
        return f"(or {self.left} {self.right})"


@dataclass(frozen=True)
class Some:
    role: "RoleExpr"
    filler: "ConceptExpr"

    def __str__(self) -> str:
        return f"(some {self.role} {self.filler})"


@dataclass(frozen=True)
class All:
    role: "RoleExpr"
    filler: "ConceptExpr"

    def __str__(self) -> str:
        return f"(all {self.role} {self.filler})"


@dataclass(frozen=True)
class Not:
    # Negation is restricted to atomic concepts.
    name: str

    def __str__(self) -> str:
        return f"(not {self.name})"


ConceptExpr = Union[Atomic, Top, Bottom, And, Or, Some, All, Not]

TOP = Top()
BOTTOM = Bottom()


@dataclass(frozen=True)
class RoleExpr:
    """A named role or its inverse.  Double inverses never exist; builders
    normalize them away."""

    name: str
    inverse: bool = False

    def __str__(self) -> str:
        return f"(inv {self.name})" if self.inverse else self.name


# ---------------------------------------------------------------------------
# TBox axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubClass:
    sub: ConceptExpr
    sup: ConceptExpr


@dataclass(frozen=True)
class EquivClass:
    left: ConceptExpr
    right: ConceptExpr


@dataclass(frozen=True)
class Disjoint:
    left: str
    right: str


@dataclass(frozen=True)
class SubRole:
    sub: RoleExpr
    sup: RoleExpr


@dataclass(frozen=True)
class EquivRole:
    left: RoleExpr
    right: RoleExpr


@dataclass(frozen=True)
class Transitive:
    name: str


@dataclass(frozen=True)
class Functional:
    role: RoleExpr


@dataclass(frozen=True)
class Symmetric:
    name: str


@dataclass(frozen=True)
class Domain:
    role: str
    concept: ConceptExpr


@dataclass(frozen=True)
class Range:
    role: str
    concept: ConceptExpr


TBoxAxiom = Union[SubClass, EquivClass, Disjoint, SubRole, EquivRole,
                  Transitive, Functional, Symmetric, Domain, Range]


# ---------------------------------------------------------------------------
# Rules and the combined knowledge base
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DLRule:
    """A positive disjunctive rule: head atoms are a disjunction, body atoms
    a conjunction.  ``head`` is non-empty."""

    head: tuple[Atom, ...]
    body: tuple[Atom, ...]

    def variables(self) -> tuple[Var, ...]:
        seen: list[Var] = []
        for atom in self.head + self.body:
            for v in atom.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def __str__(self) -> str:
        head = " | ".join(str(a) for a in self.head)
        if not self.body:
            return f"{head}."
        return f"{head} :- {', '.join(str(a) for a in self.body)}."


@dataclass(frozen=True)
class CombinedKB:
    """Parsed terminology, rules, facts, and the named-individual registry.

    ``individuals`` always equals the set of constants appearing in the
    ABox; it is the extension of the virtual O predicate.
    """

    tbox: tuple[TBoxAxiom, ...]
    rules: tuple[DLRule, ...]
    abox: tuple[Atom, ...]
    individuals: frozenset[str]
    predicates: dict[str, Predicate] = field(default_factory=dict)

    def predicate(self, name: str) -> Predicate:
        if name == O_PRED:
            return O_PREDICATE
        if name == EQ_PRED:
            return EQ_PREDICATE
        return self.predicates[name]

    def without_abox(self) -> "CombinedKB":
        """The intensional part: ground facts removed, O extension empty."""
        return CombinedKB(self.tbox, self.rules, (), frozenset(), self.predicates)

    def keeping_nondl_facts(self) -> "CombinedKB":
        """Intensional part plus non-DL facts (an alternative reduction)."""
        kept = tuple(a for a in self.abox if a.kind == NONDL)
        inds = frozenset(t.name for a in kept for t in a.args)
        return CombinedKB(self.tbox, self.rules, kept, inds, self.predicates)


def valid_identifier(name: str) -> bool:
    return bool(IDENT_RE.match(name))


def check_dl_safety(rule: DLRule) -> bool:
    """True iff every variable of the rule occurs in some non-DL body atom.

    O atoms count as non-DL.  Constants need no cover, so a ground rule is
    vacuously safe.
    """
    return make_dl_safe(rule) is rule


def make_dl_safe(rule: DLRule) -> DLRule:
    """Append O(v) for each variable not already covered by a non-DL body
    atom.  Idempotent; a safe rule comes back as the same object."""
    covered: set[Var] = set()
    for atom in rule.body:
        if not atom.is_dl():
            covered.update(atom.variables())
    extra = tuple(Atom(O_PRED, (v,), OPRED)
                  for v in rule.variables() if v not in covered)
    if not extra:
        return rule
    return DLRule(rule.head, rule.body + extra)
