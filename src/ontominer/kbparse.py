"""Reader and writer for the on-disk knowledge base format.

The format is UTF-8 text, one s-expression per line, ``;`` comments:

    decl      := (concept NAME) | (role NAME) | (nondl NAME ARITY)
    axiom     := (subclass C C) | (equivalent C C) | (disjoint NAME NAME)
               | (subrole R R) | (equivrole R R) | (transitive NAME)
               | (functional R) | (symmetric NAME)
               | (domain NAME C) | (range NAME C)
    C         := NAME | Thing | Nothing | (and C C+) | (or C C+)
               | (some R C) | (all R C) | (not NAME)
    R         := NAME | (inv NAME)
    rule      := (rule (head atom+) (body atom*))
    atom      := (NAME term+) | (= term term) | (O term)
    fact      := (instance NAME constant) | (related NAME constant constant)
               | (fact NAME constant+)
    term      := NAME | ?NAME

Declarations are optional: the first use of a name fixes its kind (concept,
role, or non-DL) and arity, and later uses must agree.  Names first seen in
a rule atom default to non-DL, so concepts referenced from rules before any
terminological use need an explicit declaration.  ``Thing`` and ``Nothing``
are reserved.  O facts are never written: the O extension is exactly the
set of constants occurring in the ABox.

``(equivalent A (not B))`` is read as ``(disjoint A B)``; pass
``covering_complement=True`` to additionally emit the covering inclusion
``Thing subclass-of (or A B)``.
"""

from __future__ import annotations

from typing import Optional, Union

from . import model as m
from .errors import ParseError

Sexpr = Union[str, list]

_RESERVED = {"Thing", "Nothing"}


# ---------------------------------------------------------------------------
# Tokenizer: one expression per line, positions tracked for error messages
# ---------------------------------------------------------------------------

def _tokenize_line(text: str, lineno: int) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == ";":
            break
        if c.isspace():
            i += 1
            continue
        if c in "()":
            tokens.append((c, i + 1))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "();":
            j += 1
        tokens.append((text[i:j], i + 1))
        i = j
    return tokens


def _read_line(text: str, lineno: int) -> Optional[tuple[Sexpr, int]]:
    tokens = _tokenize_line(text, lineno)
    if not tokens:
        return None
    pos = 0

    def read() -> tuple[Sexpr, int]:
        nonlocal pos
        tok, col = tokens[pos]
        pos += 1
        if tok == "(":
            items: list = []
            while True:
                if pos >= len(tokens):
                    raise ParseError("unclosed '('", lineno, col)
                if tokens[pos][0] == ")":
                    pos += 1
                    return items, col
                items.append(read()[0])
        if tok == ")":
            raise ParseError("unexpected ')'", lineno, col)
        return tok, col

    expr, col = read()
    if pos != len(tokens):
        raise ParseError("trailing tokens after expression", lineno, tokens[pos][1])
    return expr, col


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, covering_complement: bool = False):
        self.covering_complement = covering_complement
        self.predicates: dict[str, m.Predicate] = {}
        self.tbox: list[m.TBoxAxiom] = []
        self.rules: list[m.DLRule] = []
        self.abox: list[m.Atom] = []
        self.line = 0

    def err(self, message: str) -> ParseError:
        return ParseError(message, self.line, 1)

    # -- registry ----------------------------------------------------------

    def declare(self, name: str, arity: int, kind: str) -> m.Predicate:
        if name in (m.O_PRED, m.EQ_PRED) or name in _RESERVED:
            raise self.err(f"'{name}' is reserved and cannot be declared")
        if not m.valid_identifier(name):
            raise self.err(f"invalid identifier '{name}'")
        existing = self.predicates.get(name)
        if existing is None:
            pred = m.Predicate(name, arity, kind)
            self.predicates[name] = pred
            return pred
        if existing.kind != kind:
            raise self.err(
                f"'{name}' already used as {existing.kind}, cannot reuse as {kind}")
        if existing.arity != arity:
            raise self.err(
                f"arity mismatch for '{name}': declared {existing.arity}, got {arity}")
        return existing

    # -- concept / role expressions ----------------------------------------

    def concept(self, expr: Sexpr) -> m.ConceptExpr:
        if isinstance(expr, str):
            if expr == "Thing":
                return m.TOP
            if expr == "Nothing":
                return m.BOTTOM
            self.declare(expr, 1, m.CONCEPT)
            return m.Atomic(expr)
        if not expr:
            raise self.err("empty concept expression")
        op = expr[0]
        if op == "and" or op == "or":
            if len(expr) < 3:
                raise self.err(f"({op} ...) needs at least two operands")
            parts = [self.concept(e) for e in expr[1:]]
            ctor = m.And if op == "and" else m.Or
            out = parts[-1]
            for p in reversed(parts[:-1]):
                out = ctor(p, out)
            return out
        if op == "some" or op == "all":
            if len(expr) != 3:
                raise self.err(f"({op} R C) takes a role and a concept")
            ctor = m.Some if op == "some" else m.All
            return ctor(self.role(expr[1]), self.concept(expr[2]))
        if op == "not":
            if len(expr) != 2 or not isinstance(expr[1], str):
                raise self.err("negation is restricted to atomic concepts")
            if expr[1] in _RESERVED:
                raise self.err("negation is restricted to atomic concepts")
            self.declare(expr[1], 1, m.CONCEPT)
            return m.Not(expr[1])
        raise self.err(f"unknown concept constructor '{op}'")

    def role(self, expr: Sexpr) -> m.RoleExpr:
        inverse = False
        while isinstance(expr, list):
            if len(expr) != 2 or expr[0] != "inv":
                raise self.err("role must be NAME or (inv NAME)")
            inverse = not inverse
            expr = expr[1]
        self.declare(expr, 2, m.ROLE)
        return m.RoleExpr(expr, inverse)

    # -- rule atoms ---------------------------------------------------------

    def term(self, tok: Sexpr) -> m.Term:
        if not isinstance(tok, str):
            raise self.err("term must be NAME or ?NAME")
        if tok.startswith("?"):
            if not m.valid_identifier(tok[1:]):
                raise self.err(f"invalid variable '{tok}'")
            return m.Var(tok[1:])
        if not m.valid_identifier(tok):
            raise self.err(f"invalid constant '{tok}'")
        return m.Const(tok)

    def rule_atom(self, expr: Sexpr, in_head: bool) -> m.Atom:
        if not isinstance(expr, list) or not expr or not isinstance(expr[0], str):
            raise self.err("atom must be (NAME term+)")
        name = expr[0]
        args = tuple(self.term(t) for t in expr[1:])
        if name == m.EQ_PRED:
            if len(args) != 2:
                raise self.err("= takes exactly two terms")
            return m.Atom(m.EQ_PRED, args, m.EQUALITY)
        if name == m.O_PRED:
            if in_head:
                raise self.err("O cannot appear in a rule head")
            if len(args) != 1:
                raise self.err("O takes exactly one term")
            return m.Atom(m.O_PRED, args, m.OPRED)
        if name in _RESERVED:
            raise self.err(f"'{name}' cannot be used as a predicate")
        return self._atom(name, args)

    def _atom(self, name: str, args: tuple[m.Term, ...]) -> m.Atom:
        """An atom of ``name``, declared a non-DL predicate on first use."""
        pred = self.predicates.get(name)
        if pred is None:
            pred = self.declare(name, len(args), m.NONDL)
        elif pred.arity != len(args):
            raise self.err(
                f"arity mismatch for '{name}': declared {pred.arity}, got {len(args)}")
        return m.Atom(name, args, pred.kind)

    # -- top-level forms -----------------------------------------------------

    def form(self, expr: Sexpr) -> None:
        if not isinstance(expr, list) or not expr or not isinstance(expr[0], str):
            raise self.err("expected a (FORM ...) expression")
        op, rest = expr[0], expr[1:]
        handler = getattr(self, "_form_" + op, None)
        if handler is None:
            raise self.err(f"unknown form '{op}'")
        handler(rest)

    def _name(self, tok: Sexpr, what: str) -> str:
        if not isinstance(tok, str):
            raise self.err(f"expected a {what} name")
        return tok

    def _form_concept(self, rest: list) -> None:
        if len(rest) != 1:
            raise self.err("(concept NAME)")
        self.declare(self._name(rest[0], "concept"), 1, m.CONCEPT)

    def _form_role(self, rest: list) -> None:
        if len(rest) != 1:
            raise self.err("(role NAME)")
        self.declare(self._name(rest[0], "role"), 2, m.ROLE)

    def _form_nondl(self, rest: list) -> None:
        if len(rest) != 2 or not isinstance(rest[1], str) or not rest[1].isdigit():
            raise self.err("(nondl NAME ARITY)")
        arity = int(rest[1])
        if arity < 1:
            raise self.err("nondl arity must be positive")
        self.declare(self._name(rest[0], "predicate"), arity, m.NONDL)

    def _form_subclass(self, rest: list) -> None:
        if len(rest) != 2:
            raise self.err("(subclass C C)")
        self.tbox.append(m.SubClass(self.concept(rest[0]), self.concept(rest[1])))

    def _form_equivalent(self, rest: list) -> None:
        if len(rest) != 2:
            raise self.err("(equivalent C C)")
        left, right = self.concept(rest[0]), self.concept(rest[1])
        # A complement definition is read as disjointness, optionally with
        # the covering inclusion when the caller asks for it.
        for a, b in ((left, right), (right, left)):
            if isinstance(a, m.Atomic) and isinstance(b, m.Not):
                self.tbox.append(m.Disjoint(a.name, b.name))
                if self.covering_complement:
                    self.tbox.append(
                        m.SubClass(m.TOP, m.Or(m.Atomic(a.name), m.Atomic(b.name))))
                return
        self.tbox.append(m.EquivClass(left, right))

    def _form_disjoint(self, rest: list) -> None:
        if len(rest) != 2:
            raise self.err("(disjoint NAME NAME)")
        a = self._name(rest[0], "concept")
        b = self._name(rest[1], "concept")
        self.declare(a, 1, m.CONCEPT)
        self.declare(b, 1, m.CONCEPT)
        self.tbox.append(m.Disjoint(a, b))

    def _form_subrole(self, rest: list) -> None:
        if len(rest) != 2:
            raise self.err("(subrole R R)")
        self.tbox.append(m.SubRole(self.role(rest[0]), self.role(rest[1])))

    def _form_equivrole(self, rest: list) -> None:
        if len(rest) != 2:
            raise self.err("(equivrole R R)")
        self.tbox.append(m.EquivRole(self.role(rest[0]), self.role(rest[1])))

    def _form_transitive(self, rest: list) -> None:
        if len(rest) != 1:
            raise self.err("(transitive NAME)")
        name = self._name(rest[0], "role")
        self.declare(name, 2, m.ROLE)
        self.tbox.append(m.Transitive(name))

    def _form_functional(self, rest: list) -> None:
        if len(rest) != 1:
            raise self.err("(functional R)")
        self.tbox.append(m.Functional(self.role(rest[0])))

    def _form_symmetric(self, rest: list) -> None:
        if len(rest) != 1:
            raise self.err("(symmetric NAME)")
        name = self._name(rest[0], "role")
        self.declare(name, 2, m.ROLE)
        self.tbox.append(m.Symmetric(name))

    def _form_domain(self, rest: list) -> None:
        if len(rest) != 2:
            raise self.err("(domain NAME C)")
        name = self._name(rest[0], "role")
        self.declare(name, 2, m.ROLE)
        self.tbox.append(m.Domain(name, self.concept(rest[1])))

    def _form_range(self, rest: list) -> None:
        if len(rest) != 2:
            raise self.err("(range NAME C)")
        name = self._name(rest[0], "role")
        self.declare(name, 2, m.ROLE)
        self.tbox.append(m.Range(name, self.concept(rest[1])))

    def _form_rule(self, rest: list) -> None:
        if (len(rest) != 2 or not isinstance(rest[0], list) or not rest[0]
                or rest[0][0] != "head" or not isinstance(rest[1], list)
                or not rest[1] or rest[1][0] != "body"):
            raise self.err("(rule (head atom+) (body atom*))")
        head = tuple(self.rule_atom(a, in_head=True) for a in rest[0][1:])
        body = tuple(self.rule_atom(a, in_head=False) for a in rest[1][1:])
        if not head:
            raise self.err("rule head must contain at least one atom")
        self.rules.append(m.DLRule(head, body))

    def _ground_const(self, tok: Sexpr) -> m.Const:
        t = self.term(tok)
        if not isinstance(t, m.Const):
            raise self.err("facts must be ground")
        return t

    def _form_instance(self, rest: list) -> None:
        if len(rest) != 2:
            raise self.err("(instance NAME constant)")
        name = self._name(rest[0], "concept")
        self.declare(name, 1, m.CONCEPT)
        self.abox.append(m.Atom(name, (self._ground_const(rest[1]),), m.CONCEPT))

    def _form_related(self, rest: list) -> None:
        if len(rest) != 3:
            raise self.err("(related NAME constant constant)")
        name = self._name(rest[0], "role")
        self.declare(name, 2, m.ROLE)
        args = (self._ground_const(rest[1]), self._ground_const(rest[2]))
        self.abox.append(m.Atom(name, args, m.ROLE))

    def _form_fact(self, rest: list) -> None:
        if len(rest) < 2:
            raise self.err("(fact NAME constant+)")
        name = self._name(rest[0], "predicate")
        args = tuple(self._ground_const(t) for t in rest[1:])
        self.abox.append(self._atom(name, args))

    # -- driver --------------------------------------------------------------

    def parse(self, text: str) -> m.CombinedKB:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            self.line = lineno
            parsed = _read_line(raw, lineno)
            if parsed is None:
                continue
            self.form(parsed[0])
        individuals = frozenset(t.name for a in self.abox for t in a.args)
        return m.CombinedKB(tuple(self.tbox), tuple(self.rules),
                            tuple(self.abox), individuals, self.predicates)


def parse_kb(source, covering_complement: bool = False) -> m.CombinedKB:
    """Parse KB text (a string or a readable stream) into a validated
    CombinedKB.

    O facts are never stored; the O extension is the ``individuals`` field.
    """
    if hasattr(source, "read"):
        source = source.read()
    return _Parser(covering_complement).parse(source)


def load_kb(path: str, covering_complement: bool = False) -> m.CombinedKB:
    with open(path, "r", encoding="utf-8") as f:
        return parse_kb(f.read(), covering_complement)


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

def _atom_str(a: m.Atom) -> str:
    args = " ".join(("?" + t.name) if isinstance(t, m.Var) else t.name
                    for t in a.args)
    return f"({a.pred} {args})"


def _axiom_str(ax: m.TBoxAxiom) -> str:
    if isinstance(ax, m.SubClass):
        return f"(subclass {ax.sub} {ax.sup})"
    if isinstance(ax, m.EquivClass):
        return f"(equivalent {ax.left} {ax.right})"
    if isinstance(ax, m.Disjoint):
        return f"(disjoint {ax.left} {ax.right})"
    if isinstance(ax, m.SubRole):
        return f"(subrole {ax.sub} {ax.sup})"
    if isinstance(ax, m.EquivRole):
        return f"(equivrole {ax.left} {ax.right})"
    if isinstance(ax, m.Transitive):
        return f"(transitive {ax.name})"
    if isinstance(ax, m.Functional):
        return f"(functional {ax.role})"
    if isinstance(ax, m.Symmetric):
        return f"(symmetric {ax.name})"
    if isinstance(ax, m.Domain):
        return f"(domain {ax.role} {ax.concept})"
    if isinstance(ax, m.Range):
        return f"(range {ax.role} {ax.concept})"
    raise TypeError(f"not an axiom: {ax!r}")


def serialize_kb(kb: m.CombinedKB) -> str:
    """Write a KB back to its textual form.

    Parsing the result reproduces the same abstract KB (declarations are
    emitted for every predicate, so first-use inference plays no part).
    """
    lines: list[str] = []
    for pred in kb.predicates.values():
        if pred.kind == m.CONCEPT:
            lines.append(f"(concept {pred.name})")
        elif pred.kind == m.ROLE:
            lines.append(f"(role {pred.name})")
        elif pred.kind == m.NONDL:
            lines.append(f"(nondl {pred.name} {pred.arity})")
    for ax in kb.tbox:
        lines.append(_axiom_str(ax))
    for rule in kb.rules:
        head = " ".join(_atom_str(a) for a in rule.head)
        body = " ".join(_atom_str(a) for a in rule.body)
        lines.append(f"(rule (head {head}) (body {body}))")
    for fact in kb.abox:
        if fact.kind == m.CONCEPT:
            lines.append(f"(instance {fact.pred} {fact.args[0].name})")
        elif fact.kind == m.ROLE:
            lines.append(f"(related {fact.pred} {fact.args[0].name} {fact.args[1].name})")
        else:
            args = " ".join(t.name for t in fact.args)
            lines.append(f"(fact {fact.pred} {args})")
    return "\n".join(lines) + "\n"
