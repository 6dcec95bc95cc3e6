"""Models checked against committed goldens: the full-KB chase of each demo
KB and the frozen chases of a few bank queries.  The benchmark's digests
cover mined patterns only, so these pin what the chase itself returns.
The goldens are ``format_models`` output; CI also compares
``ontominer mine --dump-models`` of ``bank.kb`` with ``bank.models``."""

from pathlib import Path

import pytest

from ontominer import load_kb
from ontominer import model as m
from ontominer.clausify import clausify
from ontominer.reasoner import QuerySpec, SemanticContext, chase, format_models

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
KEY = m.Var("key")

# Bank queries as (predicate, arguments) atoms; "key" is the key.
FROZEN = (
    (("Client", "key"), ("isOwnerOf", "key", "x1")),
    (("Client", "key"), ("relative", "key", "x1")),
    (("Account", "key"), ("hasMortgage", "key", "x1")),
    (("isOwnerOf", "key", "x1"), ("Account", "x1"),
     ("isOwnerOf", "x2", "x1"), ("relative", "key", "x2")),
)


def frozen_models(kb) -> str:
    """Each ``FROZEN`` query, then the models of its frozen chase."""
    ctx = SemanticContext(kb.without_abox())
    blocks = []
    for atoms in FROZEN:
        q = QuerySpec(KEY, tuple(m.Atom(pred, tuple(
            KEY if t == "key" else m.Var(t) for t in args),
            kb.predicate(pred).kind) for pred, *args in atoms))
        facts, consts = ctx._freeze(q)
        ms = chase(ctx.program, facts, ctx.cfg, consts)
        blocks.append(f"% {q}\n{format_models(ms)}")
    return "".join(blocks)


@pytest.mark.parametrize("name", ["bank", "bank_inverse", "pat"])
def test_full_chase_models_match_golden(name):
    kb = load_kb(str(ROOT / "demos" / f"{name}.kb"))
    got = format_models(chase(clausify(kb), kb.abox))
    assert got == (GOLDEN / f"{name}.models").read_text(encoding="utf-8")


def test_frozen_bank_models_match_golden():
    kb = load_kb(str(ROOT / "demos" / "bank.kb"))
    assert frozen_models(kb) == (GOLDEN / "bank_frozen.models").read_text(
        encoding="utf-8")
