"""The benchmark's workloads, their inputs and their expected outputs.

Every workload mines reference concept ``Client`` at minimum support 1/2.
The golden digests are SHA-256 of ``patterns.txt``, ``stats.csv`` and
``trie.graphml`` as written by ``ontominer mine``; outputs are a
deterministic function of the KB and the configuration, so any other digest
is a behaviour change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

OUTPUT_FILES = ("patterns.txt", "stats.csv", "trie.graphml")
BANK_KB = Path("demos") / "bank.kb"
COMMON_ARGS = ("--ref-concept", "Client", "--minsup", "1/2")
FAMILY_BIAS = ("Client,Account,CreditCard,Property,isOwnerOf,relative,"
               "p_familyAccount,p_man,p_woman")

# Every workload's set-up run (--max-depth 1) yields only the trivial
# pattern, so its outputs are the same everywhere.
SETUP_GOLDEN = (
    "0b19c10e018cd78f858dc4ac40d971211ecd63b6c8edcac97339c9b82c0053c8",
    "f1c7e5fc33fdcc3b8d2577b43a42e8b24700eec6a98731f37570465b4210a3a8",
    "01e5e892b86ea5941873189a3362e4f87a10a0151bb87740155fc5e9269bf2f2",
)


@dataclass(frozen=True)
class Workload:
    name: str
    mode_args: tuple[str, ...]
    golden: tuple[str, str, str]
    abox_copies: int = 1
    # Same configuration in nosem mode, run in the traced sample set for the
    # sem/nosem ratio; only the semantic workload has one.
    nosem_golden: Optional[tuple[str, str, str]] = None

    def args(self, kb: Path, max_depth: Optional[int] = None,
             mode: Optional[str] = None) -> list[str]:
        """``ontominer`` arguments, with the depth or mode replaced if given."""
        margs = list(self.mode_args)
        for flag, value in (("--max-depth", max_depth), ("--mode", mode)):
            if value is not None:
                margs[margs.index(flag) + 1] = str(value)
        return ["mine", "--kb", str(kb), *COMMON_ARGS, *margs]


WORKLOADS = {w.name: w for w in (
    Workload(
        "bank-sem-d4-family",
        ("--mode", "sem", "--max-depth", "4", "--bias", FAMILY_BIAS),
        golden=(
            "af6a6457a8581d6411fa5b8399eacbc494e82b84d9ce4be082a9d7310b50b765",
            "10fca7e7bb1c4970c1ec8a8155cd118cb49ad5fda44f147a95ed05b8ae64faf4",
            "5ac2f4fa69d9694670872596e30d8d6504db9c1050f7e9d1917db777af5ffa09",
        ),
        nosem_golden=(
            "a91205a6b4f7e7d399d9ff5bb2759a6b4f25408ce5df38644df1180859a0a2b6",
            "6dd67ff5a2a933d9f1e8e6022ded722b788bbff905f194541f8f4b8f2b8513d8",
            "e6f6d8c5ac2f9e72836b634e3b992226e074432c6fb3715dd52f54890066fd61",
        )),
    Workload(
        "bank-nosem-d4",
        ("--mode", "nosem", "--max-depth", "4"),
        golden=(
            "d93f648027f85630d97e44c2b4ff358750c470a27914593711e33af0e1925a4e",
            "15a915d543937a26460fc8f862b5763afc3ecd7a1198994562e482025c3c05fb",
            "b315b7a594d4d97092a2889ec8b77cdf06938a4e1b596abfe7acf2986f660dd8",
        )),
    Workload(
        "bankx4-nosem-d3",
        ("--mode", "nosem", "--max-depth", "3"),
        golden=(
            "34a6a04ac93c927e482a1a9ca6a207c11321e9211eda9505bb24f69f445fe468",
            "20afc4422ea448122b32c69f41b8469e33c7e5439b8050da3f7fecd0022c9b42",
            "5d313b5eb08f90407fbe230a62c3101a207f81c74d924eaa4589136ad949d1cf",
        ),
        abox_copies=4),
)}

_ABOX_HEADS = ("(fact ", "(related ", "(instance ")


def replicate_abox(base: str, copies: int, seed: int) -> str:
    """The base KB's terminology and rules, unchanged, followed by
    ``copies`` copies of its ABox.  Each copy renames every individual to a
    fresh seeded name, and the facts of all copies are shuffled together.

    Copies share no individual, so each chase branch point occurs once per
    copy and the model count is the base count to the power ``copies``,
    while every support ratio, and so every output file, stays that of the
    base KB.
    """
    rng = random.Random(seed)
    kept: list[str] = []
    facts: list[list[str]] = []
    for line in base.splitlines():
        text = line.strip()
        if text.startswith(_ABOX_HEADS):
            if not text.endswith(")") or "(" in text[1:]:
                raise ValueError(f"cannot replicate nested fact: {text}")
            facts.append(text[1:-1].split())
        else:
            kept.append(line)
    individuals = sorted({t for f in facts for t in f[2:]})
    taken = set(base.replace("(", " ").replace(")", " ").split())
    names: set[str] = set()
    while len(names) < copies * len(individuals):
        name = f"i{rng.getrandbits(32):08x}"
        if name not in taken:
            names.add(name)
    # Handing out the names in sorted order keeps the order of the
    # individuals, which the chase and the model order follow, the same for
    # every seed, so the seed changes the input but not the work.
    fresh = iter(sorted(names))
    out: list[str] = []
    for _ in range(copies):
        rename = {ind: next(fresh) for ind in individuals}
        for f in facts:
            out.append(f"({' '.join(f[:2] + [rename[t] for t in f[2:]])})")
    rng.shuffle(out)
    return "\n".join(kept + out) + "\n"


def make_kb(workload: Workload, seed: int, work: Path) -> Path:
    """The KB file the workload mines; generated ones go under ``work``."""
    if workload.abox_copies == 1:
        return BANK_KB
    text = replicate_abox(BANK_KB.read_text(encoding="utf-8"),
                          workload.abox_copies, seed)
    path = work / f"bankx{workload.abox_copies}-seed{seed}.kb"
    path.write_text(text, encoding="utf-8")
    return path
