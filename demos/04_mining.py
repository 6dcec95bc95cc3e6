"""Frequent pattern discovery, with and without the semantic tests.

The miner grows a trie of conjunctive queries about a reference concept.
In the semantic setting each candidate is checked for satisfiability,
semantic freeness, and equivalence to an already-found pattern before its
support is ever evaluated; the non-semantic setting evaluates everything
the syntactic refinement rules produce.  The counters show how much
evaluation work the semantic tests save, and the pattern lists show the
quality difference: no unsatisfiable, redundant, or duplicate patterns.
"""

from fractions import Fraction
from pathlib import Path

from ontominer import MiningConfig, load_kb, mine
from ontominer.miner import MODE_NOSEM, MODE_SEM

kb = load_kb(str(Path(__file__).parent / "bank.kb"))

results = {}
for mode in (MODE_SEM, MODE_NOSEM):
    cfg = MiningConfig("Client", Fraction(1, 2), 3, mode)
    results[mode] = mine(kb, cfg)

print("depth-by-depth counters (gen >= sat >= sfree >= cand >= freq):")
for mode, result in results.items():
    print(f"\n  {mode}  ({result.stats.runtime:.2f}s, "
          f"{len(result.patterns)} frequent patterns)")
    print("  depth  gen  sat  sfree  cand  freq")
    for depth, c in sorted(result.stats.per_depth.items()):
        print(f"  {depth:5d} {c.gen:4d} {c.sat:4d} {c.sfree:6d} "
              f"{c.cand:5d} {c.freq:5d}")

sem, nosem = results[MODE_SEM], results[MODE_NOSEM]
for depth in sorted(nosem.stats.per_depth):
    s, n = sem.stats.per_depth[depth], nosem.stats.per_depth[depth]
    if s.cand:
        print(f"depth {depth}: candidate reduction {n.cand / s.cand:.2f}, "
              f"frequent reduction {n.freq / s.freq:.2f}")

print("\nshortest semantic patterns with their supports:")
for pattern, support in sem.patterns[:8]:
    print(f"  {float(support):.3f}  {pattern}")

# A pattern only the non-semantic run keeps: its last atom is implied by
# the range of isOwnerOf, so the semantic run never evaluates it.
sem_set = {p for p, _ in sem.patterns}
print("\nnon-semantic-only patterns (first three):")
shown = 0
for pattern, support in nosem.patterns:
    if pattern not in sem_set and shown < 3:
        print(f"  {float(support):.3f}  {pattern}")
        shown += 1
