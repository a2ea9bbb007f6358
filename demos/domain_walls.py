#!/usr/bin/env python3
"""The lattice domain-wall picture, and the cross-check it provides.

Each bimodule label corresponds to a domain wall of the Z_p quantum double,
read from a Lagrangian subgroup of the folded double: the four non-invertible
labels are pairs of gapped boundaries (each condensing the e or m sector), and
the invertible labels act as automorphisms of the anyon lattice.  Stacking walls reproduces the entire multiplication table
without ever touching the categorical engine, giving an independent oracle.
"""

from bpring import (
    BimoduleLabel,
    all_labels,
    build_table,
    diff_tables,
    fuse_walls,
    oracle_table,
    wall_of,
)

p = 3

print(f"wall assignments at p={p}:")
for label in all_labels(p):
    wall = wall_of(p, label)
    print(f"  {label}: {wall}")
print()

# the strip rule: matching inner boundary faces leave a closed strip of the
# phase carrying p states; mismatched faces give a unique state
T, L, R = BimoduleLabel("T"), BimoduleLabel("L"), BimoduleLabel("R")
print(f"T (x) T -> {fuse_walls(wall_of(p, T), wall_of(p, T), p)}   (matching faces, strip holds {p} states)")
print(f"T (x) L -> {fuse_walls(wall_of(p, T), wall_of(p, L), p)}    (mismatched faces, unique state)")
print(f"L (x) R -> {fuse_walls(wall_of(p, L), wall_of(p, R), p)}")
print()

# invertible walls act on dyon labels e^a m^b; X-type preserves the two
# sectors and F-type exchanges them
x2 = wall_of(p, BimoduleLabel("X", 2))
f1 = wall_of(p, BimoduleLabel("F", 1))
print(f"X2 moves e^1 m^1 -> e^{x2.apply((1, 1))[0]} m^{x2.apply((1, 1))[1]}")
print(f"F1 moves e^1 m^0 -> e^{f1.apply((1, 0))[0]} m^{f1.apply((1, 0))[1]}")
print()

# the whole table, by wall stacking alone, agrees with the engine
engine = build_table(p)
oracle = oracle_table(p)
diffs = diff_tables(engine, oracle)
print(f"oracle vs engine at p={p}: {len(diffs)} mismatches over {len(engine.basis) ** 2} products")
