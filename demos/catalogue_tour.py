#!/usr/bin/env python3
"""Tour of the indecomposable Vec(Z_p)-Vec(Z_p) bimodule catalogue.

Every indecomposable bimodule is determined by a subgroup of Z_p x Z_p together
with a cocycle index, and the catalogue realises each one concretely: simple
objects labelled by cosets, left/right Z_p action tables, and scalar
associator phases.  Below we walk the p = 3 catalogue and check coherence.
"""

from bpring import catalogue, enumerate_subgroups, label_invariants, validate

p = 3

print(f"subgroups of Z_{p} x Z_{p}:")
for sub in enumerate_subgroups(p):
    print(f"  {sub}  (order {sub.order})")
print()

entries = catalogue(p)
print(f"catalogue at p={p}: {len(entries)} indecomposables (expected 2p+2 = {2 * p + 2})")
print()

for entry in entries:
    subgroup, q = label_invariants(p, entry.label)
    invertible = "invertible" if entry.label.is_invertible() else "non-invertible"
    print(f"{entry.label}: subgroup {subgroup}, {len(entry.simples)} objects, {invertible}")
    print(f"  simples: {list(entry.simples)}")
    # the left/right action of the generator 1, as object permutations
    left = {m: entry.simples[i] for m, i in zip(entry.simples, entry.left[1])}
    right = {m: entry.simples[i] for m, i in zip(entry.simples, entry.right[1])}
    print(f"  left 1:  {left}")
    print(f"  right 1: {right}")
    print(f"  mixed associator exponent: {q}")
    violations = validate(entry)
    print(f"  coherence violations: {violations or 'none'}")
    print()

# every entry's stabilizer subgroup {(g,h) : g > m < h = m} recovers the
# subgroup of its label, independent of the chosen simple m
for entry in entries:
    stabs = {entry.stabilizer_of(i) for i in range(len(entry.simples))}
    assert stabs == {label_invariants(p, entry.label)[0]}
print("stabilizer of every simple matches the stored subgroup: ok")
