#!/usr/bin/env python3
"""Five instructive relative tensor products, computed step by step.

Each product M (x) N is computed the same way: build the ladder category
Lad(M, N), idempotent-complete it, then classify the outer Z_p actions on the
simples of the completion.  The five examples below exercise every distinct
behaviour: an already-complete envelope, nontrivial idempotents, a correction
ladder re-anchoring the right action, and an associator read-off.
"""

from bpring import RelativeTensorProduct, catalogue_entry, label_parse

p = 3


def product(left_text, right_text):
    return RelativeTensorProduct(
        catalogue_entry(p, label_parse(left_text)), catalogue_entry(p, label_parse(right_text))
    )


def narrate(left_text, right_text):
    prod = product(left_text, right_text)
    a = prod.analyze()
    print(f"--- {left_text} (x) {right_text} at p={p} ---")
    print(f"ladder objects: {a.object_count}")
    dims = ", ".join(f"{count} objects with End of dim {d}" for d, count in sorted(a.end_dimensions.items()))
    print(f"end algebras:   {dims}")
    print(f"karoubi simples: {a.simple_count}")
    for o in a.orbits:
        print(
            f"  orbit of {o.representative}: size {o.size}, stabilizer {o.stabilizer}, "
            f"associator exponent {o.assoc_exponent} -> {o.label}"
        )
    print(f"result: {a.decomposition}")
    print()
    return prod


# 1. T (x) T: the ladder category is already idempotent complete; the p^3
#    classes organise into p blocks of the free bimodule.
tt = narrate("T", "T")

# 2. R (x) F0: every End algebra is the full group algebra C[Z_p]; its
#    character idempotents split each object into p simples.
rf = narrate("R", "F0")
env = rf.env
obj = env.lad.object_at(0)
idems = [env.representative(env.class_at(0) + k) for k in range(env.dimension_at(0))]
print(f"character idempotents on {obj}:")
for k, e in enumerate(idems):
    print(f"  I_{k} = {e!r}")
check = rf.lad.compose(idems[0], idems[1])
print(f"I_0 . I_1 = {check!r} (orthogonal)")
print()

# 3. X_1 (x) X_2: the right action lands off the chosen representatives and a
#    correction ladder re-anchors it, producing the twisted action a -> a+kl*g.
xx = narrate("X1", "X2")
s = xx.simples[0]
act = xx.outer_action(1, "right", s)
print(f"right action of 1 on {s}: target {act.target}, witness {act.witness!r}")
print()

# 4. F_1 (x) F_2: one ladder object with a p-dimensional End algebra; the
#    outer actions shift the character index, leaving an invertible bimodule.
ff = narrate("F1", "F2")

# 5. F_1 (x) X_2: a single simple survives, so only the associator can
#    distinguish the result; its exponent at (g,h)=(1,1) is q*l = 2.
fx = narrate("F1", "X2")
s = fx.simples[0]
for g in range(p):
    row = [fx.mixed_associator(g, h, s) for h in range(p)]
    print(f"associator exponents at g={g}: {row}")
