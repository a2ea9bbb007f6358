"""Outer actions as full tables, the orbit search, the p^2 stabilizer scan and the plain witness route.

The library walks the orbits as cycles of the two commuting step
permutations and reads each orbit's stabilizer from the orbit's size; these
are the brute-force oracles it is tested against.  acted_witness_exponent
is the witness associator with every connector acted on, never reusing an
acted idempotent, and its ratio read with full scalar products.
"""

from bpring.cyclotomic import phase_exponent
from bpring.fusion import ClassificationError
from bpring.groups import Subgroup, subgroup_from_elements
from bpring.karoubi import KarObject


def action_tables(product) -> tuple[list[list[int]], list[list[int]]]:
    """left[g][i] and right[h][i] as permutations of simple indices, g, h in 0..p-1."""
    lstep, rstep = product._step_tables()
    n = len(product.simples)
    left = [list(range(n))]
    right = [list(range(n))]
    for _ in range(1, product.p):
        left.append([lstep[i] for i in left[-1]])
        right.append([rstep[i] for i in right[-1]])
    return left, right


def orbit_stabilizer(product, i: int) -> Subgroup:
    """{(g, h) : right[h][left[g][i]] == i}, scanned over all p^2 pairs."""
    left, right = action_tables(product)
    p = product.p
    elts = [(g, h) for g in range(p) for h in range(p) if right[h][left[g][i]] == i]
    return subgroup_from_elements(p, elts)


def search_orbits(product) -> list[list[int]]:
    """Orbits of the two step permutations, each grown by a search over a set."""
    lstep, rstep = product._step_tables()
    seen: set[int] = set()
    out = []
    for i in range(len(lstep)):
        if i in seen:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            x = frontier.pop()
            for y in (lstep[x], rstep[x]):
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        out.append(sorted(orbit))
        seen.update(orbit)
    return out


def acted_witness_exponent(product, g: int, h: int, simple) -> int:
    """k with (left-g then right-h) = zeta^k (right-h then left-g), every connector acted on."""
    env, act = product.env, {"left": product.act_left, "right": product.act_right}
    paths = []
    for first, a, second, b in (("right", h, "left", g), ("left", g, "right", h)):
        shifted = act[first](a, simple.representative.idem)
        c1, u1 = env.locate(KarObject(shifted.source, shifted))
        acted = act[second](b, env.representative(c1).idem)
        c2, u2 = env.locate(KarObject(acted.source, acted))
        paths.append((c2, product.lad.compose(act[second](b, u1), u2)))
    (c_rl, path_rl), (c_lr, path_lr) = paths
    if c_rl != c_lr or path_rl.source != path_lr.source or path_rl.coeffs.keys() != path_lr.coeffs.keys():
        raise ClassificationError("the two witness paths do not land in one Hom space")
    b, c = next(iter(path_rl.coeffs.items()))
    ratio = path_lr.coeffs[b] / c
    if path_lr != path_rl.scale(ratio):
        raise ClassificationError("witness paths are not proportional")
    k = phase_exponent(ratio)
    if k is None:
        raise ClassificationError(f"associator ratio {ratio!r} is not a root of unity")
    return k
