"""Outer actions as full tables, the orbit search, the p^2 stabilizer scan and the plain witness route.

The library walks the orbits as cycles of the two commuting step
permutations and reads each orbit's stabilizer from the orbit's size; these
are the brute-force oracles it is tested against.  rotated_action is the
outer action with every rung rotated by its exponent read from the table,
always into a new coefficient dict.  acted_witness_exponent is the witness
associator acting through it on every connector, never reusing an acted
idempotent, and its ratio read on the field oracle (scalar_oracle).
act_on is the library's own action on a morphism: its index-level core
RelativeTensorProduct._act, with the objects named at both ends.
object_witness_path is one witness path on Kar objects, each its idempotent:
it shifts objects through the entries' simple indices, locates each acted
idempotent by its source, and tells a base landing by comparing connectors with the
representative's idempotent, where the library works on object and class
indices.
"""

from bpring.fusion import ClassificationError
from bpring.groups import Subgroup, subgroup_from_elements
from bpring.ladders import LadderMorphism, LadderObject
from kar_oracle import as_oracle
from scalar_oracle import phase_exponent, to_oracle


def action_tables(product) -> tuple[list[list[int]], list[list[int]]]:
    """left[g][i] and right[h][i] as permutations of simple indices, g, h in 0..p-1."""
    lstep, rstep = product._steps
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
    lstep, rstep = product._steps
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


def act_on(product, side: str, g: int, f: LadderMorphism) -> LadderMorphism:
    """f acted on by g on side through the library's action core, sharing its coefficient dict when no rung rotates."""
    lad = product.lad
    s, t, coeffs = product._act(side, g % product.p, lad.object_index(f.source), lad.object_index(f.target), f.coeffs)
    return LadderMorphism._nonzero(lad.object_at(s), lad.object_at(t), coeffs)


def rotated_action(product, side: str, g: int, f: LadderMorphism) -> LadderMorphism:
    """f acted on by g on side, each rung b rotated by its exponent read from the mixed table.

    On the left the M leg moves by M.left[g] and rung b is multiplied by
    zeta^M.mixed[g][i][b], i the index of the target's M leg; on the right
    the N leg moves by N.right[g] and rung b by zeta^N.mixed[b][j][g], j the
    index of the source's N leg.  The result never shares f's coefficient
    dict, whatever the exponents.
    """
    p, M, N = product.p, product.M, product.N
    g %= p
    s, t = f.source, f.target
    if side == "left":
        move = M.left[g]
        source = LadderObject(M.simples[move[M.index[s.m]]], s.n)
        target = LadderObject(M.simples[move[M.index[t.m]]], t.n)
        exponents = M.mixed[g][M.index[t.m]]
        coeffs = {b: c.rotate(exponents[b]) for b, c in f.coeffs.items()}
    else:
        move = N.right[g]
        source = LadderObject(s.m, N.simples[move[N.index[s.n]]])
        target = LadderObject(t.m, N.simples[move[N.index[t.n]]])
        j, mixed = N.index[s.n], N.mixed
        coeffs = {b: c.rotate(mixed[b][j][g]) for b, c in f.coeffs.items()}
    return LadderMorphism(source, target, coeffs)


def acted_witness_exponent(product, g: int, h: int, simple) -> int:
    """k with (left-g then right-h) = zeta^k (right-h then left-g), every connector acted on by rotated_action."""
    env = product.env
    paths = []
    for first, a, second, b in (("right", h, "left", g), ("left", g, "right", h)):
        shifted = rotated_action(product, first, a, simple.representative)
        c1, u1 = env.locate(shifted)
        acted = rotated_action(product, second, b, env.representative(c1))
        c2, u2 = env.locate(acted)
        paths.append((c2, product.lad.compose(rotated_action(product, second, b, u1), u2)))
    (c_rl, path_rl), (c_lr, path_lr) = paths
    if c_rl != c_lr or path_rl.source != path_lr.source or path_rl.coeffs.keys() != path_lr.coeffs.keys():
        raise ClassificationError("the two witness paths do not land in one Hom space")
    b, c = next(iter(path_rl.coeffs.items()))
    ratio = to_oracle(path_lr.coeffs[b]) / to_oracle(c)
    if as_oracle(path_lr) != as_oracle(path_rl).scale(ratio):
        raise ClassificationError("witness paths are not proportional")
    k = phase_exponent(ratio)
    if k is None:
        raise ClassificationError(f"associator ratio {ratio!r} is not a root of unity")
    return k


def object_witness_path(product, first: str, a: int, second: str, b: int, rep: LadderMorphism):
    """(landing class, path) of acting by a on side first, then by b on side second, from the idempotent rep.

    The path acts, locates the acted idempotent, acts on the landing class's
    representative, locates again, and is the acted first connector u
    followed by the second u2.  When u is the representative's own
    idempotent, sharing its coefficient dict and with its endpoints, the
    acted idempotent stands for the acted u; if u2 is then an endomorphism,
    a base's idempotent e, the path is u2 (e followed by e is e).
    """
    env = product.env
    c1, u = env.locate(rotated_action(product, first, a, rep))
    rep1 = env.representative(c1)
    acted = rotated_action(product, second, b, rep1)
    c2, u2 = env.locate(acted)
    if u.coeffs is rep1.coeffs and u.source == u.target == rep1.source:
        if u2.source == u2.target:
            return c2, u2
        w = acted
    else:
        w = rotated_action(product, second, b, u)
    return c2, product.lad.compose(w, u2)
