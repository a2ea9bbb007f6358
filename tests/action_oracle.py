"""The outer actions on simples as full tables, the orbit search and the p^2 stabilizer scan.

The library walks the orbits as cycles of the two commuting step
permutations and reads each orbit's stabilizer from the orbit's size; these
are the brute-force oracles it is tested against.
"""

from bpring.groups import Subgroup, subgroup_from_elements


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
