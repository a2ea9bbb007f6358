"""The domain walls as point sets of the folded double, kept as an oracle for the tests.

A point of D(Z_p) + D(Z_p)^rev is (c1, h1, c2, h2): the charge and flux of
the left anyon, then of the right.  Its spin is c1*h1 - c2*h2 mod p, and a
gapped wall is a Lagrangian subgroup, a 2-dimensional subspace of F_p^4 on
which the spin vanishes.  bpring.walls reads each wall from a two-vector
basis and stacks walls on their matrices and faces; the functions here work
on whole sets of points:

- lagrangian(p, gens, q) is L(H, q) = {(c1, h1, c2, -h2) : h in H,
  c|_H = q*(h1*y - h2*x)}, found by trying every h in H and every c;
- wall_points(p, wall) is the set of points of a wall model: the graph of an
  invertible wall's anyon map, or a boundary pair's left line times its right
  line (zero flux for an e face, zero charge for an m face);
- compose(L1, L2) is the relation L1 followed by L2 and its multiplicity
  |{y : (0, y) in L1, (y, 0) in L2}|;
- lagrangian_subgroups(p) enumerates every Lagrangian subgroup, one per
  2-dimensional subspace of F_p^4 in reduced row echelon form;
- spin(p, anyon) is a*b mod p for e^a m^b;
- label_of_wall(p, wall) names a wall model by the inverse of wall_of that
  bpring.walls builds, as fuse_walls names its inputs.
"""

from itertools import combinations, product

from bpring import walls
from bpring.walls import BoundaryPair, BoundaryType


def spin(p: int, anyon) -> int:
    """The topological spin exponent a*b mod p of e^a m^b."""
    a, b = anyon
    return a * b % p


def _span(p: int, gens) -> set:
    """Every Z_p combination of the vectors gens, as tuples."""
    dim = len(gens[0]) if gens else 2
    return {tuple(sum(n * g[i] for n, g in zip(coeffs, gens)) % p for i in range(dim))
            for coeffs in product(range(p), repeat=len(gens))}


def lagrangian(p: int, gens, q: int) -> frozenset:
    """L(H, q) for H generated by gens in Z_p x Z_p, point by point from its definition."""
    points = set()
    for h1, h2 in _span(p, gens):
        for c1, c2 in product(range(p), repeat=2):
            # c|_H = q*(h1*y - h2*x) holds on all of H when it holds on its generators
            if all((c1 * x + c2 * y - q * (h1 * y - h2 * x)) % p == 0 for x, y in gens):
                points.add((c1, h1, c2, -h2 % p))
    return frozenset(points)


def _line(p: int, face: BoundaryType) -> list:
    """The anyons a boundary condenses: the charges e^a, or the fluxes m^b."""
    return [(a, 0) if face is BoundaryType.E_CONDENSING else (0, a) for a in range(p)]


def wall_points(p: int, wall) -> frozenset:
    """The points (left anyon, right anyon) that a wall model relates."""
    if isinstance(wall, BoundaryPair):
        return frozenset(x + y for x in _line(p, wall.left) for y in _line(p, wall.right))
    return frozenset(x + wall.apply(x) for x in product(range(p), repeat=2))


def compose(l1: frozenset, l2: frozenset) -> tuple[frozenset, int]:
    """The relation l1 followed by l2, {(x, z) : (x, y) in l1 and (y, z) in l2 for some y}, and its multiplicity."""
    after = {}
    for point in l2:
        after.setdefault(point[:2], []).append(point[2:])
    composite = frozenset(point[:2] + z for point in l1 for z in after.get(point[2:], ()))
    mult = sum(1 for point in l1 if point[:2] == (0, 0) and point[2:] + (0, 0) in l2)
    return composite, mult


def _isotropic(p: int, v) -> bool:
    c1, h1, c2, h2 = v
    return (c1 * h1 - c2 * h2) % p == 0


def lagrangian_subgroups(p: int) -> list[frozenset]:
    """Every 2-dimensional subspace of F_p^4 on which c1*h1 - c2*h2 vanishes, as a set of points."""
    out = []
    for i, j in combinations(range(4), 2):  # the pivot columns of the two rows
        free_v = [col for col in range(i + 1, 4) if col != j]
        free_w = list(range(j + 1, 4))
        for entries_v in product(range(p), repeat=len(free_v)):
            v = [0] * 4
            v[i] = 1
            for col, x in zip(free_v, entries_v):
                v[col] = x
            for entries_w in product(range(p), repeat=len(free_w)):
                w = [0] * 4
                w[j] = 1
                for col, x in zip(free_w, entries_w):
                    w[col] = x
                # the spin vanishes on the span when it vanishes on v, w and v + w
                if _isotropic(p, v) and _isotropic(p, w) and _isotropic(p, [a + b for a, b in zip(v, w)]):
                    out.append(frozenset(_span(p, [v, w])))
    return out


def label_of_wall(p: int, wall):
    """The basis label whose wall is wall.

    A wall of another prime raises ValueError, and any other wall that is no
    basis label's raises OracleError.
    """
    labels, _, index_of = walls._basis_walls(p)
    return labels[walls._named(p, wall, index_of)]
