"""Domain-wall model of the bimodule labels, used as a cross-check.

By the folding trick, a gapped domain wall of the Z_p quantum double D(Z_p)
is a Lagrangian subgroup L of D(Z_p) + D(Z_p)^rev (Kitaev-Kong,
arXiv:1104.5047).  Write the anyon e^a m^b as (charge a, flux b) and a point
of the folded double as (c1, h1, c2, h2), the left anyon and then the right.
The spin of a point is c1*h1 - c2*h2 mod p, and L is a 2-dimensional subspace
of F_p^4 on which the spin vanishes (L is isotropic).

wall_of reads every wall by one rule, (H, q) -> L -> wall:

- (H, q) is the label's subgroup H of Z_p x Z_p and its cocycle index q
  (Etingof-Nikshych-Ostrik, arXiv:0909.3140), read from this module's own
  table, _invariants, not from bimodules.label_invariants, which the engine
  reads; a test compares the two.
- L = {(c1, h1, c2, -h2) : h in H, c|_H = q*(h1*y - h2*x)}.  It is spanned by
  (-q*h2, h1, q*h1, -h2) for each generator h of H and (c1, 0, c2, 0) for
  each generator c of the annihilator of H.  An L that is not isotropic
  raises OracleError.
- When the left 2x2 block of that basis is invertible, L is the graph of the
  anyon map right . left^-1, an InvertibleWall.  Otherwise L is a left line
  times a right line, a BoundaryPair: a side whose fluxes are all zero
  condenses e, and any other side condenses m.

Nothing here was fitted to the table it checks:

- The -h2 sign is forced by isotropy: D(G x G) is D(G) + D(G)^rev only after
  h2 -> -h2.  With +h2, the X_k and F_q (q != 0) subgroups are not isotropic
  at any odd p.
- The table cannot fix the sign of q, since F_q -> F_(-q) is a ring
  automorphism.  The catalogue's convention fixes it: the mixed exponent of
  F_q is q*g*h, and L pairs (g, 0) with (0, h) by the same q*g*h.
- The stacking order is forced.  A particle that crosses w1 and then w2 is
  moved by map(w2) o map(w1), which is the composition of the relation L1
  followed by L2.  Stacking in the reverse order gets 28, 68 and 132 cells
  wrong at p = 3, 5, 7.

_stack is that relation composition, worked out on graphs and products.  Its
multiplicity is |{y : (0, y) in L1, (y, 0) in L2}|: fusing two boundary pairs
whose inner faces condense the same sector leaves a closed strip carrying p
states, and any other pair leaves a unique state.

A wall is named by the inverse of wall_of over the basis, built afresh on
every call, and a wall that is no basis label's, or one that two labels
share, raises OracleError.  fuse_walls names both its inputs that way before
it stacks them.  oracle_table fills the table by basis index, a row at a
time: one wall_of per basis label, _stack and one lookup in the inverse per
cell, and the sector check once per invertible wall; RingTable.from_cells
stores each row's (basis index, multiplicity) pairs as one-pair sparse cells.

This module never touches the categorical engine or the closed form; it
shares only the labels and the table type of the shared modules, and
tests/test_import_graph.py checks that it reaches nothing else.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import cached_property

from .bimodules import BimoduleLabel, Decomposition, all_labels, basis_index
from .cyclotomic import require_prime
from .ring import RingTable


class OracleError(RuntimeError):
    pass


class BoundaryType(Enum):
    E_CONDENSING = "e"  # rough
    M_CONDENSING = "m"  # smooth

    def flipped(self) -> "BoundaryType":
        return BoundaryType.M_CONDENSING if self is BoundaryType.E_CONDENSING else BoundaryType.E_CONDENSING


class BoundaryPair(namedtuple("BoundaryPair", "left right")):
    """A non-invertible wall: the BoundaryType of its left and of its right boundary."""

    __slots__ = ()


class InvertibleWall(namedtuple("InvertibleWall", "p matrix")):
    """Anyon map e^a m^b -> e^(ua+vb) m^(wa+xb), an automorphism of Z_p^2.

    matrix is ((u, v), (w, x)): its rows act on the column (a, b).
    """

    def apply(self, anyon: tuple[int, int]) -> tuple[int, int]:
        a, b = anyon
        (u, v), (w, x) = self.matrix
        return ((u * a + v * b) % self.p, (w * a + x * b) % self.p)

    def swaps_sectors(self) -> bool:
        return self._swaps

    @cached_property
    def _swaps(self) -> bool:
        """swaps_sectors, worked out once per wall; a failed check is not kept and raises again."""
        e_image = self.apply((1, 0))
        m_image = self.apply((0, 1))
        if e_image[1] == 0 and m_image[0] == 0:
            return False
        if e_image[0] == 0 and m_image[1] == 0:
            return True
        raise OracleError(f"wall map {self.matrix} does not preserve or swap the sectors")


WallModel = BoundaryPair | InvertibleWall

_E = BoundaryType.E_CONDENSING
_M = BoundaryType.M_CONDENSING


# H of T, L and R; X_k and F_q are read from their index
_BOUNDARY_H = {"T": (), "L": ((1, 0),), "R": ((0, 1),)}


def _invariants(p: int, label: BimoduleLabel) -> tuple[tuple[tuple[int, int], ...], int]:
    """(H, q) of a basis label: generators of H in Z_p x Z_p, as (left, right) pairs, and q.

    H is trivial for T, <(1,0)> for L, <(0,1)> for R, <(-k,1)> for X_k and
    the whole group for F_q; q is the index of F_q and 0 elsewhere.  A label
    outside the basis at p raises ValueError, as in basis_index.
    """
    basis_index(p, label)
    kind, idx = label.kind, label.index
    if kind == "F":
        return ((1, 0), (0, 1)), idx
    if kind == "X":
        return ((-idx % p, 1),), 0
    return _BOUNDARY_H[kind], 0


def wall_of(p: int, label: BimoduleLabel) -> WallModel:
    """The wall of a basis label, read from its Lagrangian subgroup; a label outside the basis at p raises ValueError.

    An L that is not isotropic raises OracleError.
    """
    require_prime(p)
    gens, q = _invariants(p, label)
    # the annihilator of H: all of Z_p^2 for H = 0, the line through (-h2, h1) for H = <h>, 0 for H = Z_p^2
    perp = ((1, 0), (0, 1)) if not gens else ((-gens[0][1] % p, gens[0][0]),) if len(gens) == 1 else ()
    basis = [(-q * h2 % p, h1, q * h1 % p, -h2 % p) for h1, h2 in gens] + [(c1, 0, c2, 0) for c1, c2 in perp]
    (a, b, e, f), (c, d, g, h) = basis
    # the spin c1*h1 - c2*h2 vanishes on L when it vanishes on both basis vectors and their pairing does
    if (a * b - e * f) % p or (c * d - g * h) % p or (a * d + c * b - e * h - g * f) % p:
        raise OracleError(f"the subgroup L of {label} at p={p} is not isotropic for c1*h1 - c2*h2")
    det = (a * d - b * c) % p
    if det:  # the graph of right . left^-1, with left = ((a, c), (b, d)) and right = ((e, g), (f, h))
        r = pow(det, p - 2, p)
        return InvertibleWall(p, (((e * d - g * b) * r % p, (g * a - e * c) * r % p),
                                  ((f * d - h * b) * r % p, (h * a - f * c) * r % p)))
    return BoundaryPair(_E if b == d == 0 else _M, _E if f == h == 0 else _M)


def _same_prime(p: int, wall: WallModel) -> None:
    """Raise ValueError when wall is an invertible wall of a prime other than p."""
    if isinstance(wall, InvertibleWall) and wall.p != p:
        raise ValueError(f"a wall at p={wall.p} cannot be stacked or named at p={p}")


def _basis_walls(p: int) -> tuple[list[BimoduleLabel], list[WallModel], dict]:
    """The basis labels at p, their walls, and the inverse of wall_of (wall -> basis index)."""
    labels = all_labels(p)
    walls = [wall_of(p, label) for label in labels]
    index_of = {}
    for k, wall in enumerate(walls):
        first = index_of.setdefault(wall, k)
        if first != k:
            raise OracleError(f"labels {labels[first]} and {labels[k]} share the wall {wall!r}")
    return labels, walls, index_of


def _unnamed(p: int, wall: WallModel) -> OracleError:
    return OracleError(f"{wall!r} is the wall of no basis label at p={p}")


def label_of_wall(p: int, wall: WallModel) -> BimoduleLabel:
    """The basis label whose wall is wall; an invertible wall of another prime raises ValueError."""
    _same_prime(p, wall)
    labels, _, index_of = _basis_walls(p)
    try:
        return labels[index_of[wall]]
    except (KeyError, TypeError):  # TypeError: a wall whose matrix is unhashable, e.g. a list
        raise _unnamed(p, wall) from None


def _stack(w1: WallModel, w2: WallModel, p: int) -> tuple[WallModel, int]:
    """Stack w1 (left) against w2 (right): the resulting wall and its multiplicity."""
    if isinstance(w1, BoundaryPair):
        if isinstance(w2, BoundaryPair):
            return BoundaryPair(w1.left, w2.right), (p if w1.right == w2.left else 1)
        face = w1.right.flipped() if w2.swaps_sectors() else w1.right
        return BoundaryPair(w1.left, face), 1
    if isinstance(w2, BoundaryPair):
        face = w2.left.flipped() if w1.swaps_sectors() else w2.left
        return BoundaryPair(face, w2.right), 1
    # a particle crosses w1 and then w2: the composite map(w2) o map(w1)
    (a, b), (c, d) = w2.matrix
    (e, f), (g, h) = w1.matrix
    composite = (((a * e + b * g) % p, (a * f + b * h) % p), ((c * e + d * g) % p, (c * f + d * h) % p))
    return InvertibleWall(p, composite), 1


def fuse_walls(w1: WallModel, w2: WallModel, p: int) -> Decomposition:
    """Stack w1 (left) against w2 (right) and decompose into labels.

    Both walls are named first, as label_of_wall names them: a wall of
    another prime raises ValueError, and any other wall that is no basis
    label's raises OracleError.
    """
    require_prime(p)
    _same_prime(p, w1)
    _same_prime(p, w2)
    label_of_wall(p, w1)
    label_of_wall(p, w2)
    wall, mult = _stack(w1, w2, p)
    return Decomposition.single(label_of_wall(p, wall), mult)


def oracle_table(p: int) -> RingTable:
    """The full multiplication table computed purely by wall stacking.

    Each cell is stacked as fuse_walls stacks it and named, as label_of_wall
    names a wall, by the one inverse of wall_of that this call builds.
    """
    _, walls, index_of = _basis_walls(p)
    rows = []
    for w1 in walls:
        row = []
        for w2 in walls:
            wall, mult = _stack(w1, w2, p)
            k = index_of.get(wall)
            if k is None:
                raise _unnamed(p, wall)
            row.append((k, mult))
        rows.append(row)
    return RingTable.from_cells(p, rows)
