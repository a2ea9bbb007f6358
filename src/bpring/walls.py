"""Lattice domain-wall model of the bimodule labels, used as a cross-check.

Non-invertible walls are a pair of gapped boundaries (each condensing the e or
the m sector); invertible walls are linear automorphisms of the anyon labels
e^a m^b.  Stacking walls left-to-right composes: a particle crossing wall w1
and then w2 is transformed by map(w2) o map(w1).  Fusing two boundary pairs
whose inner faces condense the same sector leaves a closed strip carrying p
states, hence multiplicity p; mismatched inner faces give a unique state.

The wall assignments are T=(e,e), L=(m,e), R=(e,m), F0=(m,m),
X_k: e^a m^b -> e^(ka) m^(b/k), F1: e^a m^b -> e^b m^a, with F_q the e<->m
swap followed by X_q.  The composition order for F_q and for stacking was
calibrated once against the multiplication table at p=5 and then frozen.

Stacking is one label-free step, _stack, which returns the resulting wall and
its multiplicity; fuse_walls names that wall with label_of_wall.
oracle_table fills the table by basis index, a row at a time: one wall_of
per basis label, the stacking step per cell, the sector check once per
invertible wall, and label_of_wall once per distinct resulting wall, kept in
a memo that lives for the one call.  Each row is a list of (basis index,
multiplicity) pairs, which RingTable.from_cells stores as one-pair sparse
cells.

This module never touches the categorical engine or the closed form; it
shares only the labels, scalars and table type of the shared modules, and
tests/test_import_graph.py checks that it reaches nothing else.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import cached_property

from .bimodules import BimoduleLabel, Decomposition, all_labels, basis_index
from .cyclotomic import CyclotomicScalar, require_prime, root_of_unity
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


def wall_of(p: int, label: BimoduleLabel) -> WallModel:
    """The wall of a basis label; a label outside the basis at p raises ValueError."""
    require_prime(p)
    basis_index(p, label)
    kind, idx = label.kind, label.index
    if kind == "T":
        return BoundaryPair(_E, _E)
    if kind == "L":
        return BoundaryPair(_M, _E)
    if kind == "R":
        return BoundaryPair(_E, _M)
    if kind == "F" and idx == 0:
        return BoundaryPair(_M, _M)
    if kind == "X":
        return InvertibleWall(p, ((idx, 0), (0, pow(idx, p - 2, p))))
    # F_q, q != 0: e<->m swap composed with X_q
    return InvertibleWall(p, ((0, idx), (pow(idx, p - 2, p), 0)))


def _same_prime(p: int, wall: WallModel) -> None:
    """Raise ValueError when wall is an invertible wall of a prime other than p."""
    if isinstance(wall, InvertibleWall) and wall.p != p:
        raise ValueError(f"a wall at p={wall.p} cannot be stacked or named at p={p}")


def label_of_wall(p: int, wall: WallModel) -> BimoduleLabel:
    """The basis label of wall at p; an invertible wall of another prime raises ValueError."""
    _same_prime(p, wall)
    if isinstance(wall, BoundaryPair):
        key = (wall.left, wall.right)
        return {
            (_E, _E): BimoduleLabel("T"),
            (_M, _E): BimoduleLabel("L"),
            (_E, _M): BimoduleLabel("R"),
            (_M, _M): BimoduleLabel("F", 0),
        }[key]
    (u, v), (w, x) = wall.matrix
    if v == 0 and w == 0 and u != 0:
        if (u * x) % p != 1:
            raise OracleError(f"diagonal wall map {wall.matrix} is not in the catalogue")
        return BimoduleLabel("X", u)
    if u == 0 and x == 0 and v != 0:
        if (v * w) % p != 1:
            raise OracleError(f"antidiagonal wall map {wall.matrix} is not in the catalogue")
        return BimoduleLabel("F", pow(w, p - 2, p))
    raise OracleError(f"wall map {wall.matrix} is not in the image of the catalogue")


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
    """Stack w1 (left) against w2 (right) and decompose into labels; a wall of another prime raises ValueError."""
    require_prime(p)
    _same_prime(p, w1)
    _same_prime(p, w2)
    wall, mult = _stack(w1, w2, p)
    return Decomposition.single(label_of_wall(p, wall), mult)


def oracle_table(p: int) -> RingTable:
    """The full multiplication table computed purely by wall stacking.

    Each cell is stacked as fuse_walls stacks it, and each distinct resulting
    wall is named by label_of_wall once, at its first cell in row order.
    """
    walls = [wall_of(p, label) for label in all_labels(p)]
    index_of = {}  # stacked wall -> its basis index, for this call only
    rows = []
    for w1 in walls:
        row = []
        for w2 in walls:
            wall, mult = _stack(w1, w2, p)
            k = index_of.get(wall)
            if k is None:
                k = index_of[wall] = basis_index(p, label_of_wall(p, wall))
            row.append((k, mult))
        rows.append(row)
    return RingTable.from_cells(p, rows)


# -- braiding diagnostics --------------------------------------------------------

def mutual_braiding(p: int, x: tuple[int, int], y: tuple[int, int]) -> CyclotomicScalar:
    """Full mutual statistics of dyons e^a m^b and e^c m^d: zeta^(ad + bc)."""
    (a, b), (c, d) = x, y
    return root_of_unity(p, a * d + b * c)


def preserves_braiding(wall: InvertibleWall) -> bool:
    p = wall.p
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if mutual_braiding(p, wall.apply((a, b)), wall.apply((c, d))) != mutual_braiding(
                        p, (a, b), (c, d)
                    ):
                        return False
    return True
