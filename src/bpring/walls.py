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

This module never touches the categorical engine or the closed form; it
shares only the labels, scalars and table type of the shared modules, and
tests/test_import_graph.py checks that it reaches nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bimodules import BimoduleLabel, Decomposition, all_labels
from .cyclotomic import CyclotomicScalar, require_prime, root_of_unity
from .ring import RingTable


class OracleError(RuntimeError):
    pass


class BoundaryType(Enum):
    E_CONDENSING = "e"  # rough
    M_CONDENSING = "m"  # smooth

    def flipped(self) -> "BoundaryType":
        return BoundaryType.M_CONDENSING if self is BoundaryType.E_CONDENSING else BoundaryType.E_CONDENSING


@dataclass(frozen=True)
class BoundaryPair:
    left: BoundaryType
    right: BoundaryType


@dataclass(frozen=True)
class InvertibleWall:
    """Anyon map e^a m^b -> e^(ua+vb) m^(wa+xb), an automorphism of Z_p^2."""

    p: int
    matrix: tuple[tuple[int, int], tuple[int, int]]  # rows act on column (a, b)

    def apply(self, anyon: tuple[int, int]) -> tuple[int, int]:
        a, b = anyon
        (u, v), (w, x) = self.matrix
        return ((u * a + v * b) % self.p, (w * a + x * b) % self.p)

    def swaps_sectors(self) -> bool:
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
    require_prime(p)
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
        k = idx % p
        return InvertibleWall(p, ((k, 0), (0, pow(k, p - 2, p))))
    # F_q, q != 0: e<->m swap composed with X_q
    q = idx % p
    if q == 0:
        raise OracleError("F0 is a boundary pair, not an invertible wall")
    return InvertibleWall(p, ((0, q), (pow(q, p - 2, p), 0)))


def label_of_wall(p: int, wall: WallModel) -> BimoduleLabel:
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
        q = pow(w, p - 2, p)
        if q == 0:
            raise OracleError("antidiagonal wall with vanishing index")
        return BimoduleLabel("F", q)
    raise OracleError(f"wall map {wall.matrix} is not in the image of the catalogue")


def fuse_walls(w1: WallModel, w2: WallModel, p: int) -> Decomposition:
    """Stack w1 (left) against w2 (right) and decompose into labels."""
    require_prime(p)
    if isinstance(w1, BoundaryPair) and isinstance(w2, BoundaryPair):
        mult = p if w1.right == w2.left else 1
        return Decomposition.single(label_of_wall(p, BoundaryPair(w1.left, w2.right)), mult)
    if isinstance(w1, InvertibleWall) and isinstance(w2, InvertibleWall):
        m1, m2 = w1.matrix, w2.matrix
        composite = tuple(
            tuple(sum(m2[i][k] * m1[k][j] for k in range(2)) % p for j in range(2))
            for i in range(2)
        )
        return Decomposition.single(label_of_wall(p, InvertibleWall(p, composite)))
    if isinstance(w1, InvertibleWall):
        face = w2.left.flipped() if w1.swaps_sectors() else w2.left
        return Decomposition.single(label_of_wall(p, BoundaryPair(face, w2.right)))
    face = w1.right.flipped() if w2.swaps_sectors() else w1.right
    return Decomposition.single(label_of_wall(p, BoundaryPair(w1.left, face)))


def oracle_table(p: int) -> RingTable:
    """The full multiplication table computed purely by wall stacking."""
    table = RingTable.empty(p)
    walls = {label: wall_of(p, label) for label in all_labels(p)}
    for a in table.basis:
        for b in table.basis:
            table.set_product(a, b, fuse_walls(walls[a], walls[b], p))
    return table


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
