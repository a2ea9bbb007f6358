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

_stack_row is that relation composition, worked out on graphs and products,
and the one stacking rule: it stacks one wall against a row of walls.  Its
multiplicity is |{y : (0, y) in L1, (y, 0) in L2}|: fusing two boundary pairs
whose inner faces condense the same sector leaves a closed strip carrying p
states, and any other pair leaves a unique state.

A wall is named by the inverse of wall_of over the basis, built afresh on
every call, and a wall that is no basis label's, or one that two labels
share, raises OracleError.  fuse_walls builds that inverse once, names both
its inputs by it, then stacks them as a row of one.  oracle_table fills the
table a row at a time: one wall_of and one sector check per basis label,
then per row of an invertible wall one comprehension over the columns, in
which an invertible x invertible cell is the 2x2 matrix product mod p and a
boundary cell is its two faces.  Each result is a plain tuple equal to the
wall it stands for, so no wall object is built per cell, and the row is
named by one map(index_of.get, ...) in C; RingTable.from_cells stores the
(basis index, multiplicity) pairs as one-pair sparse cells.  BoundaryType
hashes by identity, in C.

This module never touches the categorical engine or the closed form; it
shares only the labels and the table type of the shared modules, and
tests/test_import_graph.py checks that it reaches nothing else.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .bimodules import BimoduleLabel, Decomposition, all_labels, basis_index
from .cyclotomic import require_prime
from .ring import RingTable


class OracleError(RuntimeError):
    pass


class BoundaryType(Enum):
    E_CONDENSING = "e"  # rough
    M_CONDENSING = "m"  # smooth

    # a member is its own one instance: hashed by identity, in C, where Enum hashes its name in Python
    __hash__ = object.__hash__

    def flipped(self) -> "BoundaryType":
        return _M if self is _E else _E


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
        """Whether the map swaps the e and m sectors; one that neither preserves nor swaps them raises OracleError."""
        (u, v), (w, x) = self.matrix  # e -> e^u m^w and m -> e^v m^x
        if not (v % self.p or w % self.p):
            return False
        if not (u % self.p or x % self.p):
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

    An L that is not isotropic raises OracleError.  No basis label's (H, q)
    reaches that check, as the basis below is isotropic by construction; it
    stays because the -h2 sign of the basis rests on it: with +h2, the X_k
    and F_q (q != 0) subgroups fail it at every odd p.
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


def _basis_walls(p: int) -> tuple[list[BimoduleLabel], list[tuple], dict]:
    """The basis labels at p, their walls as _stack_row reads them, and the inverse of wall_of (wall -> basis index).

    _stack_row reads a wall as (left, right, swaps, matrix): a boundary pair
    gives its faces, None and a zero matrix, and an invertible wall gives
    None, None, its sector check and its matrix, so each sector check runs
    once per call.
    """
    labels = all_labels(p)
    columns, index_of = [], {}
    for k, label in enumerate(labels):
        wall = wall_of(p, label)
        first = index_of.setdefault(wall, k)
        if first != k:
            raise OracleError(f"labels {labels[first]} and {labels[k]} share the wall {wall!r}")
        columns.append((*wall, None, ((0, 0), (0, 0))) if isinstance(wall, BoundaryPair)
                       else (None, None, wall.swaps_sectors(), wall.matrix))
    return labels, columns, index_of


def _unnamed(p: int, wall: WallModel) -> OracleError:
    return OracleError(f"{wall!r} is the wall of no basis label at p={p}")


def _named(p: int, wall: WallModel, index_of: dict) -> int:
    """The basis index of wall by index_of, the inverse of wall_of; a wall of another prime raises ValueError."""
    if isinstance(wall, InvertibleWall) and wall.p != p:
        raise ValueError(f"a wall at p={wall.p} cannot be stacked or named at p={p}")
    try:
        return index_of[wall]
    except (KeyError, TypeError):  # TypeError: a wall whose matrix is unhashable, e.g. a list
        raise _unnamed(p, wall) from None


def _stack_row(row, columns, p, index_of):
    """Stack the wall of row (left) against the wall of each column (right), all as _basis_walls gives them.

    Each resulting wall is built as the plain tuple of its fields, which
    equals the wall and hashes alike, and the row is named at once by
    index_of, the inverse of wall_of: (basis index, multiplicity) pairs.  A
    wall that is no basis label's raises OracleError.
    """
    left, right, flip, ((e, f), (g, h)) = row
    if left is not None:
        walls, mults = [], []
        for l2, r2, swaps, _ in columns:
            # a face that crosses a sector-swapping wall flips, and inner faces that
            # condense the same sector leave a closed strip carrying p states
            walls.append((left, (right.flipped() if swaps else right) if l2 is None else r2))
            mults.append(p if l2 == right else 1)
    else:  # a particle crosses the row's wall, then the column's: map(column) o map(row)
        walls = [(p, (((a * e + b * g) % p, (a * f + b * h) % p), ((c * e + d * g) % p, (c * f + d * h) % p)))
                 if l2 is None else (l2.flipped() if flip else l2, r2) for l2, r2, _, ((a, b), (c, d)) in columns]
        mults = [1] * len(walls)
    ks = list(map(index_of.get, walls))
    if None in ks:
        fields = walls[ks.index(None)]
        raise _unnamed(p, (InvertibleWall if type(fields[0]) is int else BoundaryPair)(*fields))
    return zip(ks, mults)


def fuse_walls(w1: WallModel, w2: WallModel, p: int) -> Decomposition:
    """Stack w1 (left) against w2 (right) and decompose into labels.

    Both walls are named first, w1 and then w2, by the one inverse of
    wall_of that this call builds: a wall of another prime raises
    ValueError, and any other wall that is no basis label's raises
    OracleError.
    """
    require_prime(p)
    labels, columns, index_of = _basis_walls(p)
    ((k, mult),) = _stack_row(columns[_named(p, w1, index_of)], [columns[_named(p, w2, index_of)]], p, index_of)
    return Decomposition.single(labels[k], mult)


def oracle_table(p: int) -> RingTable:
    """The full multiplication table computed purely by wall stacking.

    Each row is stacked and named as fuse_walls stacks and names a cell, by
    the one inverse of wall_of that this call builds.
    """
    _, columns, index_of = _basis_walls(p)
    rows = []
    for row in columns:
        rows.append(_stack_row(row, columns, p, index_of))
    return RingTable.from_cells(p, rows)
