"""Vec(Z_p)-Vec(Z_p) bimodule data and the catalogue of all 2p+2 indecomposables.

A bimodule is recorded by its simple objects in a fixed order, where the
position of a simple is its index, and three integer tables:

    left[g][i]      index of g > m_i
    right[h][i]     index of m_i < h
    mixed[g][i][h]  exponent e in Z_p: the mixed associator relating
                    g > (m_i < h) and (g > m_i) < h is zeta^e

Every indecomposable Vec(Z_p) bimodule can be gauge-fixed so that its pure
associators, relating g > (h > m) to (g+h) > m and (m < g) < h to m < (g+h),
are trivial and its cocycle sits in the mixed associator
(Etingof-Nikshych-Ostrik, arXiv:0909.3140).  In that gauge the mixed
associator is a p-th root of unity, so its exponent mod p carries it exactly.
BimoduleData works in that gauge and has no field for the pure ones.  The
exponent is q g h on the one-object entries F_q and 0 elsewhere.

The order of the simples is the engine's order: the ladder category numbers
its objects from these indices and reads its rung rows straight from the
action tables.  The catalogue lists coset labels in lexicographic order:
(a, b) for T, at index a p + b; an int in 0..p-1 for L, R and X_k, at its
own index; and STAR for F_q.

A bimodule is its tables: a relative tensor product, a gauge twist or a
relabelling is one too, with no classifying data to invent.  Only a
catalogue label carries the Etingof-Nikshych-Ostrik pair (H, q), the
stabilizer of every simple and the cocycle index, and label_invariants is
the one map from a label to it; validate checks that map against the
tables of every bimodule that carries a label.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property

from .cyclotomic import require_prime
from .groups import Subgroup, subgroup_from_elements, subgroup_from_generators

STAR = "*"

# a number is ASCII digits with no leading zero ([0-9] is ASCII-only in re), so
# each label, --p and BPRING_THREADS have one spelling
NUMBER = re.compile(r"0|[1-9][0-9]*")
_LABEL_RE = re.compile(rf"([TLRFX])({NUMBER.pattern})?")


class LabelParseError(ValueError):
    pass


class BimoduleLabel(namedtuple("BimoduleLabel", "kind index")):
    """A catalogue label: kind "T", "L", "R", "F" or "X", and the index q of F_q or k of X_k."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int | None = None):
        if kind in ("T", "L", "R"):
            if index is not None:
                raise LabelParseError(f"label {kind} takes no index")
        elif kind not in ("F", "X"):
            raise LabelParseError(f"unknown label kind {kind!r}")
        elif index is not None and type(index) is not int:  # a bool included
            raise LabelParseError(f"{kind} labels need an integer index, got {index!r}")
        elif kind == "F":
            if index is None or index < 0:
                raise LabelParseError("F labels need an index q >= 0")
        elif index is None or index < 1:
            raise LabelParseError("X labels need a nonzero index k")
        return tuple.__new__(cls, (kind, index))

    # _replace builds through _make, so it validates too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def sort_key(self) -> tuple[int, int]:
        # canonical basis order T, L, R, F0, X1..X_{p-1}, F1..F_{p-1}
        if self.kind == "T":
            return (0, 0)
        if self.kind == "L":
            return (1, 0)
        if self.kind == "R":
            return (2, 0)
        if self.kind == "F" and self.index == 0:
            return (3, 0)
        if self.kind == "X":
            return (4, self.index)
        return (5, self.index)

    def simple_count(self, p: int) -> int:
        if self.kind == "T":
            return p * p
        if self.kind == "F":
            return 1
        return p

    def is_invertible(self) -> bool:
        return self.kind == "X" or (self.kind == "F" and self.index != 0)

    def __str__(self):
        return self.kind if self.index is None else f"{self.kind}{self.index}"


def label_parse(text: str) -> BimoduleLabel:
    """The label spelled text; BimoduleLabel holds every kind and index rule, and its error gains the text."""
    m = _LABEL_RE.fullmatch(text)
    if not m:
        raise LabelParseError(f"cannot parse bimodule label {text!r}")
    kind, idx = m.groups()
    try:
        return BimoduleLabel(kind, None if idx is None else int(idx))
    except LabelParseError as exc:
        raise LabelParseError(f"{exc}: {text!r}") from None


def all_labels(p: int) -> list[BimoduleLabel]:
    require_prime(p)
    out = [BimoduleLabel("T"), BimoduleLabel("L"), BimoduleLabel("R"), BimoduleLabel("F", 0)]
    out.extend(BimoduleLabel("X", k) for k in range(1, p))
    out.extend(BimoduleLabel("F", q) for q in range(1, p))
    return out


def basis_index(p: int, label: BimoduleLabel) -> int:
    """The position of label in all_labels(p): T, L, R, F0, X1..X_{p-1}, F1..F_{p-1}.

    A label outside that basis, X_k or F_q with index p or more, is bad input
    at p and raises ValueError naming the index; every route checks its
    labels here.
    """
    kind, idx = label.kind, label.index
    if kind == "X":
        if not 1 <= idx < p:
            raise ValueError(f"X index {idx} out of range for p={p}")
        return 3 + idx
    if kind == "F":
        if not 0 <= idx < p:
            raise ValueError(f"F index {idx} out of range for p={p}")
        return p + 2 + idx if idx else 3
    return ("T", "L", "R").index(kind)


def format_simple(m) -> str:
    """A simple object as text: a coset pair (a, b) prints as a,b."""
    if isinstance(m, tuple):
        return ",".join(str(x) for x in m)
    return str(m)


class Decomposition(namedtuple("Decomposition", "summands")):
    """A formal sum of bimodule labels with positive multiplicities.

    summands is a tuple of (label, multiplicity) pairs in basis order.
    """

    __slots__ = ()

    @classmethod
    def from_pairs(cls, pairs) -> "Decomposition":
        counts: dict[BimoduleLabel, int] = {}
        for label, mult in pairs:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            counts[label] = counts.get(label, 0) + mult
        ordered = tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key()))
        return cls(ordered)

    @classmethod
    def single(cls, label: BimoduleLabel, mult: int = 1) -> "Decomposition":
        if mult <= 0:
            raise ValueError("multiplicities must be positive")
        return cls(((label, mult),))

    def total_simples(self, p: int) -> int:
        return sum(mult * label.simple_count(p) for label, mult in self.summands)

    def __str__(self):
        if not self.summands:
            return "0"
        parts = []
        for label, mult in self.summands:
            parts.append(str(label) if mult == 1 else f"{mult}*{label}")
        return " + ".join(parts)


class BimoduleData(namedtuple("BimoduleData", "p simples left right mixed label", defaults=(None,))):
    """One bimodule: simples in engine order and its integer tables.

    left[g][i] and right[h][i] are simple indices and mixed[g][i][h] an
    exponent mod p (see the module docstring).  The tables may share rows;
    the catalogue's zero exponent table is one row repeated.  The record is
    immutable, and trivial_mixed is read once from it, so build a new
    instance with entry._replace(...) to change a field.  label names
    the catalogue entry the tables present, or is None; its subgroup and
    cocycle index come from label_invariants.
    """

    @cached_property
    def trivial_mixed(self) -> bool:
        """Whether every exponent of mixed is 0: each mixed associator is the identity.

        Each distinct plane and row object is read once, told apart by
        identity (one object has one content): the catalogue's zero table is
        one row repeated, while a table whose rows are not shared is read in
        full.
        """
        planes = {id(plane): plane for plane in self.mixed}.values()
        rows = {id(row): row for plane in planes for row in plane}.values()
        return not any(map(any, rows))

    def stabilizer_of(self, i: int) -> Subgroup:
        """Subgroup {(g,h) : (g > m_i) < h == m_i}."""
        p = self.p
        elts = [(g, h) for g in range(p) for h in range(p) if self.right[h][self.left[g][i]] == i]
        return subgroup_from_elements(p, elts)


def _cyclic(p: int, step: int) -> tuple:
    """g sends simple i of 0..p-1 to i + step*g."""
    return tuple(tuple((i + step * g) % p for i in range(p)) for g in range(p))


def label_invariants(p: int, label: BimoduleLabel) -> tuple[Subgroup, int]:
    """(H, q) of a catalogue label: the stabilizer of each of its simples, and its cocycle index.

    H is trivial for T, <(1,0)> for L, <(0,1)> for R, the line <(-k,1)> for
    X_k and the full group for F_q; q is the index of F_q and 0 elsewhere.
    A label outside the basis at p raises ValueError, as in basis_index.
    """
    basis_index(p, label)
    kind, idx = label.kind, label.index
    if kind == "T":
        return Subgroup(p, "trivial"), 0
    if kind == "F":
        return Subgroup(p, "full"), idx
    if kind == "X":
        return subgroup_from_generators(p, [(-idx, 1)]), 0
    return subgroup_from_generators(p, [(1, 0) if kind == "L" else (0, 1)]), 0


def catalogue_entry(p: int, label: BimoduleLabel) -> BimoduleData:
    """The catalogue row for one label, its tables built straight from the coset labels."""
    require_prime(p)
    basis_index(p, label)
    kind, idx = label.kind, label.index
    q, n = 0, p
    if kind == "T":
        n = p * p
        simples = tuple((a, b) for a in range(p) for b in range(p))
        left = tuple(tuple((i + g * p) % n for i in range(n)) for g in range(p))
        right = tuple(tuple(i - i % p + (i + h) % p for i in range(n)) for h in range(p))
    elif kind == "L":
        simples, left, right = tuple(range(p)), _cyclic(p, 0), _cyclic(p, 1)
    elif kind == "R":
        simples, left, right = tuple(range(p)), _cyclic(p, 1), _cyclic(p, 0)
    elif kind == "F":
        q, n = idx, 1
        simples, left, right = (STAR,), ((0,),) * p, ((0,),) * p
    else:
        # X_k: coset {n(-k,1) + (h,0)} carries label h = left + k*right
        simples, left, right = tuple(range(p)), _cyclic(p, 1), _cyclic(p, idx)
    if q:
        mixed = tuple((tuple(q * g * h % p for h in range(p)),) for g in range(p))
    else:
        mixed = (((0,) * p,) * n,) * p
    return BimoduleData(p, simples, left, right, mixed, label)


def catalogue(p: int) -> list[BimoduleData]:
    """All 2p+2 indecomposable Vec(Z_p)-Vec(Z_p) bimodules, in basis order."""
    return [catalogue_entry(p, label) for label in all_labels(p)]


def _malformed(name: str, table, shape: tuple, bound: int) -> str | None:
    """Why table is not nested sequences of the given shape holding ints in range(bound)."""
    if not shape:
        if type(table) is int and 0 <= table < bound:
            return None
        return f"{name} holds {table!r}, outside range({bound})"
    if not isinstance(table, (tuple, list)) or len(table) != shape[0]:
        return f"{name} is not a sequence of length {shape[0]}"
    for k, row in enumerate(table):
        why = _malformed(f"{name}[{k}]", row, shape[1:], bound)
        if why:
            return why
    return None


def validate(b: BimoduleData) -> list[str]:
    """Exhaustive coherence check; returns human-readable violations, never raises."""
    p, simples = b.p, b.simples
    n = len(simples)
    for name, table, shape, bound in (
        ("left", b.left, (p, n), n),
        ("right", b.right, (p, n), n),
        ("mixed", b.mixed, (p, n, p), p),
    ):
        why = _malformed(name, table, shape, bound)
        if why:
            return [why]
    out: list[str] = []
    if len(set(simples)) != n:
        out.append("duplicate simple object labels")

    left, right, mixed = b.left, b.right, b.mixed
    for i, m in enumerate(simples):
        if left[0][i] != i:
            out.append(f"left action of 0 moves {m}")
        if right[0][i] != i:
            out.append(f"right action of 0 moves {m}")
    for g in range(p):
        for h in range(p):
            gh = (g + h) % p
            for i, m in enumerate(simples):
                if left[g][left[h][i]] != left[gh][i]:
                    out.append(f"left action not additive at (g={g}, h={h}, m={m})")
                if right[h][right[g][i]] != right[gh][i]:
                    out.append(f"right action not additive at (m={m}, g={g}, h={h})")
                if left[g][right[h][i]] != right[h][left[g][i]]:
                    out.append(f"left and right actions do not commute at (g={g}, m={m}, h={h})")
    if out:
        # associator and stabilizer checks assume honest group actions
        return out

    # mixed associator compatibility; with trivial pure associators this is
    # additivity of the exponent in each group argument
    for g1 in range(p):
        for g2 in range(p):
            g12 = (g1 + g2) % p
            for h in range(p):
                for i, m in enumerate(simples):
                    if mixed[g12][i][h] != (mixed[g1][left[g2][i]][h] + mixed[g2][i][h]) % p:
                        out.append(f"mixed associator not additive in g at (g1={g1}, g2={g2}, m={m}, h={h})")
                    if mixed[g1][i][(g2 + h) % p] != (mixed[g1][i][g2] + mixed[g1][right[g2][i]][h]) % p:
                        out.append(f"mixed associator not additive in h at (g={g1}, m={m}, h1={g2}, h2={h})")

    if b.label is not None:
        try:
            sub, q = label_invariants(p, b.label)
        except ValueError as err:
            return [str(err)]
        for g in range(p):
            for h in range(p):
                for i, m in enumerate(simples):
                    if mixed[g][i][h] != q * g * h % p:
                        out.append(f"catalogue entry {b.label} has wrong mixed associator at (g={g}, m={m}, h={h})")
        for i, m in enumerate(simples):
            if b.stabilizer_of(i) != sub:
                out.append(f"stabilizer of {m} differs from the stored subgroup")
        if n * sub.order != p * p:
            out.append("object count does not match the subgroup index")

    return out
