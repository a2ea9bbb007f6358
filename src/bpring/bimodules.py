"""Vec(Z_p)-Vec(Z_p) bimodule data and the catalogue of all 2p+2 indecomposables.

A bimodule is recorded by its simple objects, the left/right Z_p action
tables, and one scalar associator phase:

    mixed_assoc(g, m, h)  relating g > (m < h)  and  (g > m) < h

Every indecomposable Vec(Z_p) bimodule can be gauge-fixed so that its pure
associators, relating g > (h > m) to (g+h) > m and (m < g) < h to m < (g+h),
are trivial and its cocycle sits in the mixed associator
(Etingof-Nikshych-Ostrik, arXiv:0909.3140).  BimoduleData works in that gauge
and has no field for the pure ones.  The mixed associator is zeta^(q g h) on
the one-object entries F_q and trivial elsewhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .cyclotomic import CyclotomicScalar, require_prime, root_of_unity
from .groups import CocycleClass, Subgroup, cosets, subgroup_from_elements, subgroup_from_generators

STAR = "*"

_LABEL_RE = re.compile(r"^([TLRFX])(\d+)?$")


class LabelParseError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class BimoduleLabel:
    kind: str  # "T" | "L" | "R" | "F" | "X"
    index: int | None = None

    def __post_init__(self):
        if self.kind in ("T", "L", "R"):
            if self.index is not None:
                raise LabelParseError(f"label {self.kind} takes no index")
        elif self.kind == "F":
            if self.index is None or self.index < 0:
                raise LabelParseError("F labels need an index q >= 0")
        elif self.kind == "X":
            if self.index is None or self.index < 1:
                raise LabelParseError("X labels need a nonzero index k")
        else:
            raise LabelParseError(f"unknown label kind {self.kind!r}")

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
    m = _LABEL_RE.match(text.strip())
    if not m:
        raise LabelParseError(f"cannot parse bimodule label {text!r}")
    kind, idx = m.group(1), m.group(2)
    if kind in ("T", "L", "R"):
        if idx is not None:
            raise LabelParseError(f"label {kind} takes no index: {text!r}")
        return BimoduleLabel(kind)
    if idx is None:
        raise LabelParseError(f"label {kind} needs an index: {text!r}")
    return BimoduleLabel(kind, int(idx))


def all_labels(p: int) -> list[BimoduleLabel]:
    require_prime(p)
    out = [BimoduleLabel("T"), BimoduleLabel("L"), BimoduleLabel("R"), BimoduleLabel("F", 0)]
    out.extend(BimoduleLabel("X", k) for k in range(1, p))
    out.extend(BimoduleLabel("F", q) for q in range(1, p))
    return out


def format_simple(m) -> str:
    """A simple object as text: a coset pair (a, b) prints as a,b."""
    if isinstance(m, tuple):
        return ",".join(str(x) for x in m)
    return str(m)


@dataclass(frozen=True)
class Decomposition:
    """A formal sum of bimodule labels with positive multiplicities."""

    summands: tuple[tuple[BimoduleLabel, int], ...]

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


PhaseFn = Callable[..., CyclotomicScalar]


@dataclass
class BimoduleData:
    """One bimodule: simples, action tables, mixed associator phase."""

    p: int
    subgroup: Subgroup
    cocycle: CocycleClass
    simples: tuple
    left_act: dict
    right_act: dict
    mixed_assoc: PhaseFn
    label: BimoduleLabel | None = None

    def left(self, g: int, m):
        return self.left_act[(g % self.p, m)]

    def right(self, m, h: int):
        return self.right_act[(m, h % self.p)]

    def stabilizer_of(self, m) -> Subgroup:
        """Subgroup {(g,h) : (g > m) < h == m}."""
        p = self.p
        elts = [(g, h) for g in range(p) for h in range(p) if self.right(self.left(g, m), h) == m]
        return subgroup_from_elements(p, elts)


def _trivial_phase3(p: int) -> PhaseFn:
    one = CyclotomicScalar.one(p)
    return lambda a, b, c: one


def _bilinear_mixed(p: int, q: int) -> PhaseFn:
    return lambda g, m, h: root_of_unity(p, q * g * h)


def _build(p, label, subgroup, q, simples, left, right, mixed=None) -> BimoduleData:
    left_table = {(g, m): left(g, m) for g in range(p) for m in simples}
    right_table = {(m, h): right(m, h) for h in range(p) for m in simples}
    return BimoduleData(
        p=p,
        subgroup=subgroup,
        cocycle=CocycleClass(p, q),
        simples=tuple(simples),
        left_act=left_table,
        right_act=right_table,
        mixed_assoc=mixed if mixed is not None else _trivial_phase3(p),
        label=label,
    )


def catalogue_entry(p: int, label: BimoduleLabel) -> BimoduleData:
    """The catalogue row for one label; object labels follow the coset maps."""
    require_prime(p)
    kind, idx = label.kind, label.index
    if kind == "T":
        sub = Subgroup(p, "trivial")
        simples = [c.as_tuple() for c in cosets(sub)]
        return _build(
            p, label, sub, 0, simples,
            left=lambda g, m: ((m[0] + g) % p, m[1]),
            right=lambda m, h: (m[0], (m[1] + h) % p),
        )
    if kind == "L":
        sub = subgroup_from_generators(p, [(1, 0)])
        simples = sorted(c.right for c in cosets(sub))
        return _build(
            p, label, sub, 0, simples,
            left=lambda g, m: m,
            right=lambda m, h: (m + h) % p,
        )
    if kind == "R":
        sub = subgroup_from_generators(p, [(0, 1)])
        simples = sorted(c.left for c in cosets(sub))
        return _build(
            p, label, sub, 0, simples,
            left=lambda g, m: (g + m) % p,
            right=lambda m, h: m,
        )
    if kind == "F":
        if not 0 <= idx < p:
            raise ValueError(f"F index {idx} out of range for p={p}")
        sub = Subgroup(p, "full")
        return _build(
            p, label, sub, idx, [STAR],
            left=lambda g, m: m,
            right=lambda m, h: m,
            mixed=_bilinear_mixed(p, idx),
        )
    if kind == "X":
        if not 1 <= idx < p:
            raise ValueError(f"X index {idx} out of range for p={p}")
        k = idx
        sub = subgroup_from_generators(p, [(-k, 1)])
        # coset {n(-k,1) + (h,0)} carries label h = left + k*right
        simples = sorted((c.left + k * c.right) % p for c in cosets(sub))
        return _build(
            p, label, sub, 0, simples,
            left=lambda g, m: (m + g) % p,
            right=lambda m, h: (m + k * h) % p,
        )
    raise ValueError(f"unknown label {label}")


def catalogue(p: int) -> list[BimoduleData]:
    """All 2p+2 indecomposable Vec(Z_p)-Vec(Z_p) bimodules, in basis order."""
    return [catalogue_entry(p, label) for label in all_labels(p)]


def validate(b: BimoduleData) -> list[str]:
    """Exhaustive coherence check; returns human-readable violations."""
    out: list[str] = []
    p = b.p
    simples = set(b.simples)
    if len(simples) != len(b.simples):
        out.append("duplicate simple object labels")

    for g in range(p):
        for m in b.simples:
            if (g, m) not in b.left_act or b.left_act[(g, m)] not in simples:
                out.append(f"left action leaves the object set at (g={g}, m={m})")
                return out
            if (m, g) not in b.right_act or b.right_act[(m, g)] not in simples:
                out.append(f"right action leaves the object set at (m={m}, h={g})")
                return out

    for m in b.simples:
        if b.left(0, m) != m:
            out.append(f"left action of 0 moves {m}")
        if b.right(m, 0) != m:
            out.append(f"right action of 0 moves {m}")
    for g in range(p):
        for h in range(p):
            for m in b.simples:
                if b.left(g, b.left(h, m)) != b.left((g + h) % p, m):
                    out.append(f"left action not additive at (g={g}, h={h}, m={m})")
                if b.right(b.right(m, g), h) != b.right(m, (g + h) % p):
                    out.append(f"right action not additive at (m={m}, g={g}, h={h})")
                if b.left(g, b.right(m, h)) != b.right(b.left(g, m), h):
                    out.append(f"left and right actions do not commute at (g={g}, m={m}, h={h})")
    if out:
        # associator and stabilizer checks assume honest group actions
        return out

    # mixed associator compatibility; with trivial pure associators this is
    # additivity in each group argument
    for g1 in range(p):
        for g2 in range(p):
            for h in range(p):
                for m in b.simples:
                    lhs = b.mixed_assoc((g1 + g2) % p, m, h)
                    rhs = b.mixed_assoc(g1, b.left(g2, m), h) * b.mixed_assoc(g2, m, h)
                    if lhs != rhs:
                        out.append(f"mixed associator not additive in g at (g1={g1}, g2={g2}, m={m}, h={h})")
                    lhs = b.mixed_assoc(g1, m, (g2 + h) % p)
                    rhs = b.mixed_assoc(g1, m, g2) * b.mixed_assoc(g1, b.right(m, g2), h)
                    if lhs != rhs:
                        out.append(f"mixed associator not additive in h at (g={g1}, m={m}, h1={g2}, h2={h})")

    if b.label is not None:
        q = b.cocycle.q
        for g in range(p):
            for h in range(p):
                for m in b.simples:
                    if b.mixed_assoc(g, m, h) != root_of_unity(p, q * g * h):
                        out.append(f"catalogue entry {b.label} has wrong mixed associator at (g={g}, m={m}, h={h})")
        for m in b.simples:
            if b.stabilizer_of(m) != b.subgroup:
                out.append(f"stabilizer of {m} differs from the stored subgroup")
        if len(b.simples) * b.subgroup.order != p * p:
            out.append("object count does not match the subgroup index")

    return out
