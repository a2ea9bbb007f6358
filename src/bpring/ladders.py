"""The ladder category Lad(M, N) of a pair of bimodules over one middle Vec(Z_p).

Objects are pairs (m, n) of simples.  The morphism space from (m, n) to (x, y)
has one basis element per admissible rung b in Z_p, where admissibility means

    m == x < b        (left leg:  a vertex in M(m, x . b))
    y == b > n        (right leg: a vertex in N(b . n, y))

so each object has exactly p outgoing basic ladders, one per rung, and the
rung-b target map  (m, n) -> (m < -b, b > n)  is a Z_p action on objects.
The category numbers its objects j * |M| + i, for m the simple of index i of
M and n that of index j of N, in the order of the bimodules' own simples.
The rung action comes straight from the bimodules' tables, one row per rung
and leg: rung b sends i to M.right[-b][i] and j to N.left[b][j].  These are
rows of the catalogue entries, which the Karoubi envelope walks, one leg
record per entry (bpring.karoubi.leg), instead of building objects.

Stacking the rung-b1 ladder under the rung-b2 ladder fuses to the rung b1+b2.
In general the two rungs enclose a bubble whose coefficient comes from the
pure module associators of M and N; bimodules are kept in the gauge where
those are trivial (see bpring.bimodules), so the coefficient is 1 and the
rung-b1+b2 coefficient of the stack is just the product of the two.  A
morphism is then an element of the group algebra Q(zeta_p)[Z_p], a map
rung -> scalar, and compose is its product (group_algebra_product).  Every
coefficient the engine makes is one monomial c * zeta^k (see
bpring.cyclotomic for why), so the kernel sums each output rung's integer
numerators by power over one common denominator and reads the rung back as
one monomial: a rung whose p power entries all equal one value v but at
most one power k is (raw[k] - v) * zeta^k, or zero when all p are equal,
since 1 + zeta + ... + zeta^(p-1) = 0.  Any other rung raises
NonMonomialRung, an engine fault.  The kernel leaves out the rungs that sum
to zero, so compose takes its dict as the coefficients of the result
(LadderMorphism._nonzero) instead of copying and filtering it through the
constructor.  The public constructor keeps its zero filter.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .bimodules import BimoduleData, format_simple
from .cyclotomic import CyclotomicScalar, monomial


class EngineError(Exception):
    """An internal fault of the engine: one of its own invariants failed.

    Bad input raises ValueError instead; the CLI reports the two differently.
    """


class CompositionError(EngineError):
    pass


class NonMonomialRung(EngineError):
    """A composite's rung that is not one monomial c * zeta^k, which the engine's scalars cannot hold."""


class LadderObject(namedtuple("LadderObject", "m n")):
    __slots__ = ()

    def __str__(self):
        return f"({format_simple(self.m)})({format_simple(self.n)})"


class LadderMorphism:
    """A linear combination of basic ladders between two fixed objects."""

    __slots__ = ("source", "target", "coeffs")

    def __init__(self, source: LadderObject, target: LadderObject, coeffs: dict):
        self.source = source
        self.target = target
        self.coeffs = {b: c for b, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def _nonzero(cls, source: LadderObject, target: LadderObject, coeffs: dict) -> "LadderMorphism":
        """The morphism with coeffs itself as its coefficient dict, for coeffs with no zero value.

        The constructor copies coeffs and drops zero coefficients.  The engine
        skips that where no coefficient can be zero: a rotation keeps a nonzero
        scalar nonzero, group_algebra_product already drops zero rungs, and
        identities, connectors and stored projectors have no zero coefficient.
        Nothing mutates a morphism's coeffs, so the dict may be shared.
        """
        f = object.__new__(cls)
        f.source = source
        f.target = target
        f.coeffs = coeffs
        return f

    def scale(self, factor) -> "LadderMorphism":
        return LadderMorphism(self.source, self.target, {b: c * factor for b, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LadderMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        terms = " + ".join(f"{c}.[rung {b}]" for b, c in sorted(self.coeffs.items())) or "0"
        return f"Ladder({self.source} -> {self.target}: {terms})"


def _terms(p: int, xs: dict) -> tuple[int, list]:
    """(den, [(rung, k, numerator), ...]): the monomials of xs over one common denominator."""
    den = lcm(*{x.den for x in xs.values()})
    out = []
    for b, x in xs.items():
        if x.p != p:
            raise ValueError(f"mismatched primes {x.p} and {p}")
        out.append((b, x.k, x.num if x.den == den else x.num * (den // x.den)))
    return den, out


def _rung_scalar(p: int, b: int, powers: dict, den: int) -> CyclotomicScalar | None:
    """sum(powers[i] * zeta^i) / den as one monomial, None when it is zero.

    Raises NonMonomialRung, naming the rung b, when it is neither.  At p = 2
    every k is 0 (zeta = -1 is folded into the sign), so a rung there has
    one power.
    """
    if len(powers) == 1:
        ((k, a),) = powers.items()
    else:
        raw = [powers.get(i, 0) for i in range(p)]
        v = raw[0] if raw.count(raw[0]) >= p - 1 else raw[1]
        rest = [i for i, a in enumerate(raw) if a != v]
        if len(rest) > 1:
            raise NonMonomialRung(f"rung {b} of a composite is not a monomial c*zeta^k at p={p}")
        if not rest:
            return None
        (k,) = rest
        a = raw[k] - v
    return monomial(p, a, den, k) if a else None


def group_algebra_product(p: int, f: dict, g: dict) -> dict:
    """f * g in Q(zeta_p)[Z_p], for maps rung -> CyclotomicScalar over one p.

    Rung b1 of f times rung b2 of g lands on rung b1 + b2 mod p.  One double
    loop over the two factors' monomials sums each output rung's numerators
    by power; each rung is then read back as one monomial (_rung_scalar).
    Rungs whose sum is zero are left out of the result, and the rungs keep
    the order in which a rung pair first meets them.
    """
    fden, fterms = _terms(p, f)
    gden, gterms = _terms(p, g)
    acc: dict[int, dict] = {}
    for b1, i, a in fterms:
        for b2, j, c in gterms:
            b, k = b1 + b2, i + j
            if b >= p:
                b -= p
            if k >= p:
                k -= p
            powers = acc.get(b)
            if powers is None:
                acc[b] = {k: a * c}
            else:
                powers[k] = powers.get(k, 0) + a * c
    den = fden * gden
    out = {}
    for b, powers in acc.items():
        x = _rung_scalar(p, b, powers, den)
        if x is not None:
            out[b] = x
    return out


class LadderCategory:
    """Lad(M, N) for bimodules M, N over the same prime p."""

    def __init__(self, left: BimoduleData, right: BimoduleData):
        if left.p != right.p:
            raise ValueError(f"mismatched primes {left.p} and {right.p}")
        self.M = left
        self.N = right
        self.p = left.p
        self.object_count = len(left.simples) * len(right.simples)

    def object_index(self, obj: LadderObject) -> int:
        """Position of obj in the canonical order, right leg first: N.index[n] * |M| + M.index[m]."""
        return self.N.index[obj.n] * len(self.M.simples) + self.M.index[obj.m]

    def object_at(self, i: int) -> LadderObject:
        """The object with object_index i: the inverse of object_index."""
        n, m = divmod(i, len(self.M.simples))
        return LadderObject(self.M.simples[m], self.N.simples[n])

    def compose(self, f: LadderMorphism, g: LadderMorphism) -> LadderMorphism:
        """f followed by g (f is stacked under g).

        The product's dict has no zero coefficient, so it is taken as is.
        """
        if f.target != g.source:
            raise CompositionError(f"cannot stack {g.source} on top of {f.target}")
        return LadderMorphism._nonzero(f.source, g.target, group_algebra_product(self.p, f.coeffs, g.coeffs))
