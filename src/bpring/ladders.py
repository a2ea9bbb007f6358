"""The ladder category Lad(M, N) of a pair of bimodules over one middle Vec(Z_p).

Objects are pairs (m, n) of simples.  The morphism space from (m, n) to (x, y)
has one basis element per admissible rung b in Z_p, where admissibility means

    m == x < b        (left leg:  a vertex in M(m, x . b))
    y == b > n        (right leg: a vertex in N(b . n, y))

so each object has exactly p outgoing basic ladders, one per rung, and the
rung-b target map  (m, n) -> (m < -b, b > n)  is a Z_p action on objects.
The category numbers its objects n_index * |M| + m_index, in canonical order,
and reads the rung action once into one index array per leg (rung_m, rung_n),
which the Karoubi envelope walks instead of building objects.

Stacking the rung-b1 ladder under the rung-b2 ladder fuses to the rung b1+b2.
In general the two rungs enclose a bubble whose coefficient comes from the
pure module associators of M and N; bimodules are kept in the gauge where
those are trivial (see bpring.bimodules), so the coefficient is 1 and the
rung-b1+b2 coefficient of the stack is just the product of the two.  A
morphism is then an element of the group algebra Q(zeta_p)[Z_p], a map
rung -> scalar, and compose is its product, computed on integer numerators
by cyclotomic.group_algebra_product.
"""

from __future__ import annotations

from typing import NamedTuple

from .bimodules import BimoduleData, format_simple
from .cyclotomic import CyclotomicScalar, group_algebra_product


class EngineError(Exception):
    """An internal fault of the engine: one of its own invariants failed.

    Bad input raises ValueError instead; the CLI reports the two differently.
    """


class CompositionError(EngineError):
    pass


class LadderObject(NamedTuple):
    m: object
    n: object

    def __str__(self):
        return f"({format_simple(self.m)})({format_simple(self.n)})"


def _label_key(label):
    if isinstance(label, tuple):
        return label
    if isinstance(label, int):
        return (label,)
    return ()


class LadderMorphism:
    """A linear combination of basic ladders between two fixed objects."""

    __slots__ = ("source", "target", "coeffs")

    def __init__(self, source: LadderObject, target: LadderObject, coeffs: dict):
        self.source = source
        self.target = target
        self.coeffs = {b: c for b, c in coeffs.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def scale(self, factor) -> "LadderMorphism":
        return LadderMorphism(self.source, self.target, {b: c * factor for b, c in self.coeffs.items()})

    def __add__(self, other: "LadderMorphism") -> "LadderMorphism":
        if self.source != other.source or self.target != other.target:
            raise CompositionError("cannot add morphisms between different objects")
        coeffs = dict(self.coeffs)
        for b, c in other.coeffs.items():
            coeffs[b] = coeffs[b] + c if b in coeffs else c
        return LadderMorphism(self.source, self.target, coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LadderMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        terms = " + ".join(f"{c}.[rung {b}]" for b, c in sorted(self.coeffs.items())) or "0"
        return f"Ladder({self.source} -> {self.target}: {terms})"


class LadderCategory:
    """Lad(M, N) for bimodules M, N over the same prime p."""

    def __init__(self, left: BimoduleData, right: BimoduleData):
        if left.p != right.p:
            raise ValueError(f"mismatched primes {left.p} and {right.p}")
        self.M = left
        self.N = right
        self.p = left.p
        self.m_simples = sorted(left.simples, key=_label_key)
        self.n_simples = sorted(right.simples, key=_label_key)
        self.m_index = {m: i for i, m in enumerate(self.m_simples)}
        self.n_index = {n: j for j, n in enumerate(self.n_simples)}
        self.object_count = len(self.m_simples) * len(self.n_simples)
        # The rung action on leg indices, read once: rung b sends (m, n) to
        # (m < -b, b > n), i.e. index i to rung_m[b][i] and j to rung_n[b][j].
        self.rung_m = [[self.m_index[left.right(m, -b)] for m in self.m_simples] for b in range(self.p)]
        self.rung_n = [[self.n_index[right.left(b, n)] for n in self.n_simples] for b in range(self.p)]

    def objects(self) -> list[LadderObject]:
        """Every object in canonical order: right leg first, then left leg.

        This makes the least member of each isomorphism class the one whose
        right leg is normalised, e.g. (a,b)(0,c) in Lad(T,T) and (a)(0) in
        Lad(X,X).  The position of an object is its object_index.
        """
        return [LadderObject(m, n) for n in self.n_simples for m in self.m_simples]

    def object_index(self, obj: LadderObject) -> int:
        """Position of obj in objects(): n_index * |M| + m_index."""
        return self.n_index[obj.n] * len(self.m_simples) + self.m_index[obj.m]

    def identity(self, obj: LadderObject) -> LadderMorphism:
        return LadderMorphism(obj, obj, {0: CyclotomicScalar.one(self.p)})

    def compose(self, f: LadderMorphism, g: LadderMorphism) -> LadderMorphism:
        """f followed by g (f is stacked under g)."""
        if f.target != g.source:
            raise CompositionError(f"cannot stack {g.source} on top of {f.target}")
        return LadderMorphism(f.source, g.target, group_algebra_product(self.p, f.coeffs, g.coeffs))
