"""Finite group machinery for Z_p and Z_p x Z_p.

Subgroups of Z_p x Z_p for p prime come in exactly three shapes: the trivial
subgroup, p+1 lines of order p, and the full group.  Lines are stored by a
canonical generator whose first nonzero coordinate is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CyclotomicScalar, require_prime, root_of_unity


@dataclass(frozen=True, order=True)
class PairElt:
    p: int
    left: int
    right: int

    def __post_init__(self):
        object.__setattr__(self, "left", self.left % self.p)
        object.__setattr__(self, "right", self.right % self.p)

    def __add__(self, other: "PairElt") -> "PairElt":
        assert self.p == other.p
        return PairElt(self.p, self.left + other.left, self.right + other.right)

    def __neg__(self) -> "PairElt":
        return PairElt(self.p, -self.left, -self.right)

    def __sub__(self, other: "PairElt") -> "PairElt":
        return self + (-other)

    def scaled(self, n: int) -> "PairElt":
        return PairElt(self.p, n * self.left, n * self.right)

    def is_zero(self) -> bool:
        return self.left == 0 and self.right == 0

    def as_tuple(self) -> tuple[int, int]:
        return (self.left, self.right)


def _as_pair(p: int, x) -> PairElt:
    if isinstance(x, PairElt):
        return x
    l, r = x
    return PairElt(p, l, r)


def _reduced(p: int, x) -> tuple[int, int]:
    """A PairElt or an int pair as a (left, right) tuple reduced mod p."""
    if isinstance(x, PairElt):
        return x.left, x.right
    l, r = x
    return l % p, r % p


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of Z_p x Z_p: trivial, a line through a generator, or full."""

    p: int
    kind: str  # "trivial" | "line" | "full"
    generator: tuple[int, int] | None = None

    def __post_init__(self):
        require_prime(self.p)
        if self.kind not in ("trivial", "line", "full"):
            raise ValueError(f"unknown subgroup kind {self.kind!r}")
        if (self.kind == "line") != (self.generator is not None):
            raise ValueError("line subgroups need a generator, others must not have one")
        if self.kind == "line":
            object.__setattr__(self, "generator", _canonical_generator(self.p, self.generator))

    @property
    def order(self) -> int:
        if self.kind == "trivial":
            return 1
        if self.kind == "line":
            return self.p
        return self.p * self.p

    def elements(self) -> list[PairElt]:
        p = self.p
        if self.kind == "trivial":
            return [PairElt(p, 0, 0)]
        if self.kind == "line":
            g = PairElt(p, *self.generator)
            return [g.scaled(n) for n in range(p)]
        return [PairElt(p, a, b) for a in range(p) for b in range(p)]

    def contains(self, x) -> bool:
        l, r = _reduced(self.p, x)
        if self.kind == "trivial":
            return l == 0 and r == 0
        if self.kind == "full":
            return True
        gl, gr = self.generator
        # x on the line <(gl, gr)> iff the 2x2 determinant vanishes
        return (l * gr - r * gl) % self.p == 0

    def __str__(self):
        if self.kind == "trivial":
            return "{(0,0)}"
        if self.kind == "full":
            return "Zp x Zp"
        gl, gr = self.generator
        return f"<({gl},{gr})>"


def _canonical_generator(p: int, gen: tuple[int, int]) -> tuple[int, int]:
    l, r = gen[0] % p, gen[1] % p
    if l == 0 and r == 0:
        raise ValueError("line generator must be nonzero")
    if l != 0:
        s = pow(l, p - 2, p)
        return (1, (r * s) % p)
    return (0, 1)


def _generated(p: int, pairs) -> Subgroup:
    """Smallest subgroup containing pairs, reduced (left, right) tuples."""
    nonzero = [g for g in pairs if g != (0, 0)]
    if not nonzero:
        return Subgroup(p, "trivial")
    fl, fr = nonzero[0]
    for gl, gr in nonzero[1:]:
        if (fl * gr - fr * gl) % p != 0:
            return Subgroup(p, "full")
    return Subgroup(p, "line", (fl, fr))


def subgroup_from_generators(p: int, gens) -> Subgroup:
    """Smallest subgroup of Z_p x Z_p containing gens, in canonical form."""
    require_prime(p)
    return _generated(p, [_reduced(p, g) for g in gens])


def subgroup_from_elements(p: int, elements) -> Subgroup:
    """Classify a set already known to be closed; brute-checks closure."""
    require_prime(p)
    elts = {_reduced(p, e) for e in elements}
    if (0, 0) not in elts:
        raise ValueError("subgroup must contain the identity")
    sub = _generated(p, elts)
    if len(elts) != sub.order or not all(sub.contains(e) for e in elts):
        raise ValueError(f"element set of size {len(elts)} is not a subgroup")
    return sub


def enumerate_subgroups(p: int) -> list[Subgroup]:
    """All p+3 subgroups: trivial, the p+1 lines, full.  Deterministic order."""
    require_prime(p)
    out = [Subgroup(p, "trivial"), Subgroup(p, "line", (0, 1))]
    out.extend(Subgroup(p, "line", (1, t)) for t in range(p))
    out.append(Subgroup(p, "full"))
    return out


def cosets(sub: Subgroup) -> list[PairElt]:
    """Lexicographically least representative of each coset of sub."""
    p = sub.p
    seen: set[tuple[int, int]] = set()
    reps = []
    members = [h.as_tuple() for h in sub.elements()]
    for a in range(p):
        for b in range(p):
            if (a, b) in seen:
                continue
            reps.append(PairElt(p, a, b))
            for hl, hr in members:
                seen.add(((a + hl) % p, (b + hr) % p))
    return reps


@dataclass(frozen=True)
class CocycleClass:
    """Index q of the bilinear 2-cocycle w((g1,h1),(g2,h2)) = zeta^(q h1 g2)."""

    p: int
    q: int

    def __post_init__(self):
        require_prime(self.p)
        object.__setattr__(self, "q", self.q % self.p)


def cocycle_phase(c: CocycleClass, x, y) -> CyclotomicScalar:
    x = _as_pair(c.p, x)
    y = _as_pair(c.p, y)
    return root_of_unity(c.p, c.q * x.right * y.left)
