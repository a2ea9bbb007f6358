"""Group helpers the library does not use, kept as oracles for the tests.

Elements of Z_p x Z_p are (left, right) int tuples, as in bpring.groups.
"""

from dataclasses import dataclass

from bpring.cyclotomic import CyclotomicScalar, require_prime
from bpring.groups import Subgroup
from scalar_oracle import root_of_unity


@dataclass(frozen=True)
class CocycleClass:
    """Index q of the bilinear 2-cocycle w((g1,h1),(g2,h2)) = zeta^(q h1 g2)."""

    p: int
    q: int

    def __post_init__(self):
        require_prime(self.p)
        object.__setattr__(self, "q", self.q % self.p)


def pair_add(p: int, x, y) -> tuple[int, int]:
    return (x[0] + y[0]) % p, (x[1] + y[1]) % p


def cocycle_phase(c: CocycleClass, x, y) -> CyclotomicScalar:
    """The bilinear 2-cocycle w(x, y) = zeta^(q x_right y_left) of class c."""
    return root_of_unity(c.p, c.q * x[1] * y[0])


def elements(sub: Subgroup) -> list[tuple[int, int]]:
    """Every element of sub."""
    p = sub.p
    if sub.kind == "trivial":
        return [(0, 0)]
    if sub.kind == "line":
        gl, gr = sub.generator
        return [(n * gl % p, n * gr % p) for n in range(p)]
    return [(a, b) for a in range(p) for b in range(p)]


def cosets(sub: Subgroup) -> list[tuple[int, int]]:
    """Lexicographically least representative of each coset of sub."""
    p = sub.p
    seen: set[tuple[int, int]] = set()
    reps = []
    members = elements(sub)
    for a in range(p):
        for b in range(p):
            if (a, b) in seen:
                continue
            reps.append((a, b))
            for hl, hr in members:
                seen.add(((a + hl) % p, (b + hr) % p))
    return reps
