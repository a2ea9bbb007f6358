"""Scalar helpers the library does not use, kept for the tests."""

from bpring.cyclotomic import CyclotomicScalar


def from_rational(p: int, value) -> CyclotomicScalar:
    """The rational value as a scalar of Q(zeta_p)."""
    return CyclotomicScalar.one(p).scale(value)


def is_one(x: CyclotomicScalar) -> bool:
    return x == CyclotomicScalar.one(x.p)
