"""Exact scalars of the ladder engine: monomials c * zeta_p^k, c rational, p prime.

Every coefficient the engine makes is a single monomial.  The argument:

- Z_p has no subgroups but 0 and Z_p, so the rung stabilizer of an object
  is trivial or everything.  A connector, an identity or a character
  projector I_k = (1/p) sum_b zeta^(kb) . (rung b) therefore carries
  c * zeta^(alpha b + gamma) on one rung or on every rung b.
- The outer actions multiply rung b by zeta^e(b), and bpring.fusion's
  _exponent checks that e is linear in b on every End it acts on, so an
  acted morphism keeps that shape.
- On an output rung of a composite (bpring.ladders.group_algebra_product),
  a product of two such morphisms sums either one term, or p terms
  c * zeta^(beta b1 + delta) over all b1 in Z_p.  That sum is p c zeta^delta
  when beta = 0 and 0 otherwise, since 1 + zeta + ... + zeta^(p-1) = 0.

So the type stores (p, numerator, denominator, k) and nothing else, and
multiplying, rotating by zeta^j, scaling, inverting, comparing, hashing and
phase_exponent are each O(1) on Python ints.  The form is canonical:
gcd(numerator, denominator) = 1, the denominator is positive, 0 <= k < p,
and zero is the numerator 0 with k = 0.  At p = 2, zeta = -1, so k is
folded into the sign and is always 0: zeta^1 is stored as -1.

The composition kernel, which lives with the ladders, sums each output rung
by power and reads it back as one monomial; a rung that is not one raises
an engine fault there, never a fallback to general Q(zeta_p) arithmetic.
The general field arithmetic is the tests' oracle (tests/scalar_oracle.py).
coeffs gives the power-basis coefficients 1, zeta, ..., zeta^(p-1) with the
top one 0, which is how repr prints a scalar: c * zeta^(p-1) is
-c - c*z - ... - c*z^(p-2).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Exact rational scalar used throughout the engine.
Rational = Fraction

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in _SMALL_PRIMES:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int) -> None:
    """Raise ValueError unless p is an int (not a bool) and prime."""
    if type(p) is not int:
        raise ValueError(f"p must be an integer, got {p!r}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator) of c, an int (not a bool) or a Fraction; anything else raises ValueError."""
    if type(c) is int:
        return c, 1
    if not isinstance(c, Fraction):
        raise ValueError(f"a scalar's rational factor must be an int or a Fraction, got {c!r}")
    return c.numerator, c.denominator


def _canonical(x: "CyclotomicScalar", p: int, num: int, den: int, k: int) -> "CyclotomicScalar":
    """x set to the canonical form of (num / den) * zeta^k, for den != 0 and 0 <= k < p."""
    if not num:
        den, k = 1, 0
    else:
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
        if k and p == 2:
            num, k = -num, 0
    x.p, x.num, x.den, x.k = p, num, den, k
    return x


def monomial(p: int, num: int, den: int, k: int) -> "CyclotomicScalar":
    """(num / den) * zeta^k in canonical form, for a prime p the caller has checked, den != 0 and 0 <= k < p."""
    return _canonical(object.__new__(CyclotomicScalar), p, num, den, k)


class CyclotomicScalar:
    """The exact scalar c * zeta_p^k, c rational: CyclotomicScalar(p, c, k)."""

    __slots__ = ("p", "num", "den", "k")

    def __init__(self, p: int, c=1, k: int = 0):
        require_prime(p)
        _canonical(self, p, *_ratio(c), k % p)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Canonical power-basis coefficients; the last one is always 0."""
        p, c = self.p, Fraction(self.num, self.den)
        out = [Fraction(0)] * p
        if self.k == p - 1:
            out[:-1] = [-c] * (p - 1)  # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        else:
            out[self.k] = c
        return tuple(out)

    @classmethod
    def zero(cls, p: int) -> "CyclotomicScalar":
        return cls(p, 0)

    @classmethod
    def one(cls, p: int) -> "CyclotomicScalar":
        return cls(p, 1)

    def __mul__(self, other):
        if type(other) is not CyclotomicScalar:
            # the factors _ratio takes; any other, a bool or a float, raises TypeError
            if type(other) is int or isinstance(other, Fraction):
                return self.scale(other)
            return NotImplemented
        p = self.p
        if other.p != p:
            raise ValueError(f"mismatched primes {p} and {other.p}")
        k = self.k + other.k
        return monomial(p, self.num * other.num, self.den * other.den, k - p if k >= p else k)

    def rotate(self, j: int) -> "CyclotomicScalar":
        """self * zeta^j: only the exponent moves."""
        return monomial(self.p, self.num, self.den, (self.k + j) % self.p)

    def scale(self, factor) -> "CyclotomicScalar":
        """self times the rational factor."""
        num, den = _ratio(factor)
        return monomial(self.p, self.num * num, self.den * den, self.k)

    def inv(self) -> "CyclotomicScalar":
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(zeta_p)")
        return monomial(self.p, self.den, self.num, -self.k % self.p)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        if type(other) is not CyclotomicScalar:
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.k == other.k and self.p == other.p

    def __hash__(self):
        return hash((self.p, self.num, self.den, self.k))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyc(p={self.p}: {body})"


def root_of_unity(p: int, k: int) -> CyclotomicScalar:
    """zeta_p^k in canonical form."""
    return CyclotomicScalar(p, 1, k)


def phase_exponent(x: CyclotomicScalar) -> int | None:
    """Return k with x == zeta^k exactly, or None if x is not a root of unity."""
    if x.den != 1:
        return None
    if x.num == 1:
        return x.k
    if x.num == -1 and x.p == 2:  # zeta = -1
        return 1
    return None
