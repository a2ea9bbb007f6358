"""General arithmetic in the cyclotomic field Q(zeta_p), kept as the tests' oracle for the library scalars.

bpring.cyclotomic.CyclotomicScalar holds one monomial c * zeta^k, which is
every coefficient the engine makes.  FieldScalar holds any element of
Q(zeta_p), as the power-basis numerators 1, zeta, ..., zeta^(p-1) over one
positive denominator.  The form is canonical: the top numerator is 0,
obtained by subtracting it from every entry (1 + zeta + ... + zeta^(p-1) = 0),
and the numerators and the denominator have no common factor, so equality
and hashing are tuple comparisons.  Products are the plain double loop over
powers, and every inverse goes through the norm: the product of the
nontrivial Galois conjugates divided by the rational norm.

to_oracle reads a library scalar into this class from its fields, so the
two can be compared without trusting the library's own coeffs.  field_root
is zeta^k in this class, and root_of_unity is zeta^k as a library scalar,
CyclotomicScalar(p, 1, k), which the tests build often.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from bpring.cyclotomic import CyclotomicScalar, require_prime


def _make(p: int, num: list[int], den: int) -> "FieldScalar":
    """The canonical scalar sum(num[i] * zeta^i) / den, for p prime and den > 0."""
    top = num[-1]
    if top:
        num = [a - top for a in num]
    g = gcd(den, *num)
    if g != 1:
        num = [a // g for a in num]
        den //= g
    x = object.__new__(FieldScalar)
    x.p, x._num, x._den = p, tuple(num), den
    return x


class FieldScalar:
    """An element of Q(zeta_p) with exact rational coefficients, from its p power-basis coefficients."""

    __slots__ = ("p", "_num", "_den")

    def __init__(self, p: int, coeffs):
        require_prime(p)
        raw = [Fraction(c) for c in coeffs]
        if len(raw) != p:
            raise ValueError(f"need {p} coefficients, got {len(raw)}")
        den = lcm(*(c.denominator for c in raw))
        x = _make(p, [c.numerator * (den // c.denominator) for c in raw], den)
        self.p, self._num, self._den = p, x._num, x._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Canonical power-basis coefficients; the last one is always 0."""
        return tuple(Fraction(a, self._den) for a in self._num)

    @classmethod
    def zero(cls, p: int) -> "FieldScalar":
        return _monomial(p, 0, 1, 0)

    @classmethod
    def one(cls, p: int) -> "FieldScalar":
        return _monomial(p, 1, 1, 0)

    def _check_compatible(self, other) -> None:
        if not isinstance(other, FieldScalar):
            raise TypeError(f"expected FieldScalar, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"mismatched primes {self.p} and {other.p}")

    def __add__(self, other):
        self._check_compatible(other)
        da, db = self._den, other._den
        return _make(self.p, [a * db + b * da for a, b in zip(self._num, other._num)], da * db)

    def __sub__(self, other):
        self._check_compatible(other)
        return self + -other

    def __neg__(self):
        return _make(self.p, [-a for a in self._num], self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        p = self.p
        raw = [0] * p
        terms = [(j, b) for j, b in enumerate(other._num) if b]
        for i, a in enumerate(self._num):
            if a:
                for j, b in terms:
                    raw[(i + j) % p] += a * b
        return _make(p, raw, self._den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def rotate(self, k: int) -> "FieldScalar":
        """self * zeta^k, by a cyclic shift of the numerators."""
        p = self.p
        k %= p
        return _make(p, list(self._num[p - k:] + self._num[:p - k]), self._den)

    def scale(self, factor) -> "FieldScalar":
        f = Fraction(factor)
        return _make(self.p, [a * f.numerator for a in self._num], self._den * f.denominator)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = FieldScalar.one(self.p)
        for _ in range(n):
            out = out * self
        return out

    def galois(self, k: int) -> "FieldScalar":
        """Apply the automorphism zeta -> zeta^k, gcd(k, p) = 1."""
        p = self.p
        raw = [0] * p
        for i, a in enumerate(self._num):
            raw[(i * k) % p] += a
        return _make(p, raw, self._den)

    def inv(self) -> "FieldScalar":
        """x^-1 = (product of the nontrivial conjugates) / norm; the norm is rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_p)")
        cofactor = FieldScalar.one(self.p)
        for k in range(2, self.p):
            cofactor = cofactor * self.galois(k)
        norm = self * cofactor
        if not norm.is_rational():
            raise ArithmeticError("norm computation produced a non-rational value")
        return cofactor.scale(Fraction(norm._den, norm._num[0]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(1 / Fraction(other))
        self._check_compatible(other)
        return self * other.inv()

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return self.p == other.p and self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self.p, self._num, self._den))

    def __repr__(self):
        """The power-basis text the library prints for a monomial, so the two can be compared."""
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
        return f"Cyc(p={self.p}: {' + '.join(terms) or '0'})"


def _monomial(p: int, num: int, den: int, k: int) -> FieldScalar:
    """(num / den) * zeta^k, for den > 0."""
    raw = [0] * p
    raw[k % p] = num
    return _make(p, raw, den)


def field_root(p: int, k: int) -> FieldScalar:
    """zeta_p^k in the oracle's canonical form."""
    require_prime(p)
    return _monomial(p, 1, 1, k)


def root_of_unity(p: int, k: int) -> CyclotomicScalar:
    """zeta_p^k as a library scalar; the library itself writes CyclotomicScalar(p, 1, k)."""
    return CyclotomicScalar(p, 1, k)


def phase_exponent(x: FieldScalar) -> int | None:
    """k with x == zeta^k exactly, or None if x is not a root of unity, found by trying every k."""
    return next((k for k in range(x.p) if x == field_root(x.p, k)), None)


def to_oracle(x) -> FieldScalar:
    """x as a FieldScalar: a library monomial is read from its fields (num / den) * zeta^k.

    The fields must be in the library's canonical form, or equal values
    could compare unequal there: lowest terms, den > 0, 0 <= k < p, k = 0
    for zero and at p = 2.
    """
    if isinstance(x, FieldScalar):
        return x
    p, num, den, k = x.p, x.num, x.den, x.k
    canonical = den > 0 and gcd(num, den) == 1 and 0 <= k < p and (num or k == 0) and (p > 2 or k == 0)
    assert canonical, f"not in canonical form: p={p}, num={num}, den={den}, k={k}"
    return _monomial(p, num, den, k)


def from_rational(p: int, value) -> CyclotomicScalar:
    """The rational value as a library scalar."""
    return CyclotomicScalar(p, 1).scale(value)


def is_one(x) -> bool:
    """x == 1, for a library or an oracle scalar."""
    return x == (FieldScalar.one(x.p) if type(x) is FieldScalar else CyclotomicScalar(x.p, 1))
