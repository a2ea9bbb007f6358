"""Exact arithmetic in the cyclotomic field Q(zeta_p), p prime.

Elements are stored on the power basis 1, zeta, ..., zeta^(p-1) as a tuple of
integer numerators over one shared positive integer denominator.  The form is
canonical: the top numerator is 0, obtained by subtracting it from every entry
(legal because 1 + zeta + ... + zeta^(p-1) = 0), and the numerators and the
denominator have no common factor.  Equality and hashing are therefore plain
tuple comparisons, and all arithmetic runs on Python ints.

Inverses: a monomial c*zeta^k has one of two canonical shapes, a single
nonzero numerator at index k < p-1, or p-1 equal numerators (c*zeta^(p-1) =
-c*(1 + zeta + ... + zeta^(p-2))).  Both are inverted in closed form as
c^-1 * zeta^-k.  Every other value goes through the norm: the product of its
nontrivial Galois conjugates divided by the rational norm.

Multiplying by a root of unity zeta^k is a rotation (rotate): the numerators
shift cyclically by k and one subtraction makes them canonical again, with
no product and no gcd.  The outer actions of the fusion engine multiply
every rung coefficient this way.

Ladder composition is a product in the group algebra Q(zeta_p)[Z_p], whose
elements are maps rung -> scalar (group_algebra_product).  It runs on the
numerators alone.  Each factor is read once into flat (rung, power,
numerator) terms over one denominator; a coefficient already over that
denominator is not rescaled, and the two monomial shapes above are read with
count and index, each as one term.  One double loop over the terms of the
two factors accumulates every output rung's numerators as Python ints, and
each output rung is put in canonical form once, instead of once per rung
pair.  An output rung with one nonzero numerator a below the top power, as
in a product of character projectors, already has top numerator 0, so one
gcd(den, a) makes it canonical; other rungs go through _make.  Rungs that
sum to zero are left out, so the result has no zero coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _make(p: int, num: list[int], den: int) -> "CyclotomicScalar":
    """The canonical scalar sum(num[i] * zeta^i) / den, for p prime and den > 0."""
    top = num[-1]
    if top:
        num = [a - top for a in num]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    x = object.__new__(CyclotomicScalar)
    x.p = p
    x._num = tuple(num)
    x._den = den
    return x


def _monomial(p: int, k: int, num: int, den: int) -> "CyclotomicScalar":
    """(num / den) * zeta^k, for den != 0."""
    raw = [0] * p
    if den < 0:
        num, den = -num, -den
    raw[k % p] = num
    return _make(p, raw, den)


class CyclotomicScalar:
    """An element of Q(zeta_p) with exact rational coefficients."""

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
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CyclotomicScalar":
        require_prime(p)
        return _make(p, [0] * p, 1)

    @classmethod
    def one(cls, p: int) -> "CyclotomicScalar":
        require_prime(p)
        return _monomial(p, 0, 1, 1)

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "CyclotomicScalar") -> None:
        if not isinstance(other, CyclotomicScalar):
            raise TypeError(f"expected CyclotomicScalar, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"mismatched primes {self.p} and {other.p}")

    def __add__(self, other):
        self._check_compatible(other)
        da, db = self._den, other._den
        if da == db:
            return _make(self.p, [a + b for a, b in zip(self._num, other._num)], da)
        return _make(self.p, [a * db + b * da for a, b in zip(self._num, other._num)], da * db)

    def __sub__(self, other):
        self._check_compatible(other)
        return self + -other

    def __neg__(self):
        return _make(self.p, [-a for a in self._num], self._den)

    def __mul__(self, other):
        if type(other) is not CyclotomicScalar or other.p != self.p:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            self._check_compatible(other)
        p, num = self.p, other._num
        # a monomial (b / den) zeta^j has one of the two canonical shapes that
        # _flat_terms reads with count and index
        zeros = num.count(0)
        if zeros == p - 1:
            b = sum(num)
            j = num.index(b)
        elif zeros == 1 and num.count(num[0]) == p - 1:
            b, j = -num[0], p - 1
        else:
            b = None
        if b is not None:
            if b == 1 and other._den == 1:
                return self.rotate(j)
            raw = [a * b for a in self._num]
            return _make(p, raw[p - j:] + raw[:p - j], self._den * other._den)
        terms = [(j, b) for j, b in enumerate(num) if b]
        raw = [0] * p
        for i, a in enumerate(self._num):
            if a:
                for j, b in terms:
                    k = i + j
                    if k >= p:
                        k -= p
                    raw[k] += a * b
        return _make(p, raw, self._den * other._den)

    def rotate(self, k: int) -> "CyclotomicScalar":
        """self * zeta^k, by a cyclic shift of the numerators.

        Multiplying by zeta^k moves the numerator at index i to i + k mod p;
        the shifted tuple is then made canonical by subtracting its new top
        numerator t from every entry.  The denominator stays, and so do the
        lowest terms: the old top numerator 0 becomes the entry -t, so a
        common factor of the denominator and the new numerators divides t and
        hence every old numerator, which share none with the denominator.
        No multiplication and no gcd is needed.
        """
        p = self.p
        k %= p
        if not k:
            return self
        num = self._num[p - k:] + self._num[:p - k]
        top = num[-1]
        if top:
            num = tuple(a - top for a in num)
        x = object.__new__(CyclotomicScalar)
        x.p = p
        x._num = num
        x._den = self._den
        return x

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "CyclotomicScalar":
        if type(factor) is int:
            num, den = factor, 1
        else:
            f = Fraction(factor)
            num, den = f.numerator, f.denominator
        return _make(self.p, [a * num for a in self._num], self._den * den)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = CyclotomicScalar.one(self.p)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- field structure ---------------------------------------------------

    def galois(self, k: int) -> "CyclotomicScalar":
        """Apply the automorphism zeta -> zeta^k, gcd(k, p) = 1."""
        p = self.p
        raw = [0] * p
        for i, a in enumerate(self._num):
            raw[(i * k) % p] += a
        return _make(p, raw, self._den)

    def inv(self) -> "CyclotomicScalar":
        p, num, den = self.p, self._num, self._den
        support = [i for i, a in enumerate(num) if a]
        if not support:
            raise ZeroDivisionError("inverse of zero in Q(zeta_p)")
        # (a/d) zeta^i -> (d/a) zeta^-i
        if len(support) == 1:
            i = support[0]
            return _monomial(p, -i, den, num[i])
        # (a/d)(1 + zeta + ... + zeta^(p-2)) = (-a/d) zeta^(p-1) -> (-d/a) zeta
        if len(support) == p - 1 and num.count(num[0]) == p - 1:
            return _monomial(p, 1, -den, num[0])
        # x^-1 = (prod of nontrivial conjugates) / norm; the norm is rational.
        cofactor = CyclotomicScalar.one(p)
        for k in range(2, p):
            cofactor = cofactor * self.galois(k)
        norm = self * cofactor
        if not norm.is_rational():
            raise ArithmeticError("norm computation produced a non-rational value")
        return cofactor.scale(Fraction(norm._den, norm._num[0]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / Fraction(other))
        self._check_compatible(other)
        return self * other.inv()

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self.p == other.p and self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self.p, self._num, self._den))

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
    require_prime(p)
    return _monomial(p, k, 1, 1)


def phase_exponent(x: CyclotomicScalar) -> int | None:
    """Return k with x == zeta^k exactly, or None if x is not a root of unity."""
    if x._den != 1:
        return None
    num = x._num
    support = [i for i, a in enumerate(num) if a]
    # zeta^k for k < p-1 is a single numerator 1 at index k
    if len(support) == 1 and num[support[0]] == 1:
        return support[0]
    # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    if len(support) == x.p - 1 and num.count(-1) == x.p - 1:
        return x.p - 1
    return None


def _flat_terms(p: int, xs: dict) -> tuple[int, list]:
    """(den, [(rung, power, numerator), ...]): xs over one denominator, as flat terms.

    Only nonzero numerators are kept.  The two canonical monomial shapes are
    read with count and index: one nonzero numerator, or the p-1 equal
    numerators of c*zeta^(p-1), which become the single term (p-1, c);
    sum(zeta^i) = 0 makes the two forms equal.  When every coefficient
    already has the common denominator, nothing is rescaled.
    """
    den = lcm(*{x._den for x in xs.values()})
    top = p - 1
    out = []
    for b, x in xs.items():
        if x.p != p:
            raise ValueError(f"mismatched primes {x.p} and {p}")
        num = x._num
        zeros = num.count(0)
        if zeros == top:
            a = sum(num)
            terms = [(b, num.index(a), a)]
        elif zeros == 1 and num.count(num[0]) == top:
            terms = [(b, top, -num[0])]
        else:
            terms = [(b, i, a) for i, a in enumerate(num) if a]
        if x._den != den:
            s = den // x._den
            terms = [(b, i, a * s) for b, i, a in terms]
        out += terms
    return den, out


def group_algebra_product(p: int, f: dict, g: dict) -> dict:
    """f * g in Q(zeta_p)[Z_p], for maps rung -> CyclotomicScalar over one p.

    Rung b1 of f times rung b2 of g lands on rung b1 + b2 mod p.  Each factor
    is read once into flat terms, and one double loop over the terms sums
    the integer numerators of every output rung; each output rung is then
    put in canonical form once.  A rung with one nonzero numerator a below
    the top power needs only gcd(den, a) for that; every other rung goes
    through _make.  Rungs whose sum is zero are left out of the result, and
    the rungs keep the order in which a rung pair first meets them.
    """
    fden, fterms = _flat_terms(p, f)
    gden, gterms = _flat_terms(p, g)
    acc: list[list[int] | None] = [None] * p
    order = []
    for b1, i, a in fterms:
        for b2, j, c in gterms:
            b = (b1 + b2) % p
            raw = acc[b]
            if raw is None:
                raw = acc[b] = [0] * p
                order.append(b)
            raw[(i + j) % p] += a * c
    den = fden * gden
    top = p - 1
    out = {}
    for b in order:
        raw = acc[b]
        zeros = raw.count(0)
        if zeros == top and not raw[top]:
            # one nonzero numerator a below the top power: already canonical
            # but for the common factor gcd(den, a)
            a = sum(raw)
            g = gcd(den, a)
            if g != 1:
                raw[raw.index(a)] = a // g
            x = object.__new__(CyclotomicScalar)
            x.p = p
            x._num = tuple(raw)
            x._den = den // g
            out[b] = x
        elif zeros != p:
            x = _make(p, raw, den)
            if any(x._num):
                out[b] = x
    return out
