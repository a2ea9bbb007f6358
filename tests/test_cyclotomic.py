"""The library's monomial scalars, and the field oracle they are checked against.

CyclotomicScalar holds c * zeta^k; scalar_oracle.FieldScalar is general
Q(zeta_p) arithmetic.  The field tests run on the oracle against a plain
Fraction polynomial oracle; the monomial tests run on the library, against
the Fraction oracle or against FieldScalar through to_oracle.
"""

import random
import re

import pytest

from bpring.cyclotomic import CyclotomicScalar, Rational, is_prime, phase_exponent, require_prime, root_of_unity
from scalar_oracle import FieldScalar, from_rational, is_one, to_oracle
from scalar_oracle import phase_exponent as field_phase_exponent
from scalar_oracle import root_of_unity as field_root

PRIMES = [2, 3, 5, 7]
PROPERTY_PRIMES = [2, 3, 5, 7, 11]


def canonical_oracle(p, raw):
    """Eliminate zeta^(p-1) using 1 + zeta + ... + zeta^(p-1) = 0."""
    top = Rational(raw[p - 1])
    return tuple(Rational(c) - top for c in raw)


def poly_mod_oracle(p, coeffs_a, coeffs_b):
    """Multiply two zeta-polynomials by hand: fold with zeta^p = 1, then
    eliminate zeta^(p-1) using 1 + zeta + ... + zeta^(p-1) = 0."""
    raw = [Rational(0)] * p
    for i, a in enumerate(coeffs_a):
        for j, b in enumerate(coeffs_b):
            raw[(i + j) % p] += Rational(a) * Rational(b)
    return canonical_oracle(p, raw)


def galois_oracle(p, coeffs, k):
    raw = [Rational(0)] * p
    for i, a in enumerate(coeffs):
        raw[(i * k) % p] += Rational(a)
    return canonical_oracle(p, raw)


def random_raw(rng, p):
    """Coefficients as ints or Fractions, mixed signs, a nonzero top entry
    most of the time, and numerators and denominators with shared factors."""
    raw = []
    for _ in range(p):
        m = rng.choice([1, 2, 3, p])
        den = rng.choice([1, 2, 3, 4, 6, p, p * p]) * m
        num = rng.randint(-9, 9) * m
        raw.append(num // den if num % den == 0 and rng.random() < 0.5 else Rational(num, den))
    return raw


def random_scalar(rng, p):
    return FieldScalar(p, [Rational(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(p)])


def random_rational(rng, p):
    """A rational with shared factors, mixed signs and p in the denominator, sometimes 0."""
    m = rng.choice([1, 2, 3, p])
    return Rational(rng.randint(-9, 9) * m, rng.choice([1, 2, 3, 4, 6, p, p * p]) * m)


def random_monomial(rng, p):
    """c * zeta^k with c from random_rational and any k, as the library builds it."""
    return CyclotomicScalar(p, random_rational(rng, p), rng.randrange(-2 * p, 2 * p))


def test_root_of_unity_basics():
    assert is_one(root_of_unity(5, 0))
    assert root_of_unity(5, 7) == root_of_unity(5, 2)
    assert is_one(root_of_unity(3, 1) * root_of_unity(3, 2))


def test_root_of_unity_requires_prime():
    with pytest.raises(ValueError):
        root_of_unity(4, 1)
    with pytest.raises(ValueError):
        CyclotomicScalar(6, 1)
    with pytest.raises(ValueError):
        FieldScalar(6, [0] * 6)
    # a prime is an int: 7.0 equals a small prime, yet the tables would fail
    # on it later with a TypeError
    for p in (7.0, True, Rational(7), "7"):
        with pytest.raises(ValueError, match=f"^p must be an integer, got {re.escape(repr(p))}$"):
            CyclotomicScalar(p, 1)
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        require_prime(4)


def test_rational_factors_stay_exact():
    # a float would be stored as its binary fraction and a string parsed, so
    # both are bad input, as is a bool
    one = CyclotomicScalar.one(3)
    for c in (0.1, 0.5, "1/3", True, None):
        message = f"^a scalar's rational factor must be an int or a Fraction, got {re.escape(repr(c))}$"
        with pytest.raises(ValueError, match=message):
            CyclotomicScalar(3, c)
        with pytest.raises(ValueError, match=message):
            one.scale(c)
    assert CyclotomicScalar(3, Rational(1, 3), 1) == root_of_unity(3, 1).scale(Rational(2, 6))
    assert CyclotomicScalar(3, -2) == one.scale(-2)


def test_a_factor_that_scale_rejects_is_no_operand_of_mul():
    # x * c scales by an int or a Fraction; every other factor, a bool
    # included, raises TypeError, while scale(True) raises ValueError above
    x = root_of_unity(3, 1)
    for c in (True, False, 1.5, 0.5, "1/3", None):
        with pytest.raises(TypeError):
            x * c
    assert x * 2 == x.scale(2) and x * Rational(2, 6) == x.scale(Rational(1, 3))


def test_cyclotomic_relation():
    for p in PRIMES:
        total = FieldScalar.zero(p)
        for k in range(p):
            total = total + field_root(p, k)
        assert total.is_zero()
        assert is_one(field_root(p, 1) ** p)


def test_canonical_form_top_coefficient_zero():
    rng = random.Random(11)
    for p in PRIMES:
        for _ in range(20):
            x = random_scalar(rng, p)
            assert x.coeffs[p - 1] == 0
            assert random_monomial(rng, p).coeffs[p - 1] == 0
    # zeta^4 at p=5 equals -1 - z - z^2 - z^3 on the canonical basis
    z4 = root_of_unity(5, 4)
    assert z4.coeffs == FieldScalar(5, [-1, -1, -1, -1, 0]).coeffs == field_root(5, 4).coeffs


def test_inverse_of_root():
    assert root_of_unity(7, 3).inv() == root_of_unity(7, 4)
    for p in PRIMES:
        for k in range(p):
            assert is_one(root_of_unity(p, k) * root_of_unity(p, k).inv())


def test_group_algebra_idempotent_p3():
    # v = (1/3)(1 + z + z^2) squares to itself; expected value frozen from the
    # independent polynomial oracle
    p = 3
    v = (FieldScalar.one(p) + field_root(p, 1) + field_root(p, 2)).scale(Rational(1, 3))
    expected = poly_mod_oracle(
        p,
        [Rational(1, 3), Rational(1, 3), Rational(1, 3)],
        [Rational(1, 3), Rational(1, 3), Rational(1, 3)],
    )
    assert (v * v).coeffs == expected
    assert v * v == v


def test_field_axioms_random():
    rng = random.Random(20240)
    for p in PRIMES:
        for _ in range(25):
            x, y, z = (random_scalar(rng, p) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert is_one(x * x.inv())


def test_division_errors():
    for zero in (CyclotomicScalar.zero(3), FieldScalar.zero(3)):
        with pytest.raises(ZeroDivisionError):
            zero.inv()
    with pytest.raises(ValueError, match="mismatched primes"):
        root_of_unity(3, 1) * root_of_unity(5, 1)
    with pytest.raises(ValueError, match="mismatched primes"):
        field_root(3, 1) * field_root(5, 1)
    with pytest.raises(TypeError):
        root_of_unity(3, 1) * "z"


def test_phase_exponent():
    for p in PRIMES:
        for k in range(2 * p):
            assert phase_exponent(root_of_unity(p, k)) == k % p
            assert field_phase_exponent(field_root(p, k)) == k % p
    assert phase_exponent(root_of_unity(5, 1).scale(2)) is None
    assert phase_exponent(CyclotomicScalar.zero(5)) is None
    x = root_of_unity(7, 4) * root_of_unity(7, 5)
    assert phase_exponent(x) == 2


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(49)


def test_arithmetic_matches_fraction_oracle():
    rng = random.Random(31337)
    for p in PROPERTY_PRIMES:
        for _ in range(30):
            a, b = random_raw(rng, p), random_raw(rng, p)
            x, y = FieldScalar(p, a), FieldScalar(p, b)
            assert x.coeffs == canonical_oracle(p, a)
            assert (x * y).coeffs == poly_mod_oracle(p, a, b)
            assert (x + y).coeffs == canonical_oracle(p, [Rational(u) + Rational(v) for u, v in zip(a, b)])
            assert (x - y).coeffs == canonical_oracle(p, [Rational(u) - Rational(v) for u, v in zip(a, b)])
            assert (-x).coeffs == canonical_oracle(p, [-Rational(u) for u in a])
            for k in range(1, p):
                assert x.galois(k).coeffs == galois_oracle(p, a, k)
            f = Rational(rng.randint(-12, 12), rng.choice([1, 2, 4, p, 3 * p]))
            assert x.scale(f).coeffs == canonical_oracle(p, [Rational(u) * f for u in a])
            assert (x * f) == x.scale(f) == (f * x)
            n = rng.randint(-5, 5)
            assert x.scale(n).coeffs == canonical_oracle(p, [Rational(u) * n for u in a])
            assert x.rotate(n).coeffs == canonical_oracle(p, [a[(i - n) % p] for i in range(p)])


def test_products_with_a_monomial_factor_match_fraction_oracle():
    # a product of monomials c zeta^i and d zeta^j, every power on both sides,
    # must be the canonical power-basis value the Fraction oracle gives,
    # lowest terms included, and an integer or rational factor is a scale
    rng = random.Random(2718)
    for p in PROPERTY_PRIMES:
        cs = (1, -1, 2, Rational(3, p), Rational(-5, 6), Rational(p, 4))
        for i in range(p):
            x = CyclotomicScalar(p, rng.choice(cs), i)
            for j in range(p):
                for c in rng.sample(cs, 2):
                    y = CyclotomicScalar(p, c, j)
                    assert (x * y).coeffs == poly_mod_oracle(p, x.coeffs, y.coeffs), (p, i, j, c)
                    assert x * y == y * x
            f = random_rational(rng, p)
            assert x * f == x.scale(f)
            assert (x * 3).coeffs == canonical_oracle(p, [3 * u for u in x.coeffs])
        assert (CyclotomicScalar.zero(p) * root_of_unity(p, 1)).is_zero()


def test_rotate_matches_multiplying_by_a_root_of_unity():
    # rotate moves the exponent only; the result must be the canonical scalar
    # of the product with zeta^k, and shift the power-basis coefficients by k
    rng = random.Random(4711)
    for p in PROPERTY_PRIMES:
        for _ in range(20):
            x = random_monomial(rng, p)
            for k in (-2 * p - 1, -1, 0, 1, p - 1, p, p + 2, 3 * p + 1):
                y = x.rotate(k)
                assert y == x * root_of_unity(p, k), (p, x, k)
                assert y.coeffs == canonical_oracle(p, [x.coeffs[(i - k) % p] for i in range(p)])
                assert to_oracle(y) == to_oracle(x).rotate(k)
        assert CyclotomicScalar.zero(p).rotate(3).is_zero()


def test_monomial_inverse_closed_form():
    for p in PROPERTY_PRIMES:
        for c in (Rational(1), Rational(-1), Rational(3), Rational(-2, 7), Rational(p, 4), Rational(1, p * p)):
            for k in range(p):
                x = root_of_unity(p, k).scale(c)
                expected = root_of_unity(p, -k).scale(1 / c)
                assert x.inv() == expected
                assert is_one(x * x.inv())
                assert to_oracle(x.inv()) == to_oracle(x).inv()
    # p = 2: zeta = -1, the rational -1
    assert root_of_unity(2, 1).inv() == from_rational(2, -1)


def test_non_monomial_inverse():
    rng = random.Random(4242)
    for p in PROPERTY_PRIMES[1:]:
        for _ in range(8):
            # two distinct nonzero numerators below the top index: never c*zeta^k
            coeffs = [Rational(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(p)]
            coeffs[0], coeffs[p - 1] = Rational(rng.randint(1, 4)), Rational(0)
            coeffs[1] = coeffs[0] + Rational(1, rng.randint(1, 3))
            x = FieldScalar(p, coeffs)
            assert is_one(x * x.inv())
            assert is_one(x.inv() * x)
            assert x.inv().inv() == x


def test_equal_values_built_differently():
    half = Rational(1, 2)
    for p in PROPERTY_PRIMES:
        one, z = CyclotomicScalar.one(p), root_of_unity(p, 1)
        top_root = [
            root_of_unity(p, p - 1),
            root_of_unity(p, -1),
            CyclotomicScalar(p, 1, p - 1),
            CyclotomicScalar(p, Rational(-3, -3), 2 * p - 1),
            one.rotate(-1),
            z.inv(),
            z.scale(2).scale(half).rotate(p - 2),
        ]
        power = one
        for _ in range(p - 1):
            power = power * z
        top_root.append(power)
        halves = [
            from_rational(p, half),
            CyclotomicScalar(p, Rational(3, 6)),
            CyclotomicScalar(p, half, p),
            one.scale(Rational(2, 4)),
            from_rational(p, 2).inv(),
            root_of_unity(p, 3).scale(Rational(-7, -14)).rotate(-3),
        ]
        zeros = [CyclotomicScalar.zero(p), CyclotomicScalar(p, 0, 3), z.scale(0), CyclotomicScalar.zero(p).rotate(1)]
        for group in (top_root, halves, zeros):
            for x in group:
                assert x == group[0]
                assert hash(x) == hash(group[0])
                assert (x.num, x.den, x.k) == (group[0].num, group[0].den, group[0].k)
                assert type(x.coeffs) is tuple and len(x.coeffs) == p
                assert all(type(c) is Rational for c in x.coeffs)
                assert x.coeffs[p - 1] == 0
                assert to_oracle(x) == to_oracle(group[0])
        assert len({*top_root, *halves, *zeros}) == 3
        # the oracle's canonical form: equal field values built differently
        field = [
            (FieldScalar(p, [0] * (p - 1) + [1]), FieldScalar(p, [-1] * (p - 1) + [0])),
            (FieldScalar(p, [Rational(3, 6)] + [0] * (p - 1)), FieldScalar(p, [Rational(3, 2)] + [1] * (p - 1))),
            (FieldScalar.zero(p), FieldScalar(p, [Rational(4, 6)] * p)),
        ]
        for x, y in field:
            assert x == y and hash(x) == hash(y) and x.coeffs == y.coeffs


def test_phase_exponent_rejects_non_roots():
    # at p = 2 the roots of unity are +1 and -1, so negation stays a root
    for p in PROPERTY_PRIMES[1:]:
        z_top = root_of_unity(p, p - 1)
        assert phase_exponent(z_top) == p - 1
        for x in (z_top.scale(-1), z_top.scale(2), z_top.scale(Rational(1, 2))):
            assert phase_exponent(x) is None
        for k in range(p):
            assert phase_exponent(root_of_unity(p, k).scale(-1)) is None
        assert field_phase_exponent(field_root(p, p - 1) + FieldScalar.one(p)) is None
    assert phase_exponent(from_rational(2, -1)) == 1
    assert phase_exponent(from_rational(2, -2)) is None


def test_p2_folds_zeta_into_the_sign():
    # at p = 2, zeta = -1: k is always 0 and the sign carries it, so zeta and
    # -1 are one value with one hash and one text, and I_1 = {0: 1/2, 1: -1/2}
    zeta, minus_one = root_of_unity(2, 1), from_rational(2, -1)
    assert zeta == minus_one and hash(zeta) == hash(minus_one)
    assert (zeta.num, zeta.den, zeta.k) == (-1, 1, 0)
    assert repr(zeta) == repr(minus_one) == "Cyc(p=2: -1)"
    assert phase_exponent(zeta) == phase_exponent(minus_one) == 1
    assert phase_exponent(CyclotomicScalar.one(2)) == 0
    half_zeta = CyclotomicScalar(2, Rational(1, 2), 1)
    assert half_zeta == from_rational(2, Rational(-1, 2)) and repr(half_zeta) == "Cyc(p=2: -1/2)"
    assert half_zeta.rotate(1) == from_rational(2, Rational(1, 2))
    assert zeta * zeta == CyclotomicScalar.one(2) and zeta.inv() == zeta
    for x in (zeta, half_zeta, zeta.scale(3), zeta.rotate(5)):
        assert x.k == 0 and to_oracle(x) == FieldScalar(2, [Rational(x.num, x.den), 0])


def test_monomials_match_the_field_oracle():
    # every operation of the library on random monomials equals the field
    # oracle's on their to_oracle images: products, inverses, rotations,
    # scales, coefficients, text, equality, hashes and phase exponents
    rng = random.Random(1728)
    for p in PROPERTY_PRIMES:
        xs = [random_monomial(rng, p) for _ in range(40)] + [root_of_unity(p, k) for k in range(p)]
        for x in xs:
            ox = to_oracle(x)
            assert x.coeffs == ox.coeffs and repr(x) == repr(ox), (p, x)
            assert phase_exponent(x) == field_phase_exponent(ox), (p, x)
            assert x.is_zero() == ox.is_zero()
            if not x.is_zero():
                assert to_oracle(x.inv()) == ox.inv()
            f = random_rational(rng, p)
            assert to_oracle(x.scale(f)) == ox.scale(f)
            k = rng.randrange(-p, 2 * p)
            assert to_oracle(x.rotate(k)) == ox.rotate(k)
            for y in rng.sample(xs, 8):
                oy = to_oracle(y)
                assert to_oracle(x * y) == ox * oy, (p, x, y)
                assert (x == y) == (ox == oy)
                if x == y:
                    assert hash(x) == hash(y)
