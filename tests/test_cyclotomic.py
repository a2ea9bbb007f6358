import random

import pytest

from bpring.cyclotomic import CyclotomicScalar, Rational, is_prime, phase_exponent, root_of_unity
from scalar_oracle import from_rational, is_one

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
    return CyclotomicScalar(p, [Rational(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(p)])


def test_root_of_unity_basics():
    assert is_one(root_of_unity(5, 0))
    assert root_of_unity(5, 7) == root_of_unity(5, 2)
    assert is_one(root_of_unity(3, 1) * root_of_unity(3, 2))


def test_root_of_unity_requires_prime():
    with pytest.raises(ValueError):
        root_of_unity(4, 1)
    with pytest.raises(ValueError):
        CyclotomicScalar(6, [0] * 6)


def test_cyclotomic_relation():
    for p in PRIMES:
        total = CyclotomicScalar.zero(p)
        for k in range(p):
            total = total + root_of_unity(p, k)
        assert total.is_zero()
        assert is_one(root_of_unity(p, 1) ** p)


def test_canonical_form_top_coefficient_zero():
    rng = random.Random(11)
    for p in PRIMES:
        for _ in range(20):
            x = random_scalar(rng, p)
            assert x.coeffs[p - 1] == 0
    # zeta^4 at p=5 equals -1 - z - z^2 - z^3 on the canonical basis
    z4 = root_of_unity(5, 4)
    assert z4 == CyclotomicScalar(5, [-1, -1, -1, -1, 0])


def test_inverse_of_root():
    assert root_of_unity(7, 3).inv() == root_of_unity(7, 4)
    for p in PRIMES:
        for k in range(p):
            assert is_one(root_of_unity(p, k) * root_of_unity(p, k).inv())


def test_group_algebra_idempotent_p3():
    # v = (1/3)(1 + z + z^2) squares to itself; expected value frozen from the
    # independent polynomial oracle
    p = 3
    v = (CyclotomicScalar.one(p) + root_of_unity(p, 1) + root_of_unity(p, 2)).scale(Rational(1, 3))
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
    with pytest.raises(ZeroDivisionError):
        CyclotomicScalar.zero(3).inv()
    with pytest.raises(ValueError):
        root_of_unity(3, 1) * root_of_unity(5, 1)


def test_phase_exponent():
    for p in PRIMES:
        for k in range(2 * p):
            assert phase_exponent(root_of_unity(p, k)) == k % p
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
            x, y = CyclotomicScalar(p, a), CyclotomicScalar(p, b)
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


def test_products_with_a_monomial_factor_match_fraction_oracle():
    # __mul__ reads a monomial right factor c zeta^j from either canonical
    # shape, and a root of unity (c = 1) becomes a rotation; the product must
    # be the canonical scalar the Fraction oracle gives, lowest terms included
    rng = random.Random(2718)
    for p in PROPERTY_PRIMES:
        for _ in range(4):
            a = random_raw(rng, p)
            x = CyclotomicScalar(p, a)
            for j in range(p):
                for c in (1, -1, 2, Rational(3, p), Rational(-5, 6)):
                    b = [0] * p
                    b[j] = c
                    y = CyclotomicScalar(p, b)
                    assert (x * y).coeffs == poly_mod_oracle(p, a, b), (p, a, j, c)
                    assert x * y == y * x
        assert (CyclotomicScalar.zero(p) * root_of_unity(p, 1)).is_zero()


def test_rotate_matches_multiplying_by_a_root_of_unity():
    # rotate shifts the numerators instead of multiplying; the result must be
    # the same canonical scalar, lowest terms included, for every k.  __mul__
    # itself rotates by a root of unity, so the product compared with is by
    # zeta^k + 1, which takes the general path
    rng = random.Random(4711)
    for p in PROPERTY_PRIMES:
        one = CyclotomicScalar.one(p)
        for _ in range(20):
            raw = random_raw(rng, p)
            x = CyclotomicScalar(p, raw)
            for k in (-2 * p - 1, -1, 0, 1, p - 1, p, p + 2, 3 * p + 1):
                y = x.rotate(k)
                assert y == x * (root_of_unity(p, k) + one) - x, (p, raw, k)
                assert y.coeffs == canonical_oracle(p, [raw[(i - k) % p] for i in range(p)])
        assert CyclotomicScalar.zero(p).rotate(3).is_zero()


def test_monomial_inverse_closed_form():
    for p in PROPERTY_PRIMES:
        for c in (Rational(1), Rational(-1), Rational(3), Rational(-2, 7), Rational(p, 4), Rational(1, p * p)):
            for k in range(p):
                x = root_of_unity(p, k).scale(c)
                expected = root_of_unity(p, -k).scale(1 / c)
                assert x.inv() == expected
                assert is_one(x * x.inv())
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
            x = CyclotomicScalar(p, coeffs)
            assert is_one(x * x.inv())
            assert is_one(x.inv() * x)
            assert x.inv().inv() == x


def test_equal_values_built_differently():
    half = Rational(1, 2)
    for p in PROPERTY_PRIMES:
        top_root = [
            root_of_unity(p, p - 1),
            root_of_unity(p, -1),
            CyclotomicScalar(p, [0] * (p - 1) + [1]),
            CyclotomicScalar(p, [-1] * (p - 1) + [0]),
            CyclotomicScalar(p, [Rational(-3, 3)] * (p - 1) + [Rational(0, 5)]),
            root_of_unity(p, 1) ** (p - 1),
            root_of_unity(p, 1).inv(),
        ]
        halves = [
            from_rational(p, half),
            CyclotomicScalar(p, [Rational(3, 6)] + [0] * (p - 1)),
            CyclotomicScalar(p, [Rational(3, 2)] + [1] * (p - 1)),
            CyclotomicScalar.one(p).scale(Rational(2, 4)),
            from_rational(p, 2).inv(),
            from_rational(p, Rational(7, 2)) - from_rational(p, 3),
        ]
        zeros = [CyclotomicScalar.zero(p), CyclotomicScalar(p, [Rational(4, 6)] * p),
                 root_of_unity(p, 2) - root_of_unity(p, p + 2)]
        for group in (top_root, halves, zeros):
            for x in group:
                assert x == group[0]
                assert hash(x) == hash(group[0])
                assert type(x.coeffs) is tuple and len(x.coeffs) == p
                assert all(type(c) is Rational for c in x.coeffs)
                assert x.coeffs[p - 1] == 0
        assert len({*top_root, *halves, *zeros}) == 3


def test_phase_exponent_rejects_non_roots():
    # at p = 2 the roots of unity are +1 and -1, so negation stays a root
    for p in PROPERTY_PRIMES[1:]:
        z_top = root_of_unity(p, p - 1)
        assert phase_exponent(z_top) == p - 1
        for x in (-z_top, z_top.scale(2), z_top.scale(Rational(1, 2)), z_top + CyclotomicScalar.one(p)):
            assert phase_exponent(x) is None
        for k in range(p):
            assert phase_exponent(-root_of_unity(p, k)) is None
    assert phase_exponent(from_rational(2, -1)) == 1
    assert phase_exponent(from_rational(2, -2)) is None
