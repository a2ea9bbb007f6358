import itertools
import random

import pytest

from bpring.bimodules import BimoduleLabel, catalogue, catalogue_entry
from bpring.cyclotomic import CyclotomicScalar, Rational, group_algebra_product, root_of_unity
from bpring.ladders import CompositionError, LadderCategory, LadderMorphism, LadderObject
from compose_oracle import scalar_product
from kar_oracle import basic, end_algebra, end_rungs, hom_rungs, identity, ladder_sum, objects, rung_target
from scalar_oracle import is_one


def entry(p, text):
    from bpring.bimodules import label_parse

    return catalogue_entry(p, label_parse(text))


def brute_force_rungs(lad, src, tgt):
    """Independent admissibility scan: rung b needs src.m == tgt.m < b and
    tgt.n == b > src.n."""
    M, N = lad.M, lad.N
    out = []
    for b in range(lad.p):
        if M.right[b][M.index[tgt.m]] == M.index[src.m] and N.left[b][N.index[src.n]] == N.index[tgt.n]:
            out.append(b)
    return out


def test_tt_hom_spaces():
    p = 3
    lad = LadderCategory(entry(p, "T"), entry(p, "T"))
    a, b, c, d, g = 1, 2, 0, 1, 2
    src = LadderObject((a, b), (c, d))
    tgt = LadderObject((a, (b - g) % p), ((c + g) % p, d))
    assert hom_rungs(lad, src, tgt) == [g]
    assert hom_rungs(lad, src, LadderObject((1, 0), (0, 0))) == []
    none_src = LadderObject((0, 0), (0, 0))
    none_tgt = LadderObject((1, 0), (0, 0))
    assert brute_force_rungs(lad, none_src, none_tgt) == []
    assert hom_rungs(lad, none_src, none_tgt) == []


def test_rung_arrays_match_rung_targets():
    """The index arrays the envelope walks agree with the rung action on objects."""
    for p in (2, 3):
        for M, N in itertools.product(catalogue(p), repeat=2):
            lad = LadderCategory(M, N)
            objs = objects(lad)
            width = len(M.simples)
            for i, obj in enumerate(objs):
                assert lad.object_index(obj) == i
                n, m = divmod(i, width)
                for b in range(p):
                    assert objs[lad.rung_n[b][n] * width + lad.rung_m[b][m]] == rung_target(lad, obj, b)


def test_object_at_inverts_object_index():
    for p in (2, 3):
        for M, N in itertools.product(catalogue(p), repeat=2):
            lad = LadderCategory(M, N)
            assert [lad.object_at(i) for i in range(lad.object_count)] == objects(lad)


def test_hom_rungs_match_brute_force():
    p = 3
    cat = catalogue(p)
    for M, N in itertools.product(cat[:5], cat[:5]):
        lad = LadderCategory(M, N)
        objs = objects(lad)
        for src in objs[:6]:
            for tgt in objs[:6]:
                assert hom_rungs(lad, src, tgt) == brute_force_rungs(lad, src, tgt)


def test_rf0_end_algebra_is_group_algebra():
    p = 5
    lad = LadderCategory(entry(p, "R"), entry(p, "F0"))
    obj = LadderObject(2, "*")
    assert end_rungs(lad, obj) == tuple(range(p))
    alg = end_algebra(lad, obj)
    assert alg.dimension == p
    assert alg.is_commutative()
    one = CyclotomicScalar.one(p)
    for g in range(p):
        for h in range(p):
            prod = alg.table[(g, h)]
            assert prod.coeffs == {(g + h) % p: one}


def test_tt_end_algebra_is_trivial():
    lad = LadderCategory(entry(3, "T"), entry(3, "T"))
    for obj in objects(lad):
        assert end_rungs(lad, obj) == (0,)


def test_ff_end_algebra_dimension():
    p = 3
    lad = LadderCategory(entry(p, "F1"), entry(p, "F2"))
    obj = LadderObject("*", "*")
    assert end_algebra(lad, obj).dimension == p


def test_identity_is_two_sided_unit():
    for p in (2, 3, 5):
        lad = LadderCategory(entry(p, "X1"), entry(p, "L"))
        objs = objects(lad)
        for obj in objs:
            for b in range(p):
                f = basic(lad, obj, b)
                assert lad.compose(identity(lad, obj), f) == f
                assert lad.compose(f, identity(lad, f.target)) == f


def test_identity_absorbs_random_morphisms():
    import random

    from bpring.cyclotomic import Rational

    rng = random.Random(5)
    for p in (2, 3, 5):
        lad = LadderCategory(entry(p, "R"), entry(p, "F0"))
        obj = objects(lad)[0]
        for _ in range(10):
            coeffs = {
                b: CyclotomicScalar(p, [Rational(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(p)])
                for b in range(p)
            }
            f = LadderMorphism(obj, obj, coeffs)
            assert lad.compose(identity(lad, obj), f) == f
            assert lad.compose(f, identity(lad, obj)) == f


def test_composition_coefficients_are_unit_for_catalogue():
    p = 3
    for M, N in itertools.product(catalogue(p), repeat=2):
        lad = LadderCategory(M, N)
        for obj in objects(lad):
            for b1 in range(p):
                f = basic(lad, obj, b1)
                for b2 in range(p):
                    g = basic(lad, f.target, b2)
                    comp = lad.compose(f, g)
                    assert comp.support() == [(b1 + b2) % p]
                    assert is_one(comp.coeffs[(b1 + b2) % p])


def test_composition_associative_exhaustive_p2():
    p = 2
    for M, N in itertools.product(catalogue(p), repeat=2):
        lad = LadderCategory(M, N)
        for obj in objects(lad):
            for b1 in range(p):
                f = basic(lad, obj, b1)
                for b2 in range(p):
                    g = basic(lad, f.target, b2)
                    for b3 in range(p):
                        h = basic(lad, g.target, b3)
                        assert lad.compose(lad.compose(f, g), h) == lad.compose(f, lad.compose(g, h))


def test_composition_associative_sampled_p3():
    p = 3
    pairs = [("T", "T"), ("R", "F0"), ("X2", "X1"), ("F1", "X2"), ("L", "R")]
    for a, b in pairs:
        lad = LadderCategory(entry(p, a), entry(p, b))
        for obj in objects(lad):
            for b1, b2, b3 in itertools.product(range(p), repeat=3):
                f = basic(lad, obj, b1)
                g = basic(lad, f.target, b2)
                h = basic(lad, g.target, b3)
                assert lad.compose(lad.compose(f, g), h) == lad.compose(f, lad.compose(g, h))


def test_composition_preserves_admissibility():
    p = 3
    lad = LadderCategory(entry(p, "X2"), entry(p, "T"))
    for obj in objects(lad):
        for b1 in range(p):
            f = basic(lad, obj, b1)
            for b2 in range(p):
                g = basic(lad, f.target, b2)
                comp = lad.compose(f, g)
                admissible = hom_rungs(lad, comp.source, comp.target)
                assert all(b in admissible for b in comp.support())


def test_hom_dimensions_symmetric_and_quantized():
    p = 3
    for M, N in itertools.product(catalogue(p)[:6], repeat=2):
        lad = LadderCategory(M, N)
        objs = objects(lad)
        for src in objs:
            stab = len(end_rungs(lad, src))
            for tgt in objs:
                d = len(hom_rungs(lad, src, tgt))
                assert d in (0, stab)
                assert d == len(hom_rungs(lad, tgt, src))


def test_compose_rejects_mismatched_objects():
    lad = LadderCategory(entry(3, "T"), entry(3, "T"))
    objs = objects(lad)
    f = identity(lad, objs[0])
    g = identity(lad, objs[1])
    with pytest.raises(CompositionError):
        lad.compose(f, g)


def test_mismatched_primes_rejected():
    with pytest.raises(ValueError):
        LadderCategory(entry(2, "T"), entry(3, "T"))


def test_morphism_addition_and_pruning():
    lad = LadderCategory(entry(3, "R"), entry(3, "F0"))
    obj = LadderObject(0, "*")
    f = basic(lad, obj, 1)
    g = f.scale(-1)
    assert ladder_sum(f, g).is_zero()
    tt = LadderCategory(entry(3, "T"), entry(3, "T"))
    o = objects(tt)[0]
    with pytest.raises(CompositionError):
        ladder_sum(basic(tt, o, 0), basic(tt, o, 1))  # different targets


def _random_scalar(rng, p, shape):
    """A scalar of the given shape, with its own denominator."""
    den = rng.choice([1, 2, 3, 4, 6, p, 2 * p, p * p])
    if shape == "dense":
        return CyclotomicScalar(p, [Rational(rng.randint(-9, 9), den) for _ in range(p)])
    if shape == "sparse":
        raw = [0] * p
        for i in rng.sample(range(p), rng.randint(1, min(2, p))):
            raw[i] = Rational(rng.choice([-5, -2, -1, 1, 3, 7]), den)
        return CyclotomicScalar(p, raw)
    # c * zeta^(p-1): p-1 equal numerators in canonical form
    return root_of_unity(p, p - 1).scale(Rational(rng.choice([-3, -1, 1, 2, 5]), den))


def _random_coeffs(rng, p):
    rungs = rng.sample(range(p), rng.randint(1, p))
    return {b: _random_scalar(rng, p, rng.choice(["dense", "sparse", "top"])) for b in rungs}


def test_compose_matches_scalar_oracle():
    """The integer kernel equals the scalar-by-scalar loop, zero rungs dropped."""
    rng = random.Random(8)
    for p in (2, 3, 5, 7, 11):
        lad = LadderCategory(entry(p, "R"), entry(p, "F0"))
        obj = LadderObject(0, "*")  # End(obj) = Q(zeta_p)[Z_p]
        cases = [(_random_coeffs(rng, p), _random_coeffs(rng, p)) for _ in range(40)]
        # a rung sum that cancels: x*c at rung 0 from (0, 0) and -x*c from (1, p-1)
        for _ in range(5):
            x = _random_scalar(rng, p, "dense")
            c = _random_scalar(rng, p, rng.choice(["sparse", "top"]))
            cases.append(({0: x, 1: x}, {0: c, p - 1: -c}))
        dropped = 0
        for f, g in cases:
            want = scalar_product(p, f, g)
            got = group_algebra_product(p, f, g)
            assert got == want, (p, f, g)
            dropped += len({(b1 + b2) % p for b1 in f for b2 in g}) - len(want)
            composite = lad.compose(LadderMorphism(obj, obj, f), LadderMorphism(obj, obj, g))
            assert composite == LadderMorphism(obj, obj, want)
        assert dropped >= 5
    with pytest.raises(ValueError):
        group_algebra_product(3, {0: CyclotomicScalar.one(3)}, {0: CyclotomicScalar.one(5)})


def test_kernel_matches_scalar_oracle_on_every_term_shape():
    """Each shape the kernel reads on a fast path, against the scalar loop.

    The same dict and the same key order: one nonzero numerator at every
    power, the p-1 equal numerators of c*zeta^(p-1), multi-term scalars,
    coefficients over one denominator and over several, one-rung and empty
    maps, at p=2 too.
    """
    rng = random.Random(18)
    for p in (2, 3, 5, 7, 11):
        c = [Rational(n, d) for n, d in ((1, 1), (-3, 1), (2, p), (-5, 6))]
        single = [root_of_unity(p, i).scale(rng.choice(c)) for i in range(p - 1)]
        top = [root_of_unity(p, p - 1).scale(x) for x in c]
        assert all(x.coeffs.count(0) == p - 1 for x in single)
        assert all(x.coeffs.count(x.coeffs[0]) == p - 1 for x in top)
        dense = [_random_scalar(rng, p, "dense") for _ in range(4)]
        shapes = single + top + dense
        maps = [{}]
        maps += [{b: x} for b, x in zip(rng.choices(range(p), k=len(shapes)), shapes)]
        for _ in range(6):
            # one denominator, then a mix of several
            maps.append({b: root_of_unity(p, rng.randrange(p)).scale(Rational(rng.randint(-4, 4) or 1, p))
                         for b in rng.sample(range(p), rng.randint(1, p))})
            maps.append({b: rng.choice(shapes) for b in rng.sample(range(p), rng.randint(1, p))})
        for f in maps:
            for g in rng.sample(maps, 12) + [{}, maps[-1]]:
                want = scalar_product(p, f, g)
                got = group_algebra_product(p, f, g)
                assert got == want and list(got) == list(want), (p, f, g)
        # a mismatched prime on either factor, also next to a matching one
        other = CyclotomicScalar.one(3 if p != 3 else 5)
        one = CyclotomicScalar.one(p)
        for f, g in (({0: other}, {0: one}), ({0: one}, {0: other}), ({0: one}, {0: one, 1: other})):
            with pytest.raises(ValueError, match="mismatched primes"):
                group_algebra_product(p, f, g)


def test_kernel_matches_scalar_oracle_on_monomial_rung_outputs():
    """Output rungs with one nonzero numerator, canonical by one gcd, against the scalar loop.

    Products of scaled character projectors and of one-rung monomials:
    every output power including p-1 (which has p-1 equal numerators in
    canonical form), denominators that reduce, and rungs that cancel.
    """
    rng = random.Random(2111)
    seen = {"below top": 0, "top": 0, "reduced": 0, "cancelled": 0}
    for p in (2, 3, 5, 7, 11):
        z = [root_of_unity(p, k) for k in range(p)]
        scales = [Rational(n, d) for n, d in ((1, p), (p, 1), (-2, 3), (3, 4), (p, 6), (-1, p * p))]
        projectors = [{b: z[k * b % p].scale(Rational(1, p)) for b in range(p)} for k in range(p)]
        cases = [(e, f) for e in projectors for f in projectors]
        cases += [({b: c.scale(s) for b, c in e.items()}, {b: c.scale(t) for b, c in f.items()})
                  for e, f in rng.sample(cases, min(len(cases), 12)) for s, t in [rng.sample(scales, 2)]]
        for i, j in itertools.product(range(p), repeat=2):
            s, t = rng.choice(scales), rng.choice(scales)
            cases.append(({rng.randrange(p): z[i].scale(s)}, {rng.randrange(p): z[j].scale(t)}))
        for f, g in cases:
            want = scalar_product(p, f, g)
            got = group_algebra_product(p, f, g)
            assert got == want and list(got) == list(want), (p, f, g)
            den = next(iter(f.values()))._den * next(iter(g.values()))._den
            for x in got.values():
                num = x._num
                if num.count(0) == p - 1:
                    seen["below top"] += 1
                    seen["reduced"] += x._den != den
                elif p > 2:
                    seen["top"] += 1
            seen["cancelled"] += len({(b1 + b2) % p for b1 in f for b2 in g}) - len(got)
    assert all(count >= 20 for count in seen.values()), seen
