import itertools
import random
from fractions import Fraction

import pytest

from bimodule_transforms import random_twist
from bpring import ladders
from bpring.bimodules import BimoduleLabel, catalogue, catalogue_entry
from bpring.cyclotomic import CyclotomicScalar
from bpring.fusion import RelativeTensorProduct, build_table
from bpring.karoubi import _projector_coeffs, leg
from bpring.ladders import (
    CompositionError,
    LadderCategory,
    LadderMorphism,
    LadderObject,
    NonMonomialRung,
    group_algebra_product,
)
from compose_oracle import scalar_product
from kar_oracle import as_oracle, basic, end_algebra, end_rungs, hom_rungs, identity, ladder_sum, objects, rung_target
from scalar_oracle import FieldScalar, is_one, root_of_unity, to_oracle


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
            rung_m, rung_n = leg(M, "left").rows, leg(N, "right").rows
            objs = objects(lad)
            width = len(M.simples)
            for i, obj in enumerate(objs):
                assert lad.object_index(obj) == i
                n, m = divmod(i, width)
                for b in range(p):
                    assert objs[rung_n[b][n] * width + rung_m[b][m]] == rung_target(lad, obj, b)


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
    one = CyclotomicScalar(p, 1)
    for g in range(p):
        for h in range(p):
            prod = alg.table[(g, h)]
            assert prod.coeffs == {(g + h) % p: FieldScalar.one(p)}
            composite = lad.compose(LadderMorphism(obj, obj, {g: one}), LadderMorphism(obj, obj, {h: one}))
            assert composite.coeffs == {(g + h) % p: one}


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
    rng = random.Random(5)
    for p in (2, 3, 5):
        lad = LadderCategory(entry(p, "R"), entry(p, "F0"))
        obj = objects(lad)[0]
        for _ in range(10):
            coeffs = {
                b: CyclotomicScalar(p, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randrange(p))
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
                    assert sorted(comp.coeffs) == [(b1 + b2) % p]
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
                assert all(b in admissible for b in sorted(comp.coeffs))


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


def test_a_morphism_is_not_equal_to_what_is_not_a_morphism():
    lad = LadderCategory(entry(3, "R"), entry(3, "F0"))
    f = basic(lad, LadderObject(0, "*"), 1)
    for other in (f.coeffs, (f.source, f.target, f.coeffs), None):
        assert f.__eq__(other) is NotImplemented
        assert f != other and not f == other


def test_morphism_addition_and_pruning():
    lad = LadderCategory(entry(3, "R"), entry(3, "F0"))
    obj = LadderObject(0, "*")
    f = basic(lad, obj, 1)
    g = f.scale(-1)
    assert not ladder_sum(f, g).coeffs
    tt = LadderCategory(entry(3, "T"), entry(3, "T"))
    o = objects(tt)[0]
    with pytest.raises(CompositionError):
        ladder_sum(basic(tt, o, 0), basic(tt, o, 1))  # different targets


def _random_scalar(rng, p, power=None):
    """c * zeta^power (a random power if None), with its own denominator."""
    den = rng.choice([1, 2, 3, 4, 6, p, 2 * p, p * p])
    k = rng.randrange(p) if power is None else power
    return CyclotomicScalar(p, Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]), den), k)


def _random_coeffs(rng, p):
    rungs = rng.sample(range(p), rng.randint(1, p))
    return {b: _random_scalar(rng, p) for b in rungs}


def _oracle(xs: dict) -> dict:
    return {b: to_oracle(c) for b, c in xs.items()}


def _is_monomial(x: FieldScalar) -> bool:
    """True when the field value x is c * zeta^k: one nonzero coefficient, or p-1 equal ones."""
    nonzero = [c for c in x.coeffs if c]
    return len(nonzero) <= 1 or (len(nonzero) == x.p - 1 and len(set(nonzero)) == 1)


def _check_kernel(p, f, g):
    """group_algebra_product(p, f, g) against the scalar loop on the field oracle.

    Where every output rung of the oracle is a monomial, the kernel must give
    the same values in the same rung order; otherwise it must raise
    NonMonomialRung naming the first rung that is not one.  Returns the
    oracle's product and the kernel's, None where it raised.
    """
    want = scalar_product(p, _oracle(f), _oracle(g))
    bad = [b for b, x in want.items() if not _is_monomial(x)]
    if bad:
        with pytest.raises(NonMonomialRung, match=f"^rung {bad[0]} of a composite is not a monomial"):
            group_algebra_product(p, f, g)
        return want, None
    got = group_algebra_product(p, f, g)
    assert _oracle(got) == want and list(got) == list(want), (p, f, g)
    return want, got


def test_compose_matches_scalar_oracle():
    """The kernel equals the scalar-by-scalar loop on the field oracle, zero rungs dropped.

    Random monomial maps make rungs that are single monomials, rungs that
    cancel to zero, and rungs that are neither, which must raise.
    """
    rng = random.Random(8)
    for p in (2, 3, 5, 7, 11):
        lad = LadderCategory(entry(p, "R"), entry(p, "F0"))
        obj = LadderObject(0, "*")  # End(obj) = Q(zeta_p)[Z_p]
        cases = [(_random_coeffs(rng, p), _random_coeffs(rng, p)) for _ in range(40)]
        for _ in range(5):
            x = _random_scalar(rng, p)
            c = _random_scalar(rng, p)
            # a rung sum that cancels: x*c at rung 0 from (0, 0) and -x*c from (1, p-1)
            cases.append(({0: x, 1: x}, {0: c, p - 1: c.scale(-1)}))
            # rungs that sum p terms x*c*zeta^(jB + (1-j)b1) over every b1: zero
            # unless j = 1 (1 + zeta + ... + zeta^(p-1) = 0)
            j = rng.randrange(p)
            cases.append(({b: x.rotate(b) for b in range(p)}, {b: c.rotate(j * b) for b in range(p)}))
            # rung 1 is x*c*(1 + zeta): -x*c*zeta^2 at p=3, no monomial beyond
            cases.append(({0: x, 1: x}, {0: c, 1: c.rotate(1)}))
        dropped = raised = 0
        for f, g in cases:
            want, got = _check_kernel(p, f, g)
            if got is not None:
                dropped += len({(b1 + b2) % p for b1 in f for b2 in g}) - len(want)
                composite = lad.compose(LadderMorphism(obj, obj, f), LadderMorphism(obj, obj, g))
                assert as_oracle(composite) == LadderMorphism(obj, obj, want)
            else:
                raised += 1
        assert dropped >= 5
        assert raised >= (0 if p == 2 else 5), p
    with pytest.raises(ValueError):
        group_algebra_product(3, {0: CyclotomicScalar(3, 1)}, {0: CyclotomicScalar(5, 1)})


def test_kernel_matches_scalar_oracle_on_every_term_shape():
    """Each input shape against the scalar loop.

    The same dict and the same key order: a monomial at every power,
    including c*zeta^(p-1), coefficients over one denominator and over
    several, one-rung and empty maps, at p=2 too.
    """
    rng = random.Random(18)
    for p in (2, 3, 5, 7, 11):
        c = [Fraction(n, d) for n, d in ((1, 1), (-3, 1), (2, p), (-5, 6))]
        shapes = [root_of_unity(p, i).scale(rng.choice(c)) for i in range(p)]
        shapes += [root_of_unity(p, p - 1).scale(x) for x in c]
        maps = [{}]
        maps += [{b: x} for b, x in zip(rng.choices(range(p), k=len(shapes)), shapes)]
        for _ in range(6):
            # one denominator, then a mix of several
            maps.append({b: root_of_unity(p, rng.randrange(p)).scale(Fraction(rng.randint(-4, 4) or 1, p))
                         for b in rng.sample(range(p), rng.randint(1, p))})
            maps.append({b: rng.choice(shapes) for b in rng.sample(range(p), rng.randint(1, p))})
        for f in maps:
            for g in rng.sample(maps, 12) + [{}, maps[-1]]:
                _check_kernel(p, f, g)
        # a mismatched prime on either factor, also next to a matching one
        other = CyclotomicScalar(3 if p != 3 else 5, 1)
        one = CyclotomicScalar(p, 1)
        for f, g in (({0: other}, {0: one}), ({0: one}, {0: other}), ({0: one}, {0: one, 1: other})):
            with pytest.raises(ValueError, match="mismatched primes"):
                group_algebra_product(p, f, g)


def test_kernel_matches_scalar_oracle_on_monomial_rung_outputs():
    """Output rungs that sum one term or p terms, against the scalar loop.

    Products of scaled character projectors and of one-rung monomials:
    every output power including p-1, denominators that reduce, rungs of p
    equal powers and rungs that cancel.
    """
    rng = random.Random(2111)
    seen = {"below top": 0, "top": 0, "reduced": 0, "cancelled": 0}
    for p in (2, 3, 5, 7, 11):
        z = [root_of_unity(p, k) for k in range(p)]
        scales = [Fraction(n, d) for n, d in ((1, p), (p, 1), (-2, 3), (3, 4), (p, 6), (-1, p * p))]
        projectors = [{b: z[k * b % p].scale(Fraction(1, p)) for b in range(p)} for k in range(p)]
        cases = [(e, f) for e in projectors for f in projectors]
        cases += [({b: c.scale(s) for b, c in e.items()}, {b: c.scale(t) for b, c in f.items()})
                  for e, f in rng.sample(cases, min(len(cases), 12)) for s, t in [rng.sample(scales, 2)]]
        for i, j in itertools.product(range(p), repeat=2):
            s, t = rng.choice(scales), rng.choice(scales)
            cases.append(({rng.randrange(p): z[i].scale(s)}, {rng.randrange(p): z[j].scale(t)}))
        for f, g in cases:
            got = _check_kernel(p, f, g)[1]
            den = next(iter(f.values())).den * next(iter(g.values())).den
            for x in got.values():
                if x.k < p - 1 or p == 2:
                    seen["below top"] += 1
                else:
                    seen["top"] += 1
                seen["reduced"] += x.den != den
            seen["cancelled"] += len({(b1 + b2) % p for b1 in f for b2 in g}) - len(got)
    assert all(count >= 20 for count in seen.values()), seen


def test_kernel_raises_on_a_non_monomial_rung():
    # {0: 1, 1: 1} after {0: 1, 1: zeta}: rung 1 sums 1*zeta + 1*1 = 1 + zeta,
    # which at p=5 is no monomial, and at p=3 is -zeta^2
    one, z = CyclotomicScalar(5, 1), root_of_unity(5, 1)
    f, g = {0: one, 1: one}, {0: one, 1: z}
    with pytest.raises(NonMonomialRung, match=r"^rung 1 of a composite is not a monomial c\*zeta\^k at p=5$"):
        group_algebra_product(5, f, g)
    lad = LadderCategory(entry(5, "R"), entry(5, "F0"))
    obj = LadderObject(0, "*")
    with pytest.raises(NonMonomialRung):
        lad.compose(LadderMorphism(obj, obj, f), LadderMorphism(obj, obj, g))
    one, z = CyclotomicScalar(3, 1), root_of_unity(3, 1)
    got = group_algebra_product(3, {0: one, 1: one}, {0: one, 1: z})
    assert got == {0: one, 1: root_of_unity(3, 2).scale(-1), 2: z}
    assert repr(got[1]) == "Cyc(p=3: 1 + z)"


def test_kernel_matches_the_field_oracle_on_every_engine_composition(monkeypatch):
    """Every composition the engine makes, against the scalar loop on the field oracle.

    Serial build_table at p <= 11, and analyze of every ordered pair at
    p <= 5, plain and with both factors random_twist'ed.  The stored
    projectors are rebuilt, so their idempotent checks are compared too.
    """
    kernel, calls = ladders.group_algebra_product, []

    def checked(p, f, g):
        calls.append(p)
        got = kernel(p, f, g)
        want = scalar_product(p, _oracle(f), _oracle(g))
        assert _oracle(got) == want and list(got) == list(want), (p, f, g)
        return got

    monkeypatch.setattr(ladders, "group_algebra_product", checked)
    monkeypatch.setattr("bpring.karoubi.group_algebra_product", checked)
    _projector_coeffs.cache_clear()
    try:
        for p in (2, 3, 5, 7, 11):
            build_table(p, workers=1)
        rng = random.Random(505)
        for p in (2, 3, 5):
            cat = catalogue(p)
            twisted = [random_twist(e, rng) for e in cat]
            for lefts, rights in ((cat, cat), (twisted, twisted)):
                for M, N in itertools.product(lefts, rights):
                    RelativeTensorProduct(M, N).analyze()
    finally:
        _projector_coeffs.cache_clear()
    assert len(calls) > 1000 and set(calls) == {2, 3, 5, 7, 11}
