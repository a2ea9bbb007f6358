"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
from fractions import Fraction

import pytest

from bpring.bimodules import BimoduleLabel, catalogue, catalogue_entry, label_invariants, label_parse
from bpring.cli import main as cli_main
from bpring.cyclotomic import CyclotomicScalar, phase_exponent
from bpring.fusion import RelativeTensorProduct
from bpring.groups import subgroup_from_generators
from bpring.closed_form import closed_form_table
from bpring.fusion import build_table
from bpring.karoubi import KarEnvelope
from bpring.ladders import LadderCategory, group_algebra_product
from bpring.ring import check_axioms, diff_tables, units_group
from bpring.walls import InvertibleWall, oracle_table, wall_of
from action_oracle import orbit_stabilizer, search_orbits
from group_oracle import CocycleClass, cocycle_phase, pair_add
from kar_oracle import as_oracle, basic, end_algebra, end_rungs, identity, ladder_sum, objects, primitive_idempotents, zero
from scalar_oracle import FieldScalar, is_one, root_of_unity
from scalar_oracle import phase_exponent as field_phase_exponent
from scalar_oracle import field_root
from wall_oracle import spin

PRIMES = (2, 3, 5, 7)


@pytest.fixture(scope="session")
def engine_tables():
    return {p: build_table(p) for p in PRIMES}


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}", flush=True)


def test_criterion_1_golden_table(engine_tables):
    for p in PRIMES:
        diffs = diff_tables(engine_tables[p], closed_form_table(p))
        assert diffs == [], f"p={p}: {diffs[:5]}"
    report(1, f"engine tables match the closed-form multiplication law for p in {PRIMES}")


def test_criterion_2_catalogue_shape():
    for p in PRIMES:
        cat = catalogue(p)
        assert len(cat) == 2 * p + 2
        counts = sorted(len(b.simples) for b in cat)
        expected = sorted([p * p, p, p] + [1] * p + [p] * (p - 1))
        assert counts == expected
        subgroup = lambda text: label_invariants(p, label_parse(text))[0]
        assert subgroup("T").kind == "trivial"
        assert subgroup("L") == subgroup_from_generators(p, [(1, 0)])
        assert subgroup("R") == subgroup_from_generators(p, [(0, 1)])
        for q in range(p):
            assert subgroup(f"F{q}").kind == "full"
        for k in range(1, p):
            assert subgroup(f"X{k}") == subgroup_from_generators(p, [(-k, 1)])
        for b in cat:
            assert {b.stabilizer_of(i) for i in range(len(b.simples))} == {subgroup(str(b.label))}
    report(2, f"catalogue has 2p+2 entries with the expected shapes for p in {PRIMES}")


def test_criterion_3_worked_example_replay():
    p = 3
    entry = lambda text: catalogue_entry(p, label_parse(text))

    # product of the free bimodule with itself: already idempotent complete
    tt = RelativeTensorProduct(entry("T"), entry("T"))
    assert all(len(end_rungs(tt.lad, obj)) == 1 for obj in objects(tt.lad))
    assert len(tt.simples) == p**3
    assert str(tt.decompose()) == "3*T"

    # one-sided boundary pair against the all-condensing entry: C[Z_p] Ends
    rf = RelativeTensorProduct(entry("R"), entry("F0"))
    for obj in objects(rf.lad):
        alg = end_algebra(rf.lad, obj)
        assert alg.dimension == p and alg.is_commutative()
        idems = primitive_idempotents(rf.lad, obj)
        for j, ej in enumerate(idems):
            for k, ek in enumerate(idems):
                expected = ek if j == k else zero(rf.lad, obj, obj)
                assert rf.lad.compose(ej, ek) == expected
        assert ladder_sum(*idems) == as_oracle(identity(rf.lad, obj))
    assert len(rf.simples) == p**2
    assert str(rf.decompose()) == "3*R"

    # invertible pair: single class, associator exponent q*l at (1,1)
    for q in (1, 2):
        for l in (1, 2):
            fx = RelativeTensorProduct(entry(f"F{q}"), entry(f"X{l}"))
            assert len(fx.simples) == 1
            exponent = fx.mixed_associator(1, 1, fx.simples[0])
            assert exponent == (q * l) % p
            assert str(fx.decompose()) == f"F{(q * l) % p}"

    # the two remaining instructive products
    assert str(RelativeTensorProduct(entry("X1"), entry("X2")).decompose()) == "X2"
    assert str(RelativeTensorProduct(entry("F1"), entry("F2")).decompose()) == "X2"
    report(3, "worked products replay with matching intermediate data at p=3")


def test_criterion_4_ring_axioms(engine_tables):
    for p in PRIMES:
        report_p = check_axioms(engine_tables[p])
        assert report_p.unit_ok, f"p={p}"
        assert report_p.associativity_ok, f"p={p}"
    for p in (5, 7):
        assert cli_main(["verify", "--p", str(p)]) == 0
    report(4, f"unit and exhaustive associativity for p in {PRIMES}, and via verify at p in (5, 7)")


def test_criterion_5_units_group(engine_tables):
    for p in PRIMES:
        units = units_group(engine_tables[p])
        assert units.order == 2 * (p - 1), f"p={p}"
        assert units.is_dihedral(), f"p={p}"
        xs = [u for u in units.labels if u.kind == "X"]
        assert len(xs) == p - 1
    report(5, "units form the dihedral group of order 2(p-1) for p in " + str(PRIMES))


def test_criterion_6_oracle_equivalence(engine_tables):
    for p in PRIMES:
        diffs = diff_tables(engine_tables[p], oracle_table(p))
        assert diffs == [], f"p={p}: {diffs[:5]}"
    report(6, f"wall-stacking oracle reproduces the engine table for p in {PRIMES}")


def test_criterion_7_property_suites():
    # cyclotomic field axioms and zeta relations, on the field oracle
    rng = random.Random(99)
    for p in (2, 3, 5, 7):
        total = FieldScalar.zero(p)
        for k in range(p):
            total = total + field_root(p, k)
        assert total.is_zero()
        assert is_one(field_root(p, 1) ** p)
        for _ in range(10):
            vals = [
                FieldScalar(p, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(p)])
                for _ in range(3)
            ]
            x, y, z = vals
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert is_one(x * x.inv())
        for k in range(2 * p):
            assert field_phase_exponent(field_root(p, k)) == k % p

    # the same laws on the library's monomials c * zeta^k, and the character
    # projectors orthogonal through the composition kernel
    rng = random.Random(77)
    for p in (2, 3, 5, 7):
        for _ in range(10):
            x, y, z = (CyclotomicScalar(p, Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randrange(p))
                       for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            if not x.is_zero():
                assert is_one(x * x.inv())
            for k in range(-p, 2 * p):
                assert x.rotate(k) == x * root_of_unity(p, k)
        for k in range(2 * p):
            assert phase_exponent(root_of_unity(p, k)) == k % p
        projectors = [{b: CyclotomicScalar(p, Fraction(1, p), j * b) for b in range(p)} for j in range(p)]
        for j, ej in enumerate(projectors):
            for k, ek in enumerate(projectors):
                assert group_algebra_product(p, ej, ek) == (ek if j == k else {})

    # 2-cocycle identity for every representative at p in (2, 3)
    for p in (2, 3):
        for q in range(p):
            c = CocycleClass(p, q)
            pts = [(a, b) for a in range(p) for b in range(p)]
            for x, y, z in itertools.product(pts, repeat=3):
                assert cocycle_phase(c, x, y) * cocycle_phase(c, pair_add(p, x, y), z) == cocycle_phase(
                    c, y, z
                ) * cocycle_phase(c, x, pair_add(p, y, z))

    # ladder composition associativity, exhaustive at p = 2
    p = 2
    for M, N in itertools.product(catalogue(p), repeat=2):
        lad = LadderCategory(M, N)
        for obj in objects(lad):
            for b1, b2, b3 in itertools.product(range(p), repeat=3):
                f = basic(lad, obj, b1)
                g = basic(lad, f.target, b2)
                h = basic(lad, g.target, b3)
                assert lad.compose(lad.compose(f, g), h) == lad.compose(f, lad.compose(g, h))

    # stabilizer base-point independence and the counting identity
    for p in (2, 3):
        for M, N in itertools.product(catalogue(p), repeat=2):
            product = RelativeTensorProduct(M, N)
            a = product.analyze()
            assert a.decomposition.total_simples(p) == a.simple_count
            for orbit in search_orbits(product):
                stabs = {orbit_stabilizer(product, i) for i in orbit}
                assert len(stabs) == 1
    report(7, "field axioms, cocycle identities, composition associativity, and orbit invariants hold")


def test_criterion_8_braiding_pairing():
    # the spin a*b of e^a m^b determines the mutual braiding a*d + b*c of
    # e^a m^b and e^c m^d, so a wall that preserves the spin preserves it too
    for p in (2, 3, 5):
        anyons = list(itertools.product(range(p), repeat=2))
        for k in range(1, p):
            for kind in ("X", "F"):
                wall = wall_of(p, BimoduleLabel(kind, k))
                assert all(spin(p, wall.apply(x)) == spin(p, x) for x in anyons), (p, kind, k)
        shear = InvertibleWall(p, ((1, 1), (0, 1)))
        assert any(spin(p, shear.apply(x)) != spin(p, x) for x in anyons)
    report(8, "every invertible wall map preserves the spin of e^a m^b, hence the mutual braiding, for p in (2, 3, 5)")
