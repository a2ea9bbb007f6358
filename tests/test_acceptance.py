"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random

import pytest

from bpring.bimodules import BimoduleLabel, catalogue, catalogue_entry, label_parse
from bpring.cli import main as cli_main
from bpring.cyclotomic import CyclotomicScalar, Rational, phase_exponent, root_of_unity
from bpring.fusion import RelativeTensorProduct, analyze
from bpring.groups import CocycleClass, PairElt, cocycle_phase, subgroup_from_generators
from bpring.closed_form import closed_form_table
from bpring.fusion import build_table
from bpring.karoubi import KarEnvelope
from bpring.ladders import LadderCategory
from bpring.ring import check_axioms, diff_tables, units_group
from bpring.walls import oracle_table, preserves_braiding, wall_of
from kar_oracle import basic, end_algebra, end_rungs, primitive_idempotents, zero

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
        by_label = {str(b.label): b for b in cat}
        assert by_label["T"].subgroup.kind == "trivial"
        assert by_label["L"].subgroup == subgroup_from_generators(p, [(1, 0)])
        assert by_label["R"].subgroup == subgroup_from_generators(p, [(0, 1)])
        for q in range(p):
            assert by_label[f"F{q}"].subgroup.kind == "full"
        for k in range(1, p):
            assert by_label[f"X{k}"].subgroup == subgroup_from_generators(p, [(-k, 1)])
    report(2, f"catalogue has 2p+2 entries with the expected shapes for p in {PRIMES}")


def test_criterion_3_worked_example_replay():
    p = 3
    entry = lambda text: catalogue_entry(p, label_parse(text))

    # product of the free bimodule with itself: already idempotent complete
    tt = RelativeTensorProduct(entry("T"), entry("T"))
    assert all(len(end_rungs(tt.lad, obj)) == 1 for obj in tt.env.objects)
    assert len(tt.simples) == p**3
    assert str(tt.decompose()) == "3*T"

    # one-sided boundary pair against the all-condensing entry: C[Z_p] Ends
    rf = RelativeTensorProduct(entry("R"), entry("F0"))
    for obj in rf.env.objects:
        alg = end_algebra(rf.lad, obj)
        assert alg.dimension == p and alg.is_commutative()
        idems = primitive_idempotents(rf.lad, obj)
        for j, ej in enumerate(idems):
            for k, ek in enumerate(idems):
                expected = ek if j == k else zero(rf.lad, obj, obj)
                assert rf.lad.compose(ej, ek) == expected
        total = idems[0]
        for e in idems[1:]:
            total = total + e
        assert total == rf.lad.identity(obj)
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
        report_p = check_axioms(engine_tables[p], check_associativity=True)
        assert report_p.unit_ok, f"p={p}"
        assert report_p.associativity_ok, f"p={p}"
    for p in (5, 7):
        assert cli_main(["verify", "--p", str(p), "--triples"]) == 0
    report(4, f"unit and exhaustive associativity for p in {PRIMES}, and via verify --triples at p in (5, 7)")


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
    # cyclotomic field axioms and zeta relations
    rng = random.Random(99)
    for p in (2, 3, 5, 7):
        total = CyclotomicScalar.zero(p)
        for k in range(p):
            total = total + root_of_unity(p, k)
        assert total.is_zero()
        assert (root_of_unity(p, 1) ** p).is_one()
        for _ in range(10):
            vals = [
                CyclotomicScalar(p, [Rational(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(p)])
                for _ in range(3)
            ]
            x, y, z = vals
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert (x * x.inv()).is_one()
        for k in range(2 * p):
            assert phase_exponent(root_of_unity(p, k)) == k % p

    # 2-cocycle identity for every representative at p in (2, 3)
    for p in (2, 3):
        for q in range(p):
            c = CocycleClass(p, q)
            pts = [PairElt(p, a, b) for a in range(p) for b in range(p)]
            for x, y, z in itertools.product(pts, repeat=3):
                assert cocycle_phase(c, x, y) * cocycle_phase(c, x + y, z) == cocycle_phase(
                    c, y, z
                ) * cocycle_phase(c, x, y + z)

    # ladder composition associativity, exhaustive at p = 2
    p = 2
    for M, N in itertools.product(catalogue(p), repeat=2):
        lad = LadderCategory(M, N)
        for obj in lad.objects():
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
            for orbit in product.orbits():
                stabs = {product.orbit_stabilizer(i) for i in orbit}
                assert len(stabs) == 1
    report(7, "field axioms, cocycle identities, composition associativity, and orbit invariants hold")


def test_criterion_8_braiding_pairing():
    for p in (2, 3, 5):
        for k in range(1, p):
            assert preserves_braiding(wall_of(p, BimoduleLabel("X", k)))
            assert preserves_braiding(wall_of(p, BimoduleLabel("F", k)))
    report(8, "every invertible wall map preserves the mutual-braiding pairing for p in (2, 3, 5)")
