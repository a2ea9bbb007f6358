import dataclasses
import gc
import itertools
import weakref
from fractions import Fraction

import pytest

from bpring.bimodules import label_parse, catalogue_entry, validate
from bpring.cyclotomic import CyclotomicScalar, root_of_unity
from bpring.karoubi import KarEnvelope, KarObject, UnsupportedEndAlgebra, proportionality
from bpring.ladders import LadderCategory, LadderMorphism, LadderObject
from kar_oracle import (
    basic,
    hom_rungs,
    is_isomorphic,
    kar_hom_basis,
    primitive_idempotents,
    reduce_to_basis,
    simples,
    zero,
)


def make_lad(p, left, right):
    return LadderCategory(catalogue_entry(p, label_parse(left)), catalogue_entry(p, label_parse(right)))


def test_rf0_character_idempotents():
    p = 5
    lad = make_lad(p, "R", "F0")
    obj = LadderObject(1, "*")
    idems = primitive_idempotents(lad, obj)
    assert len(idems) == p
    inv_p = Fraction(1, p)
    for k, e in enumerate(idems):
        expected = {g: root_of_unity(p, k * g).scale(inv_p) for g in range(p)}
        assert e.coeffs == expected


def test_idempotents_orthogonal_complete():
    for p, left, right in [(3, "R", "F0"), (3, "F1", "F2"), (5, "F2", "F3"), (2, "L", "F1")]:
        lad = make_lad(p, left, right)
        for obj in lad.objects():
            idems = primitive_idempotents(lad, obj)
            total = None
            for j, ej in enumerate(idems):
                for k, ek in enumerate(idems):
                    prod = lad.compose(ej, ek)
                    assert prod == (ek if j == k else zero(lad, obj, obj))
                total = ej if total is None else total + ej
            assert total == lad.identity(obj)


def test_tt_already_idempotent_complete():
    lad = make_lad(3, "T", "T")
    for obj in lad.objects():
        assert primitive_idempotents(lad, obj) == [lad.identity(obj)]


def test_ff_idempotent_products_p3():
    lad = make_lad(3, "F1", "F2")
    obj = LadderObject("*", "*")
    i0, i1, i2 = primitive_idempotents(lad, obj)
    assert lad.compose(i0, i1).is_zero()
    assert i0 + i1 + i2 == lad.identity(obj)


def test_idempotent_solver_oracle_p2():
    # End(obj) in Lad(R,F0) at p=2 is the group algebra C[Z_2].  Solving
    # e = a + b s, e^2 = e by hand: b(2a - 1) = 0, a^2 + b^2 = a, so either
    # b = 0 and a in {0, 1}, or a = 1/2 and b = +-1/2.  The primitive ones are
    # the two characters.
    p = 2
    lad = make_lad(p, "R", "F0")
    obj = LadderObject(0, "*")

    def element(a, b):
        return LadderMorphism(
            obj, obj, {0: CyclotomicScalar.from_rational(p, a), 1: CyclotomicScalar.from_rational(p, b)}
        )

    half = Fraction(1, 2)
    solutions = [element(0, 0), element(1, 0), element(half, half), element(half, -half)]
    for e in solutions:
        assert lad.compose(e, e) == e
    # any idempotent must be one of these four
    grid = [Fraction(n, 2) for n in range(-4, 5)]
    found = [element(a, b) for a in grid for b in grid if lad.compose(element(a, b), element(a, b)) == element(a, b)]
    assert {tuple(sorted(f.coeffs.items())) for f in found} == {
        tuple(sorted(s.coeffs.items())) for s in solutions
    }
    engine = primitive_idempotents(lad, obj)
    assert {tuple(sorted(e.coeffs.items())) for e in engine} == {
        tuple(sorted(s.coeffs.items())) for s in solutions[2:]
    }


def test_simple_counts():
    assert len(simples(catalogue_entry(3, label_parse("T")), catalogue_entry(3, label_parse("T")))) == 27
    assert len(simples(catalogue_entry(3, label_parse("R")), catalogue_entry(3, label_parse("F0")))) == 9
    assert len(simples(catalogue_entry(3, label_parse("F1")), catalogue_entry(3, label_parse("X2")))) == 1
    assert len(simples(catalogue_entry(5, label_parse("T")), catalogue_entry(5, label_parse("T")))) == 125


def test_tt_representatives_normalise_right_leg():
    env = KarEnvelope(make_lad(3, "T", "T"))
    for s in env.simples:
        assert s.representative.obj.n[0] == 0


def test_xx_representatives_normalise_right_leg():
    env = KarEnvelope(make_lad(3, "X1", "X2"))
    assert [s.representative.obj for s in env.simples] == [LadderObject(a, 0) for a in range(3)]


def test_kar_hom_basis_simple_self():
    env = KarEnvelope(make_lad(3, "R", "F0"))
    for s in env.simples:
        basis = kar_hom_basis(env.lad, s.representative, s.representative)
        assert len(basis) == 1
        lam = proportionality(basis[0], s.representative.idem)
        assert lam is not None and not lam.is_zero()


def test_every_simple_has_one_dimensional_end():
    import itertools as it

    from bpring.bimodules import catalogue

    for p in (2, 3):
        for M, N in it.product(catalogue(p), repeat=2):
            env = KarEnvelope(LadderCategory(M, N))
            for s in env.simples:
                assert len(kar_hom_basis(env.lad, s.representative, s.representative)) == 1


def test_kar_hom_vanishes_between_characters():
    env = KarEnvelope(make_lad(3, "R", "F0"))
    lad = env.lad
    obj = LadderObject(1, "*")
    idems = env.prims[obj]
    for j in range(3):
        for k in range(3):
            basis = kar_hom_basis(env.lad, KarObject(obj, idems[j]), KarObject(obj, idems[k]))
            assert len(basis) == (1 if j == k else 0)


def test_tt_one_dimensional_kar_hom_along_rung():
    p = 3
    env = KarEnvelope(make_lad(p, "T", "T"))
    lad = env.lad
    src = LadderObject((1, 2), (0, 1))
    g = 1
    tgt = LadderObject((1, (2 - g) % p), ((0 + g) % p, 1))
    basis = kar_hom_basis(lad, KarObject(src, lad.identity(src)), KarObject(tgt, lad.identity(tgt)))
    assert len(basis) == 1


def test_isomorphism_is_equivalence_relation_p2():
    for left, right in [("T", "T"), ("R", "F0"), ("F1", "F1"), ("X1", "L")]:
        env = KarEnvelope(make_lad(2, left, right))
        kobjs = [KarObject(obj, e) for obj in env.objects for e in env.prims[obj]]
        iso = {
            (i, j): is_isomorphic(env.lad, a, b)
            for (i, a), (j, b) in itertools.product(enumerate(kobjs), repeat=2)
        }
        n = len(kobjs)
        for i in range(n):
            assert iso[(i, i)]
            for j in range(n):
                assert iso[(i, j)] == iso[(j, i)]
                for k in range(n):
                    if iso[(i, j)] and iso[(j, k)]:
                        assert iso[(i, k)]


def test_classes_partition_all_primitives():
    for p, left, right in [(2, "T", "T"), (3, "R", "L"), (3, "F1", "X2"), (5, "R", "F0")]:
        env = KarEnvelope(make_lad(p, left, right))
        total_prims = sum(len(env.prims[obj]) for obj in env.objects)
        assigned = 0
        for obj in env.objects:
            for k in range(len(env.prims[obj])):
                cls = env.class_of(obj, k)
                assert 0 <= cls < len(env.simples)
                assigned += 1
        assert assigned == total_prims


def test_connectors_invert_exactly():
    for p, left, right in [(3, "T", "T"), (3, "R", "F0"), (3, "F1", "X2"), (2, "R", "L")]:
        env = KarEnvelope(make_lad(p, left, right))
        lad = env.lad
        for obj in env.objects:
            for k, e in enumerate(env.prims[obj]):
                u, v = env.connectors(obj, k)
                rep = env.simples[env.class_of(obj, k)].representative
                assert lad.compose(u, v) == e
                assert lad.compose(v, u) == rep.idem


def test_orbit_classes_match_isomorphism_search():
    # The orbit construction must give the classes the isomorphism search
    # finds, and connectors that invert exactly, for every ordered pair.
    from bpring.bimodules import catalogue

    for p in (2, 3):
        for M, N in itertools.product(catalogue(p), repeat=2):
            env = KarEnvelope(LadderCategory(M, N))
            lad = env.lad
            blocks: list[list[KarObject]] = []  # isomorphism classes, by search
            by_class: dict[int, list[KarObject]] = {}  # classes, by class_of
            for obj in env.objects:
                for k, e in enumerate(env.prims[obj]):
                    kobj = KarObject(obj, e)
                    hits = [block for block in blocks if is_isomorphic(lad, block[0], kobj)]
                    assert len(hits) <= 1, (M.label, N.label, obj, k)
                    if hits:
                        hits[0].append(kobj)
                    else:
                        blocks.append([kobj])
                    cls = env.class_of(obj, k)
                    by_class.setdefault(cls, []).append(kobj)
                    u, v = env.connectors(obj, k)
                    assert lad.compose(u, v) == e
                    assert lad.compose(v, u) == env.simples[cls].representative.idem
            partition = {frozenset(block) for block in blocks}
            assert partition == {frozenset(c) for c in by_class.values()}, (M.label, N.label)
            assert len(blocks) == len(env.simples)


def test_reduce_to_basis_drops_dependent_vectors():
    lad = make_lad(3, "R", "F0")
    obj = LadderObject(0, "*")
    f = basic(lad, obj, 0)
    g = basic(lad, obj, 1)
    basis = reduce_to_basis([f, g, f + g, f.scale(2)])
    assert len(basis) == 2


def test_rung_action_not_a_zp_action_is_unsupported():
    # Hand-built data that fails validate: at p=5 the left action of N fixes
    # its simple 0 for g in {0, s} only, so the object (*, 0) of Lad(F0, N)
    # has a rung stabilizer of size 2.  With s=1 rung 1 fixes the object,
    # with s=2 it moves it.
    p = 5
    F0 = catalogue_entry(p, label_parse("F0"))
    for s in (1, 2):
        N = dataclasses.replace(
            F0,
            simples=(0, 1),
            left_act={(g, n): n if g in (0, s) else 1 - n for g in range(p) for n in (0, 1)},
            right_act={(n, h): n for n in (0, 1) for h in range(p)},
            label=None,
        )
        assert validate(N) != []
        lad = LadderCategory(F0, N)
        assert hom_rungs(lad, LadderObject("*", 0), LadderObject("*", 0)) == [0, s]
        with pytest.raises(UnsupportedEndAlgebra):
            KarEnvelope(lad)


def test_anchor_rejects_an_idempotent_that_is_not_a_stored_primitive():
    env = KarEnvelope(make_lad(5, "R", "F0"))
    obj = LadderObject(1, "*")
    i0, i1 = env.prims[obj][:2]
    both = i0 + i1
    assert env.lad.compose(both, both) == both  # an idempotent, but not primitive
    with pytest.raises(UnsupportedEndAlgebra):
        env.anchor(KarObject(obj, both))
    # on a free object the only primitive is the identity
    env = KarEnvelope(make_lad(3, "T", "T"))
    obj = env.objects[0]
    with pytest.raises(UnsupportedEndAlgebra):
        env.anchor(KarObject(obj, env.lad.identity(obj).scale(2)))


def test_envelope_is_freed_without_the_cycle_collector():
    """An envelope holds no reference cycle, so dropping it frees it at once."""
    for left, right in [("R", "L"), ("T", "T")]:
        env = KarEnvelope(make_lad(5, left, right))
        assert len(env.prims[env.objects[0]]) in (1, 5)
        assert dict(env.prims).keys() == set(env.objects)
        ref = weakref.ref(env)
        gc.disable()
        try:
            del env
            assert ref() is None, (left, right)
        finally:
            gc.enable()
