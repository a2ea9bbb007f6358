import gc
import itertools
import random
import re
import weakref
from fractions import Fraction

import pytest

from bpring.bimodules import catalogue, catalogue_entry, format_simple, label_parse, validate
from bpring.cyclotomic import CyclotomicScalar
from bpring.karoubi import KarEnvelope, UnsupportedEndAlgebra, proportionality
from bpring.ladders import LadderCategory, LadderMorphism, LadderObject
from scalar_oracle import from_rational, root_of_unity
from kar_oracle import (
    as_oracle,
    basic,
    connectors,
    hom_rungs,
    identity,
    is_isomorphic,
    isomorphism_classes,
    kar_hom_basis,
    kar_key,
    ladder_sum,
    objects,
    primitive_idempotents,
    proportional,
    reduce_to_basis,
    simples,
    walk_objects,
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
        for obj in objects(lad):
            idems = primitive_idempotents(lad, obj)
            total = None
            for j, ej in enumerate(idems):
                for k, ek in enumerate(idems):
                    prod = lad.compose(ej, ek)
                    assert prod == (ek if j == k else zero(lad, obj, obj))
                total = ej if total is None else ladder_sum(total, ej)
            assert as_oracle(total) == as_oracle(identity(lad, obj))


def test_tt_already_idempotent_complete():
    lad = make_lad(3, "T", "T")
    for obj in objects(lad):
        assert primitive_idempotents(lad, obj) == [identity(lad, obj)]


def test_ff_idempotent_products_p3():
    lad = make_lad(3, "F1", "F2")
    obj = LadderObject("*", "*")
    i0, i1, i2 = primitive_idempotents(lad, obj)
    assert lad.compose(i0, i1).is_zero()
    assert ladder_sum(i0, i1, i2) == as_oracle(identity(lad, obj))


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
            obj, obj, {0: from_rational(p, a), 1: from_rational(p, b)}
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
        assert s.representative.source.n[0] == 0


def test_xx_representatives_normalise_right_leg():
    env = KarEnvelope(make_lad(3, "X1", "X2"))
    assert [s.representative.source for s in env.simples] == [LadderObject(a, 0) for a in range(3)]


def test_kar_hom_basis_simple_self():
    env = KarEnvelope(make_lad(3, "R", "F0"))
    for s in env.simples:
        basis = kar_hom_basis(env.lad, s.representative, s.representative)
        assert len(basis) == 1
        lam = proportional(basis[0], s.representative)
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
    c = env.class_at(lad.object_index(obj))
    idems = [env.representative(c + k) for k in range(3)]
    for j in range(3):
        for k in range(3):
            basis = kar_hom_basis(env.lad, idems[j], idems[k])
            assert len(basis) == (1 if j == k else 0)


def test_tt_one_dimensional_kar_hom_along_rung():
    p = 3
    env = KarEnvelope(make_lad(p, "T", "T"))
    lad = env.lad
    src = LadderObject((1, 2), (0, 1))
    g = 1
    tgt = LadderObject((1, (2 - g) % p), ((0 + g) % p, 1))
    basis = kar_hom_basis(lad, identity(lad, src), identity(lad, tgt))
    assert len(basis) == 1


def test_isomorphism_is_equivalence_relation_p2():
    for left, right in [("T", "T"), ("R", "F0"), ("F1", "F1"), ("X1", "L")]:
        env = KarEnvelope(make_lad(2, left, right))
        prims = [e for obj in objects(env.lad) for e in primitive_idempotents(env.lad, obj)]
        iso = {
            (i, j): is_isomorphic(env.lad, a, b)
            for (i, a), (j, b) in itertools.product(enumerate(prims), repeat=2)
        }
        n = len(prims)
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
        objs = objects(env.lad)
        total_prims = sum(len(primitive_idempotents(env.lad, obj)) for obj in objs)
        assigned = 0
        for obj in objs:
            for e in primitive_idempotents(env.lad, obj):
                cls = env.locate(e)[0]
                assert 0 <= cls < len(env.simples)
                assigned += 1
        assert assigned == total_prims


def test_connectors_invert_exactly():
    for p, left, right in [(3, "T", "T"), (3, "R", "F0"), (3, "F1", "X2"), (2, "R", "L")]:
        env = KarEnvelope(make_lad(p, left, right))
        lad = env.lad
        for obj in objects(lad):
            for k, e in enumerate(primitive_idempotents(lad, obj)):
                u, v = connectors(env, obj, k)
                c = env.class_at(lad.object_index(obj)) + k
                rep = env.simples[c].representative
                assert lad.compose(u, v) == e
                assert lad.compose(v, u) == rep
                assert env.locate(e) == (c, u)
                assert env.representative(c) == rep


def test_orbit_classes_match_isomorphism_search():
    # The orbit construction must give the classes the isomorphism search
    # finds, and connectors that invert exactly, for every ordered pair.
    from bpring.bimodules import catalogue

    for p in (2, 3):
        for M, N in itertools.product(catalogue(p), repeat=2):
            env = KarEnvelope(LadderCategory(M, N))
            lad = env.lad
            blocks: list[list[LadderMorphism]] = []  # isomorphism classes, by search
            by_class: dict[int, list[LadderMorphism]] = {}  # classes, by locate
            for obj in objects(lad):
                for k, e in enumerate(primitive_idempotents(lad, obj)):
                    hits = [block for block in blocks if is_isomorphic(lad, block[0], e)]
                    assert len(hits) <= 1, (M.label, N.label, obj, k)
                    if hits:
                        hits[0].append(e)
                    else:
                        blocks.append([e])
                    cls = env.locate(e)[0]
                    by_class.setdefault(cls, []).append(e)
                    u, v = connectors(env, obj, k)
                    assert lad.compose(u, v) == e
                    assert lad.compose(v, u) == env.simples[cls].representative
            partition = {frozenset(map(kar_key, block)) for block in blocks}
            assert partition == {frozenset(map(kar_key, c)) for c in by_class.values()}, (M.label, N.label)
            assert len(blocks) == len(env.simples)


def test_proportionality_checks_every_rung():
    # the ratio of two coefficient dicts is read off one rung; a rung off
    # that ratio, with the same support, means they are not proportional
    p = 5
    one = CyclotomicScalar.one(p)
    z = [root_of_unity(p, k) for k in range(p)]
    g = {0: z[0], 1: z[1], 2: z[3]}
    assert proportionality({b: c * z[2] for b, c in g.items()}, g, one) == z[2]
    assert proportionality({b: c.scale(Fraction(-3, 2)) for b, c in g.items()}, g, one) == from_rational(
        p, Fraction(-3, 2))
    for off in ({0: z[2], 1: z[3], 2: z[1]}, {0: z[2], 1: z[4], 2: z[0]}):
        assert proportionality(off, g, one) is None
    assert proportionality({0: z[2], 1: z[3]}, g, one) is None
    assert proportionality({}, g, one).is_zero()
    assert proportionality(g, {}, one) is None


def test_proportionality_of_one_coefficient_dict_is_one_without_an_inverse(monkeypatch):
    # f and g sharing one dict are one morphism, so the ratio is the one it
    # is handed, with no inversion; equal but distinct dicts still read the
    # ratio off a rung
    p = 5
    one = CyclotomicScalar.one(p)
    z = [root_of_unity(p, k) for k in range(p)]
    g = {0: z[0], 1: z[1], 2: z[3]}
    inverses, inv = [], CyclotomicScalar.inv

    def counting(self):
        inverses.append(self)
        return inv(self)

    monkeypatch.setattr(CyclotomicScalar, "inv", counting)
    assert proportionality(g, g, one) is one
    empty = {}
    assert proportionality(empty, empty, one) is None
    assert inverses == []
    copy = dict(g)
    assert proportionality(copy, g, one) == one
    assert len(inverses) == 1


def test_proportionality_under_a_root_of_unity_checks_every_rung():
    # a root-of-unity ratio zeta^k is checked on each rung; one later rung
    # off that ratio, by another root of unity, by a rational factor or by a
    # sign (-1 is no power of zeta at odd p), means the dicts are not
    # proportional
    rng = random.Random(1123)
    for p in (3, 5, 7, 11):
        one = CyclotomicScalar.one(p)
        for _ in range(6):
            coeffs = {}
            for b in rng.sample(range(p), rng.randint(2, p)):
                while b not in coeffs or coeffs[b].is_zero():
                    c = Fraction(rng.randint(-5, 5), rng.choice((1, 2, p)))
                    coeffs[b] = CyclotomicScalar(p, c, rng.randrange(p))
            for k in range(p):
                z = root_of_unity(p, k)
                f = {b: c * z for b, c in coeffs.items()}
                assert proportionality(f, coeffs, one) == z, (p, k)
                later = rng.choice(list(coeffs)[1:])
                for off in (f[later].rotate(rng.randrange(1, p)), f[later].scale(2), f[later].scale(-1)):
                    assert proportionality(f | {later: off}, coeffs, one) is None, (p, k, later)


def test_reduce_to_basis_drops_dependent_vectors():
    lad = make_lad(3, "R", "F0")
    obj = LadderObject(0, "*")
    f = basic(lad, obj, 0)
    g = basic(lad, obj, 1)
    basis = reduce_to_basis([f, g, ladder_sum(f, g), f.scale(2)])
    assert len(basis) == 2


def test_simples_built_on_demand_match_isomorphism_search():
    # simple(c) builds class c from the walk's integer lists; its class, its
    # character index and its representative must be those of the c-th class
    # that the isomorphism search finds, and simples must list the same.
    cases = [pair for p in (2, 3) for pair in itertools.product(catalogue(p), repeat=2)]
    cases += [(catalogue_entry(5, label_parse(a)), catalogue_entry(5, label_parse(b)))
              for a, b in [("R", "L"), ("T", "T"), ("F2", "F3")]]
    for M, N in cases:
        env = KarEnvelope(LadderCategory(M, N))
        built = [env.simple(c) for c in range(env.simple_count)]
        assert built == env.simples
        classes = isomorphism_classes(env.lad)
        assert len(classes) == env.simple_count, (M.label, N.label)
        for c, (s, members) in enumerate(zip(built, classes)):
            k, rep = members[0]
            assert (s.class_index, s.char_index, s.representative) == (c, k, rep), (M.label, N.label, c)
        with pytest.raises(IndexError):
            env.simple(env.simple_count)
        with pytest.raises(IndexError):
            env.simple(-1)


def test_rung_action_not_a_zp_action_is_unsupported():
    # Hand-built data that fails validate: at p=5 the left action of N fixes
    # its simple 0 for g in {0, s} only, so the object (*, 0) of Lad(F0, N)
    # has a rung stabilizer of size 2.  With s=1 rung 1 fixes the object,
    # with s=2 it moves it.
    p = 5
    F0 = catalogue_entry(p, label_parse("F0"))
    messages = {
        1: "rung 1 fixes (*)(0) but not every rung does, at p=5",
        2: "the rung orbit of (*)(0) is not a Z_p orbit at p=5",
    }
    for s in (1, 2):
        N = F0._replace(
            simples=(0, 1),
            left=[[n if g in (0, s) else 1 - n for n in (0, 1)] for g in range(p)],
            right=[[0, 1]] * p,
            mixed=[[[0] * p] * 2] * p,
            label=None,
        )
        assert validate(N) != []
        lad = LadderCategory(F0, N)
        assert hom_rungs(lad, LadderObject("*", 0), LadderObject("*", 0)) == [0, s]
        with pytest.raises(UnsupportedEndAlgebra, match=f"^{re.escape(messages[s])}$"):
            KarEnvelope(lad)


def _two_simples(p, s):
    """Hand-built data that fails validate: simples 0 and 1, the right action fixing both for h in {0, s} only."""
    F0 = catalogue_entry(p, label_parse("F0"))
    return F0._replace(
        simples=(0, 1),
        left=[[0, 1]] * p,
        right=[[n if h in (0, s) else 1 - n for n in (0, 1)] for h in range(p)],
        mixed=[[[0] * p] * 2] * p,
        label=None,
    )


def test_rung_action_on_the_m_leg_not_a_zp_action_is_unsupported():
    # Rung b acts on the M leg by M.right[-b], so with s=p-1 rung 1 fixes
    # the simple 0 and rung 2 does not, and with s=1 rung 1 moves it.  The
    # message names (0) with the first simple of N.  Paired with X1, whose
    # left action is free, every object has a free orbit and the per-object
    # walk found 2 classes with no error; the leg walk raises all the same.
    p = 5
    for right in ("F0", "X1"):
        N = catalogue_entry(p, label_parse(right))
        n0 = format_simple(N.simples[0])
        messages = {
            p - 1: f"rung 1 fixes (0)({n0}) but not every rung does, at p=5",
            1: f"the rung orbit of (0)({n0}) is not a Z_p orbit at p=5",
        }
        for s, message in messages.items():
            M = _two_simples(p, s)
            assert validate(M) != []
            lad = LadderCategory(M, N)
            if right == "F0":
                assert hom_rungs(lad, LadderObject(0, "*"), LadderObject(0, "*")) == [0, p - s]
            else:
                assert len(walk_objects(lad)[2]) == 2
            with pytest.raises(UnsupportedEndAlgebra, match=f"^{re.escape(message)}$"):
                KarEnvelope(lad)


def test_m_rows_that_are_not_an_action_off_the_bases_are_unsupported():
    # At p=3 rung 1 permutes the M leg as (0 1 2)(3 4 5) at the bases 0 and
    # 3 but sends 1 to 5 and 4 to 2, so rung 1 twice is not rung 2.  The leg
    # walk reads the bases only and passes, and so did the per-object walk;
    # the row rule reads all of M's rows, which are checked first.
    p = 3
    X1 = catalogue_entry(p, label_parse("X1"))
    one, two = [1, 5, 0, 4, 2, 3], [2, 0, 1, 5, 3, 4]
    M = catalogue_entry(p, label_parse("F0"))._replace(
        simples=tuple(range(6)),
        left=[list(range(6))] * p,
        right=[list(range(6)), two, one],  # rung b acts by M.right[-b]
        mixed=[[[0] * p] * 6] * p,
        label=None,
    )
    lad = LadderCategory(M, X1)
    assert len(walk_objects(lad)[2]) == 6
    message = "the rung orbit of (0)(0) is not a Z_p orbit at p=3"
    with pytest.raises(UnsupportedEndAlgebra, match=f"^{re.escape(message)}$"):
        KarEnvelope(lad)


def test_locate_rejects_a_morphism_that_is_not_an_endomorphism():
    # the coefficients of the stored primitive, but from the object to another
    env = KarEnvelope(make_lad(5, "R", "F0"))
    obj, other = LadderObject(1, "*"), LadderObject(2, "*")
    stored = env.representative(env.class_at(env.lad.object_index(obj)) + 1)
    assert env.locate(stored)[0] == env.class_at(env.lad.object_index(obj)) + 1
    free = KarEnvelope(make_lad(3, "T", "T"))
    cases = [(env, LadderMorphism(obj, other, stored.coeffs))]
    cases.append((free, LadderMorphism(free.lad.object_at(0), free.lad.object_at(1), {0: CyclotomicScalar.one(3)})))
    for e, f in cases:
        message = f"idempotent on {f.source} is not a stored primitive"
        with pytest.raises(UnsupportedEndAlgebra, match=f"^{re.escape(message)}$"):
            e.locate(f)


def test_locate_rejects_an_idempotent_that_is_not_a_stored_primitive():
    env = KarEnvelope(make_lad(5, "R", "F0"))
    obj = LadderObject(1, "*")
    idems = primitive_idempotents(env.lad, obj)
    i1 = idems[1]
    # the sum of the characters but I_0 has rational rungs 4/5, -1/5, ..., so
    # the engine's scalars hold it; the identity is the sum of all of them
    rest = LadderMorphism(obj, obj, {b: from_rational(5, Fraction(4 if b == 0 else -1, 5)) for b in range(5)})
    assert as_oracle(rest) == ladder_sum(*idems[1:])
    assert ladder_sum(*idems) == as_oracle(identity(env.lad, obj))
    for both in (rest, identity(env.lad, obj)):
        assert env.lad.compose(both, both) == both  # an idempotent, but not primitive
        with pytest.raises(UnsupportedEndAlgebra):
            env.locate(both)
    # rung 1 over rung 0 reads zeta, yet this is not the stored I_1
    with pytest.raises(UnsupportedEndAlgebra):
        env.locate(i1.scale(2))
    # rungs 0 and 1 are those of a stored I_k, which names k, but a later rung
    # is not: every rung is still compared
    first = env.class_at(env.lad.object_index(obj))
    stored = [env.representative(first + k).coeffs for k in range(5)]
    for k, b in itertools.product(range(5), range(2, 5)):
        for other in (stored[(k + 1) % 5][b], stored[k][b].scale(2)):
            idem = LadderMorphism(obj, obj, stored[k] | {b: other})
            message = f"idempotent on {obj} is not a stored primitive"
            with pytest.raises(UnsupportedEndAlgebra, match=f"^{re.escape(message)}$"):
                env.locate(idem)
        assert env.locate(LadderMorphism(obj, obj, stored[k]))[0] == first + k
    # on a free object the only primitive is the identity
    env = KarEnvelope(make_lad(3, "T", "T"))
    obj = env.lad.object_at(0)
    with pytest.raises(UnsupportedEndAlgebra):
        env.locate(identity(env.lad, obj).scale(2))
    with pytest.raises(IndexError):
        env.representative(env.simple_count)


def test_connectors_reject_a_character_index_outside_the_end_algebra():
    # End(obj) has dimension p on a fixed object and 1 on a free one
    p = 5
    env = KarEnvelope(make_lad(p, "R", "F0"))
    obj = LadderObject(1, "*")
    assert env.dimension_at(env.lad.object_index(obj)) == p
    connectors(env, obj, p - 1)
    for k in (p, -1):
        with pytest.raises(KeyError) as err:
            connectors(env, obj, k)
        assert err.value.args == ((obj, k),)
    env = KarEnvelope(make_lad(p, "T", "T"))
    obj = env.lad.object_at(1)
    assert env.dimension_at(1) == 1
    connectors(env, obj, 0)
    with pytest.raises(KeyError) as err:
        connectors(env, obj, 1)
    assert err.value.args == ((obj, 1),)


def test_envelope_is_freed_without_the_cycle_collector():
    """An envelope holds no reference cycle, so dropping it frees it at once."""
    for left, right in [("R", "L"), ("T", "T")]:
        env = KarEnvelope(make_lad(5, left, right))
        assert env.dimension_at(0) in (1, 5) and len(env.simples) == env.simple_count
        ref = weakref.ref(env)
        gc.disable()
        try:
            del env
            assert ref() is None, (left, right)
        finally:
            gc.enable()
