import itertools
import random
import re
from collections import Counter

import pytest

from bpring.bimodules import (
    BimoduleLabel,
    Decomposition,
    all_labels,
    catalogue,
    catalogue_entry,
    format_simple,
    label_parse,
    validate,
)
from bpring import fusion
from bpring.fusion import ClassificationError, RelativeTensorProduct, build_table
from bpring.cyclotomic import CyclotomicScalar
from bpring.karoubi import KarEnvelope, _checked_idempotent, _projector_coeffs
from bpring.ladders import EngineError, LadderCategory, LadderMorphism, LadderObject
from action_oracle import (
    act_on,
    acted_witness_exponent,
    action_tables,
    object_witness_path,
    orbit_stabilizer,
    rotated_action,
    search_orbits,
)
from bimodule_transforms import character_twist, exponent_table, gauge_twist, random_twist, relabel
from kar_oracle import FIXED, base_at, connectors, kar_key, step_tables, walk_objects
from scalar_oracle import is_one


def rtp(p, left, right):
    return RelativeTensorProduct(
        catalogue_entry(p, label_parse(left)), catalogue_entry(p, label_parse(right))
    )


def dec(text, *pairs):
    return Decomposition.from_pairs([(label_parse(l), m) for l, m in pairs])


def test_tt_left_action_shifts_first_leg():
    p = 3
    product = rtp(p, "T", "T")
    for s in product.simples:
        (a, b), (zero, c) = s.representative.source.m, s.representative.source.n
        assert zero == 0
        for g in range(p):
            act = product.outer_action(g, "left", s)
            assert act.target.representative.source == LadderObject(((a + g) % p, b), (0, c))
    for s in product.simples:
        (a, b), (_, c) = s.representative.source.m, s.representative.source.n
        for h in range(p):
            act = product.outer_action(h, "right", s)
            assert act.target.representative.source == LadderObject((a, b), (0, (c + h) % p))


def test_xx_right_action_uses_correction_ladder():
    p = 5
    k, l = 2, 3
    product = rtp(p, f"X{k}", f"X{l}")
    for s in product.simples:
        a = s.representative.source.m
        for g in range(p):
            act = product.outer_action(g, "right", s)
            assert act.target.representative.source == LadderObject((a + k * l * g) % p, 0)
        for g in range(p):
            act = product.outer_action(g, "left", s)
            assert act.target.representative.source == LadderObject((a + g) % p, 0)


def test_rf0_actions():
    p = 3
    product = rtp(p, "R", "F0")
    for s in product.simples:
        for h in range(p):
            assert product.outer_action(h, "right", s).target == s
        moved = product.outer_action(1, "left", s).target
        assert moved.representative.source.m == (s.representative.source.m + 1) % p
        assert moved.char_index == s.char_index


def test_witnesses_absorb_idempotents():
    for p, left, right in [(3, "T", "T"), (3, "R", "F0"), (3, "F1", "X2"), (2, "F1", "F1")]:
        product = rtp(p, left, right)
        lad = product.lad
        for s in product.simples:
            for side in ("left", "right"):
                for g in range(p):
                    act = product.outer_action(g, side, s)
                    w = act.witness
                    shifted_idem = act_on(product, side, g, s.representative)
                    assert lad.compose(shifted_idem, w) == w
                    assert lad.compose(w, act.target.representative) == w
                    lead = min(w.coeffs)
                    assert is_one(w.coeffs[lead])


def test_action_is_power_of_generator():
    # Acting by g through the witness route agrees with acting g times by 1
    # through the step tables: every ordered pair at p in {2, 3}, a seeded
    # sample at p=5 that includes the all-fixed R x L, the all-free T x T and
    # an F_q x F_r, and products of R and L with leg-dependent associators.
    rng = random.Random(7)
    cases = [(3, "T", "X2"), (3, "F2", "F1"), (5, "X2", "X3")]
    for p in (2, 3):
        labels = [str(label) for label in all_labels(p)]
        cases += [(p, a, b) for a in labels for b in labels]
    labels = [str(label) for label in all_labels(5)]
    q, r = rng.randrange(1, 5), rng.randrange(5)
    cases += [(5, "R", "L"), (5, "T", "T"), (5, f"F{q}", f"F{r}")]
    cases += [(5, rng.choice(labels), rng.choice(labels)) for _ in range(6)]
    products = [rtp(p, left, right) for p, left, right in cases]
    # R and L with their module structure changed by a character: the mixed
    # associator exponents (c[g+m] - c[m]) h and g (c[m+h] - c[m]) keep the
    # pure associators trivial, and e(1) depends on the leg simple
    for p in (3, 5):
        R, L = catalogue_entry(p, label_parse("R")), catalogue_entry(p, label_parse("L"))
        c = [rng.randrange(p) for _ in range(p)]
        R2 = R._replace(mixed=exponent_table(p, p, lambda g, m, h: (c[(g + m) % p] - c[m]) * h), label=None)
        L2 = L._replace(mixed=exponent_table(p, p, lambda g, m, h: g * (c[(m + h) % p] - c[m])), label=None)
        assert validate(R2) == [] and validate(L2) == []
        products += [RelativeTensorProduct(R2, L), RelativeTensorProduct(R, L2), RelativeTensorProduct(R2, L2)]
    for product in products:
        p = product.p
        lefts, rights = action_tables(product)
        index = {kar_key(s.representative): i for i, s in enumerate(product.simples)}
        for i, s in enumerate(product.simples):
            for g in range(p):
                direct = index[kar_key(product.outer_action(g, "left", s).target.representative)]
                assert direct == lefts[g][i]
                direct = index[kar_key(product.outer_action(g, "right", s).target.representative)]
                assert direct == rights[g][i]


def test_left_and_right_actions_commute():
    for p, left, right in [(2, "T", "T"), (3, "R", "L"), (3, "F1", "X2")]:
        product = rtp(p, left, right)
        lefts, rights = action_tables(product)
        n = len(product.simples)
        for g in range(p):
            for h in range(p):
                for i in range(n):
                    assert lefts[g][rights[h][i]] == rights[h][lefts[g][i]]


def test_tt_associator_trivial():
    product = rtp(3, "T", "T")
    for s in product.simples[:6]:
        for g in range(3):
            for h in range(3):
                assert product.mixed_associator(g, h, s) == 0


def test_xx_associator_trivial():
    product = rtp(3, "X1", "X2")
    s = product.simples[0]
    for g in range(3):
        for h in range(3):
            assert product.mixed_associator(g, h, s) == 0


def test_fx_associator_exponent():
    p = 5
    for q in (1, 2, 3):
        for l in (1, 4):
            product = rtp(p, f"F{q}", f"X{l}")
            assert len(product.simples) == 1
            s = product.simples[0]
            for g in range(p):
                for h in range(p):
                    assert product.mixed_associator(g, h, s) == (q * l * g * h) % p


def test_associator_bilinear_all_products_small():
    for p in (2, 3):
        cat = catalogue(p)
        for M, N in itertools.product(cat, repeat=2):
            product = RelativeTensorProduct(M, N)
            for first, _ in product.orbits():
                s = product.simples[first]
                base = product.mixed_associator(1, 1, s)
                for g in range(p):
                    for h in range(p):
                        assert product.mixed_associator(g, h, s) == (base * g * h) % p
    # a seeded sample at p in {5, 7}: a few (g, h) on every orbit
    rng = random.Random(6)
    for p in (5, 7):
        q, r = rng.randrange(p), rng.randrange(p)
        labels = all_labels(p)
        pairs = [("R", "L"), ("R", "F0"), ("T", "T"), (f"F{q}", f"F{r}")]
        pairs += [(str(rng.choice(labels)), str(rng.choice(labels))) for _ in range(2)]
        for left, right in pairs:
            product = rtp(p, left, right)
            for first, _ in product.orbits():
                s = product.simples[first]
                base = product.mixed_associator(1, 1, s)
                for _ in range(3):
                    g, h = rng.randrange(p), rng.randrange(p)
                    assert product.mixed_associator(g, h, s) == (base * g * h) % p, (left, right, g, h)
    # every (g, h) on one F orbit of every ordered product at p=5 that has one
    p, with_f = 5, 0
    for M, N in itertools.product(catalogue(p), repeat=2):
        product = RelativeTensorProduct(M, N)
        full = [o for o in product.analyze().orbits if o.stabilizer.kind == "full"]
        if not full:
            continue
        with_f += 1
        s, base = full[0].representative, full[0].assoc_exponent
        for g in range(p):
            for h in range(p):
                assert product.mixed_associator(g, h, s) == (base * g * h) % p, (str(M.label), str(N.label), g, h)
    assert with_f == 52  # the ordered pairs whose closed-form product has an F summand


def test_orbits_match_the_set_search():
    # the counting walk against the search over a set: each orbit's least
    # member and size, in the same order
    cases = [pair for p in (3, 5) for pair in itertools.product(catalogue(p), repeat=2)]
    cases.append((catalogue_entry(7, label_parse("T")), catalogue_entry(7, label_parse("T"))))
    for M, N in cases:
        product = RelativeTensorProduct(M, N)
        want = [(min(o), len(o)) for o in search_orbits(product)]
        assert product.orbits() == want, (M.p, str(M.label), str(N.label))


def test_stabilizer_independent_of_orbit_member():
    for p in (2, 3):
        for left, right in [("T", "T"), ("R", "F0"), ("F1", "F2" if p == 3 else "F1"), ("L", "T")]:
            product = rtp(p, left, right)
            for orbit in search_orbits(product):
                stabs = {orbit_stabilizer(product, i) for i in orbit}
                assert len(stabs) == 1


def test_decompose_matches_analyze_and_the_stabilizer_scan():
    # every ordered pair at p in {2, 3, 5}; the stabilizer of every simple,
    # read from its orbit's size, against the p^2 scan
    for p in (2, 3, 5):
        for M, N in itertools.product(catalogue(p), repeat=2):
            product = RelativeTensorProduct(M, N)
            analysis = product.analyze()
            assert product.decompose() == analysis.decomposition
            firsts = [first for first, _ in product.orbits()]
            assert [o.stabilizer for o in analysis.orbits] == [orbit_stabilizer(product, i) for i in firsts]
            for orbit in search_orbits(product):
                for i in orbit:
                    assert product._stabilizer(i, len(orbit)) == orbit_stabilizer(product, i)
    # every ordered pair at p=7: analyze and decompose agree
    for M, N in itertools.product(catalogue(7), repeat=2):
        product = RelativeTensorProduct(M, N)
        assert product.decompose() == product.analyze().decomposition, (str(M.label), str(N.label))


def test_decompose_runs_the_witness_associator_once_per_full_orbit(monkeypatch):
    p, calls, total = 3, [], 0
    inner = RelativeTensorProduct.mixed_associator

    def counted(self, g, h, simple):
        calls.append((g, h, simple))
        return inner(self, g, h, simple)

    for M, N in itertools.product(catalogue(p), repeat=2):
        product = RelativeTensorProduct(M, N)
        full = [o.representative for o in product.analyze().orbits if o.stabilizer.kind == "full"]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(RelativeTensorProduct, "mixed_associator", counted)
            product.decompose()
        assert calls == [(1, 1, s) for s in full], (str(M.label), str(N.label))
        total += len(full)
    assert total > 0


def test_decompose_leaves_the_simples_unbuilt():
    for M, N in itertools.product(catalogue(3), repeat=2):
        product = RelativeTensorProduct(M, N)
        product.decompose()
        assert "simples" not in vars(product.env), (str(M.label), str(N.label))


def test_decompose_builds_simples_only_for_the_witness_associator(monkeypatch):
    # Each full-stabilizer orbit is one simple, fixed by both actions: decompose
    # builds it once to hand to mixed_associator, which locates the acted
    # idempotents by class index and builds no simple itself.  No other simple
    # is built.
    p, calls, depth, total = 3, [], [0], 0
    simple, mixed = KarEnvelope.simple, RelativeTensorProduct.mixed_associator

    def counted_simple(env, c):
        calls.append((c, depth[0] > 0))
        return simple(env, c)

    def counted_mixed(self, g, h, s):
        depth[0] += 1
        try:
            return mixed(self, g, h, s)
        finally:
            depth[0] -= 1

    for M, N in itertools.product(catalogue(p), repeat=2):
        product = RelativeTensorProduct(M, N)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(KarEnvelope, "simple", counted_simple)
            m.setattr(RelativeTensorProduct, "mixed_associator", counted_mixed)
            product.decompose()
        full = [first for first, size in product.orbits() if size == 1]
        assert [c for c, inside in calls if not inside] == full, (str(M.label), str(N.label))
        assert not any(inside for _, inside in calls), (str(M.label), str(N.label))
        total += len(full)
    assert total > 0


def test_witness_route_shares_the_stored_projectors_unchanged():
    # every fixed object's character projectors share the cached coefficient
    # dicts, so analyze, which runs the witness route on every orbit, must
    # leave them as they were; on F1 x F2 and F3 x L the actions multiply
    # them by nontrivial roots of unity
    p = 5
    stored = _projector_coeffs(p)
    before = [dict(coeffs) for coeffs in stored]
    for left, right in [("R", "L"), ("R", "F0"), ("F1", "F2"), ("F3", "L")]:
        product = rtp(p, left, right)
        product.analyze()
        env = product.env
        fixed = [i for i in range(env.lad.object_count) if env.dimension_at(i) == p]
        assert fixed, (left, right)
        for i in fixed:
            c = env.class_at(i)
            assert all(env.representative(c + k).coeffs is coeffs for k, coeffs in enumerate(stored))
    assert [dict(coeffs) for coeffs in stored] == before


def test_free_bases_share_one_identity_unchanged():
    # every free base's idempotent is the envelope's one identity dict, so
    # the witness route reuses the acted idempotent when a path's first
    # connector is that identity; analyze must leave the dict as it was
    p, free_classes = 5, 0
    for M, N in itertools.product(catalogue(p), repeat=2):
        product = RelativeTensorProduct(M, N)
        env = product.env
        identity = env._identity
        product.analyze()
        assert identity == {0: CyclotomicScalar.one(p)}, (str(M.label), str(N.label))
        free = [c for c in range(env.simple_count) if env.dimension_at(env._bases[c]) == 1]
        assert all(env.representative(c).coeffs is identity for c in free)
        free_classes += len(free)
    assert free_classes > 0


def test_analyze_builds_each_orbit_simple_once(monkeypatch):
    p, calls = 11, []
    simple = KarEnvelope.simple

    def counted_simple(env, c):
        calls.append(c)
        return simple(env, c)

    monkeypatch.setattr(KarEnvelope, "simple", counted_simple)
    for left, right in [("R", "L"), ("R", "F0"), ("X3", "T")]:
        product = rtp(p, left, right)
        calls.clear()
        infos = product.analyze().orbits
        assert calls == [info.representative.class_index for info in infos] == [i for i, _ in product.orbits()]


def test_engine_morphisms_equal_their_filtered_construction(monkeypatch):
    # The actions, compose and the connectors are built without the
    # constructor's zero filter; each must equal the morphism the filtering
    # constructor builds from its coefficients, so no zero coefficient is
    # ever kept.  The action core (_act) and the connectors (_to_rep) give
    # coefficient dicts with no morphism built, and each dict must equal its
    # zero-filtered copy; they are recorded where the index-level route
    # makes them, so the witness route's and outer_action's are checked too.
    # compose's morphisms are checked as morphisms.  Every ordered pair at p
    # in {2, 3, 5}: the witness route of analyze, every simple acted on by
    # every g on both sides, every connector, and on one fixed object every
    # product of two character projectors, which cancels every rung unless
    # they are equal.
    made, dicts = [], []

    def recording(method, into=made, pick=lambda out: out):
        def wrapper(*args):
            out = method(*args)
            into.append(pick(out))
            return out
        return wrapper

    monkeypatch.setattr(RelativeTensorProduct, "_act", recording(RelativeTensorProduct._act, dicts, lambda out: out[2]))
    monkeypatch.setattr(LadderCategory, "compose", recording(LadderCategory.compose))
    monkeypatch.setattr(KarEnvelope, "_to_rep", recording(KarEnvelope._to_rep, dicts, lambda out: out[1]))
    kinds = Counter()
    for p in (2, 3, 5):
        for M, N in itertools.product(catalogue(p), repeat=2):
            product = RelativeTensorProduct(M, N)
            env, lad = product.env, product.lad
            product.analyze()
            for s in env.simples:
                for g in range(p):
                    for side in ("left", "right"):
                        env.locate(act_on(product, side, g, s.representative))
                        product.outer_action(g, side, s)
            for i in range(lad.object_count):
                obj = lad.object_at(i)
                for k in range(env.dimension_at(i)):
                    u, v = connectors(env, obj, k)
                    lad.compose(u, v)
            fixed = next((c for c in range(env.simple_count) if env.dimension_at(base_at(env, c)) == p), None)
            if fixed is not None:
                projectors = [env.representative(fixed + k) for k in range(p)]
                for e, f in itertools.product(projectors, repeat=2):
                    kinds["cancelled" if lad.compose(e, f).is_zero() else "kept"] += 1
            for f in made:
                assert f == LadderMorphism(f.source, f.target, f.coeffs), (str(M.label), str(N.label), f)
            for coeffs in dicts:
                assert coeffs == {b: c for b, c in coeffs.items() if not c.is_zero()}, (str(M.label), str(N.label))
            kinds["morphisms"] += len(made)
            kinds["dicts"] += len(dicts)
            made.clear()
            dicts.clear()
    assert kinds["cancelled"] > 0 and kinds["kept"] > 0 and kinds["morphisms"] > 5000 and kinds["dicts"] > 50000, kinds


def test_actions_match_the_rotating_oracle_and_share_the_dict_only_when_trivial():
    # The action core (_act, on a morphism through act_on) returns the input's
    # own coefficient dict when the acting entry's mixed table is all zero,
    # and rotates every rung otherwise.
    # On every ordered pair at p in {2, 3, 5}, plain and gauge-twisted on both
    # factors, every simple's idempotent and every connector acted on by g in
    # {0, 1} and a seeded g on both sides must equal rotated_action, which
    # reads each exponent from the table and never shares a dict, and must
    # share the input's dict exactly when the acting entry's trivial_mixed is
    # set.  The one-object entries keep their tables under any twist, so both
    # flags occur twisted.
    rng = random.Random(2602)
    seen = Counter()
    for p in (2, 3, 5):
        cat = catalogue(p)
        twisted = [random_twist(e, rng) for e in cat]
        for entries in (cat, twisted):
            for M, N in itertools.product(entries, repeat=2):
                product = RelativeTensorProduct(M, N)
                env, lad = product.env, product.lad
                morphisms = [env.representative(c) for c in range(env.simple_count)]
                for i in range(lad.object_count):
                    for k in range(env.dimension_at(i)):
                        morphisms.extend(connectors(env, lad.object_at(i), k))
                for side, entry in (("left", M), ("right", N)):
                    for g in sorted({0, 1, rng.randrange(p)}):
                        for f in morphisms:
                            acted = act_on(product, side, g, f)
                            assert acted == rotated_action(product, side, g, f), (p, side, g, f)
                            assert (acted.coeffs is f.coeffs) == entry.trivial_mixed, (p, side, g, f)
                    seen[entry.trivial_mixed, entries is twisted] += 1
    assert all(seen[flag, twist] > 0 for flag in (True, False) for twist in (True, False)), seen


def test_step_blocks_share_one_class_range():
    # The blocks of the N-fixed rows are gathered from one class range per
    # product, so lstep and rstep hold one int object per class.  The blocks
    # of R x L at p=11 that start at class 0 are their offsets, so only the
    # classes after the first row, p*p of them, are compared.
    p = 11
    product = rtp(p, "R", "L")
    lstep, rstep = product._steps
    later = [x for x in lstep + rstep if x >= p * p]
    assert len(later) == 2 * (product.env.simple_count - p * p)
    assert len({id(x) for x in later}) == len(later) // 2


def test_row_walk_and_step_tables_match_the_per_object_oracle():
    # Every ordered pair at p in {2, 3, 5, 7, 11}: of the catalogue, of
    # twisted entries, whose exponents depend on the simple (R and L twisted
    # by a character, so that their tables change too), and of relabelled
    # ones, whose leg simples are out of the catalogue's order.
    rng = random.Random(1806)
    for p in (2, 3, 5, 7, 11):
        cat = catalogue(p)
        twisted = [random_twist(e, rng) for e in cat]
        assert all(t.mixed != e.mixed for e, t in zip(cat, twisted) if e.label.kind in ("R", "L")), p
        for entries in (cat, twisted, [relabel(e, rng) for e in cat]):
            for M, N in itertools.product(entries, repeat=2):
                product = RelativeTensorProduct(M, N)
                env, where = product.env, (p, str(M.label), str(N.label))
                walk = walk_objects(env.lad)
                cls_of, rung_of, bases = walk
                assert env.simple_count == len(bases), where
                assert [base_at(env, c) for c in range(len(bases))] == bases, where
                objects = range(env.lad.object_count)
                assert list(map(env.class_at, objects)) == cls_of, where
                assert list(map(env.dimension_at, objects)) == [p if r == FIXED else 1 for r in rung_of], where
                assert [env._class_rung(i) for i in objects] == list(zip(cls_of, rung_of)), where
                # every row, the image rows of a free N orbit included, which
                # the envelope reads off their base row
                width = len(M.simples)
                for n in range(len(N.simples)):
                    assert list(env.class_row(n)) == cls_of[n * width:(n + 1) * width], where + (n,)
                assert product._steps == step_tables(M, N, walk), where


def test_corrupted_step_tables_are_classification_errors():
    p = 3
    product = rtp(p, "T", "T")
    lstep, rstep = product._steps
    identity = list(range(len(lstep)))
    swapped = list(lstep)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    # steps that do not commute; the message names the first simple where
    # they differ, of several
    product._steps = swapped, rstep
    bad = [i for i in identity if swapped[rstep[i]] != rstep[swapped[i]]]
    assert len({str(product.env.simple(i)) for i in bad}) > 1
    message = f"the left and right actions do not commute on {product.env.simple(bad[0])}"
    with pytest.raises(ClassificationError, match=f"^{re.escape(message)}$"):
        product.decompose()
    with pytest.raises(ClassificationError, match=f"^{re.escape(message)}$"):
        product.analyze()
    # commuting steps with an orbit {0, 1} of size 2, which is not 1, p or p^2
    transposition = identity[:]
    transposition[0], transposition[1] = 1, 0
    product._steps = transposition, identity
    with pytest.raises(ClassificationError, match="orbit of size 2 "):
        product.decompose()
    # an orbit of size p must be fixed by exactly one line: a simple fixed by
    # the whole group is fixed by all p+1, one with a trivial stabilizer by none
    product._steps = lstep, rstep
    full = rtp(p, "X1", "F1")
    with pytest.raises(ClassificationError, match="4 lines fix"):
        full._stabilizer(0, p)
    with pytest.raises(ClassificationError, match="0 lines fix"):
        product._stabilizer(0, p)


def test_build_table_rejects_a_multiplicity_other_than_0_1_or_p(monkeypatch):
    p = 3
    pair_product = fusion._pair_product
    F1, X2 = label_parse("F1"), label_parse("X2")

    def doubled(entries, a, b):
        dec = pair_product(entries, a, b)
        if (a, b) == (F1, X2):
            dec = Decomposition.from_pairs([(label, 2 * mult) for label, mult in dec.summands])
        return dec

    monkeypatch.setattr(fusion, "_pair_product", doubled)
    message = "product F1 x X2 produced multiplicity 2, expected 0, 1 or 3"
    with pytest.raises(ClassificationError, match=f"^{re.escape(message)}$"):
        build_table(p, workers=1)


def test_decompose_worked_products():
    assert rtp(3, "T", "T").decompose() == dec("", ("T", 3))
    assert rtp(3, "R", "F0").decompose() == dec("", ("R", 3))
    assert rtp(5, "F2", "F3").decompose() == dec("", ("X4", 1))
    assert rtp(5, "F2", "X3").decompose() == dec("", ("F1", 1))
    assert rtp(5, "X2", "X3").decompose() == dec("", ("X1", 1))
    assert rtp(3, "L", "R").decompose() == dec("", ("F0", 3))
    assert rtp(3, "T", "L").decompose() == dec("", ("T", 1))
    assert rtp(3, "L", "T").decompose() == dec("", ("L", 3))


def test_unit_fixes_every_label():
    for p in (2, 3):
        cat = catalogue(p)
        unit = catalogue_entry(p, BimoduleLabel("X", 1))
        for M in cat:
            assert RelativeTensorProduct(unit, M).decompose() == Decomposition.single(M.label)
            assert RelativeTensorProduct(M, unit).decompose() == Decomposition.single(M.label)


def test_counting_identity_all_products_small():
    for p in (2, 3):
        cat = catalogue(p)
        for M, N in itertools.product(cat, repeat=2):
            a = RelativeTensorProduct(M, N).analyze()
            assert a.decomposition.total_simples(p) == a.simple_count
            assert sum(o.size for o in a.orbits) == a.simple_count


def test_analysis_details_rf0():
    a = rtp(3, "R", "F0").analyze()
    assert a.object_count == 3
    assert a.end_dimensions == {3: 3}
    assert a.simple_count == 9
    assert all(o.stabilizer.generator == (0, 1) for o in a.orbits)
    assert str(a.decomposition) == "3*R"


def test_analysis_details_fx():
    a = rtp(3, "F1", "X2").analyze()
    assert a.object_count == 3
    assert a.simple_count == 1
    assert len(a.orbits) == 1
    orbit = a.orbits[0]
    assert orbit.stabilizer.kind == "full"
    assert orbit.assoc_exponent == 2
    assert str(a.decomposition) == "F2"


def test_outer_action_rejects_bad_side():
    product = rtp(2, "T", "T")
    with pytest.raises(ValueError):
        product.outer_action(1, "middle", product.simples[0])


def gauge_invariants(a):
    """What analyze must report the same way in every gauge of the inputs.

    The associator exponent is canonical only on orbits with full stabilizer,
    where the label F_q carries it; elsewhere it depends on the gauge and is
    left out.
    """
    orbits = Counter((o.size, str(o.stabilizer), str(o.label)) for o in a.orbits)
    return a.decomposition, a.object_count, a.end_dimensions, a.simple_count, orbits


def test_gauge_twist_preserves_product_invariants():
    rng = random.Random(20181)
    cases, twists = [], {}
    for p in (2, 3, 5):
        cat = catalogue(p)
        pairs = list(itertools.product(cat, repeat=2))
        cases += pairs if p < 5 else rng.sample(pairs, 12)
        for entry, side, _ in itertools.product(cat, ("left", "right"), range(2)):
            c = {m: rng.randrange(p) for m in entry.simples}
            twisted = gauge_twist(entry, c, side)
            assert validate(twisted) == []
            twists.setdefault((p, str(entry.label), side), []).append(twisted)
    for M, N in cases:
        expected = gauge_invariants(RelativeTensorProduct(M, N).analyze())
        for side in ("left", "right"):
            tM = rng.choice(twists[(M.p, str(M.label), side)])
            tN = rng.choice(twists[(N.p, str(N.label), side)])
            for left, right in ((tM, N), (M, tN), (tM, tN)):
                got = gauge_invariants(RelativeTensorProduct(left, right).analyze())
                assert got == expected, (M.p, str(M.label), str(N.label), side)


def test_character_twist_preserves_product_invariants():
    # R twisted on the right and L on the left by a character per simple:
    # each is a valid bimodule with a nonzero exponent table, which no
    # coboundary twist gives them, and a product with it on either side has
    # the invariants of the product with the plain entry.
    rng = random.Random(2603)
    for p in (2, 3, 5):
        cat = catalogue(p)
        for name, side in (("R", "right"), ("L", "left")):
            entry = catalogue_entry(p, label_parse(name))
            twisted = character_twist(entry, {m: rng.randrange(1, p) * (m != 0) for m in entry.simples}, side)
            assert validate(twisted) == [] and not twisted.trivial_mixed, (p, name)
            for other in cat:
                for plain, moved in (((entry, other), (twisted, other)), ((other, entry), (other, twisted))):
                    got = gauge_invariants(RelativeTensorProduct(*moved).analyze())
                    assert got == gauge_invariants(RelativeTensorProduct(*plain).analyze()), (p, name, str(other.label))


def test_relabelled_simples_preserve_product_invariants():
    # every ordered pair at p in {2, 3} and a seeded sample at p=5, both
    # factors relabelled; the canonical object order changes, the invariants
    # must not
    rng = random.Random(61)
    cases = []
    for p in (2, 3, 5):
        cat = catalogue(p)
        pairs = list(itertools.product(cat, repeat=2))
        cases += pairs if p < 5 else rng.sample(pairs, 10)
    relabelled = {}
    for M, N in cases:
        for entry in (M, N):
            key = (entry.p, str(entry.label))
            if key not in relabelled:
                relabelled[key] = relabel(entry, rng)
                assert validate(relabelled[key]) == []
                assert relabelled[key].simples != entry.simples
        rM, rN = relabelled[(M.p, str(M.label))], relabelled[(N.p, str(N.label))]
        got = gauge_invariants(RelativeTensorProduct(rM, rN).analyze())
        assert got == gauge_invariants(RelativeTensorProduct(M, N).analyze()), (M.p, str(M.label), str(N.label))


def test_gauge_twist_moves_exponent_off_full_orbits():
    # the T orbit of T x X1 at p=2 has exponent 0, and 1 after a twist of T
    p = 2
    T, X1 = catalogue_entry(p, label_parse("T")), catalogue_entry(p, label_parse("X1"))
    assert [o.assoc_exponent for o in RelativeTensorProduct(T, X1).analyze().orbits] == [0]
    exponents = set()
    for values in itertools.product(range(p), repeat=len(T.simples)):
        twisted = gauge_twist(T, dict(zip(T.simples, values)), "right")
        (orbit,) = RelativeTensorProduct(twisted, X1).analyze().orbits
        assert str(orbit.label) == "T"
        exponents.add(orbit.assoc_exponent)
    assert exponents == {0, 1}


def test_mixed_associator_off_the_rung_characters_is_a_classification_error():
    # Hand-built data that fails validate.  On the fixed object of
    # Lad(M, F0), acting by 1 on the left multiplies rung b by zeta^e with
    # e = M.mixed[1][*][b] = b^2, which is not a character of Z_5; mirrored,
    # the right action multiplies it by zeta^(b^2) as well.
    p = 5
    F0 = catalogue_entry(p, label_parse("F0"))
    squares_in_h = F0._replace(mixed=exponent_table(p, 1, lambda g, m, h: g * h * h), label=None)
    squares_in_g = F0._replace(mixed=exponent_table(p, 1, lambda g, m, h: g * g * h), label=None)
    for M, N, side in ((squares_in_h, F0, "left"), (F0, squares_in_g, "right")):
        assert validate(M) != [] or validate(N) != []
        with pytest.raises(ClassificationError, match=side):
            RelativeTensorProduct(M, N).analyze()


def test_right_exponents_are_checked_on_every_n_fixed_row():
    # Hand-built data that fails validate.  Every row of Lad(R, N) is
    # N-fixed, N being L with its mixed table replaced: on row 0 the right
    # action is the trivial character, and on row 1 it multiplies rung b by
    # zeta^(b^2), which is not a character of Z_5.  The step tables check
    # e(1) on every N-fixed row, not only on the first, so both analyze and
    # decompose raise the right action's fault on the simple 1 of N.
    p = 5
    R, L = catalogue_entry(p, label_parse("R")), catalogue_entry(p, label_parse("L"))
    N = L._replace(mixed=exponent_table(p, p, lambda g, n, h: g * g * h if n == 1 else 0), label=None)
    assert validate(N) != []
    message = f"the right mixed associator on {format_simple(N.simples[1])} is not a character of its rung stabilizer"
    for run in (RelativeTensorProduct.analyze, RelativeTensorProduct.decompose):
        with pytest.raises(ClassificationError, match=f"^{re.escape(message)}$"):
            run(RelativeTensorProduct(R, N))


def test_action_that_changes_end_dimension_is_a_classification_error():
    # Hand-built data that fails validate: at p=2 the simple 0 of M is fixed
    # by the right action and 1, 2 are swapped, but acting by 1 on the left
    # swaps 0 and 1.  The fixed object (0)(*) of Lad(M, F0) goes to the free
    # object (1)(*).
    p = 2
    F0 = catalogue_entry(p, label_parse("F0"))
    swap = {0: 1, 1: 0, 2: 2}
    M = F0._replace(
        simples=(0, 1, 2),
        left=[[swap[m] if g else m for m in range(3)] for g in range(p)],
        right=[[m if h == 0 or m == 0 else 3 - m for m in range(3)] for h in range(p)],
        mixed=exponent_table(p, 3, lambda g, m, h: 0),
        label=None,
    )
    assert validate(M) != []
    message = "acting on the left changes the End dimension of (0)(*)"
    with pytest.raises(ClassificationError, match=f"^{re.escape(message)}$"):
        RelativeTensorProduct(M, F0).analyze()


def test_witness_associator_matches_the_route_that_acts_every_connector():
    # mixed_associator reuses the acted representative idempotent when the
    # first connector is that idempotent; on every orbit of every ordered
    # pair at p in {2, 3, 5}, plain and twisted on both factors (R and L by a
    # character, so that their tables change too), it must give the exponent
    # of the route that acts every connector, which reads its ratio with full
    # scalar products.  Both kinds of landing occur: on a fixed object (the
    # reused idempotent) and on a free one.
    rng = random.Random(521)
    dims = Counter()
    for p in (2, 3, 5):
        cat = catalogue(p)
        twisted = [random_twist(e, rng) for e in cat]
        assert all(t.mixed != e.mixed for e, t in zip(cat, twisted) if e.label.kind in ("R", "L")), p
        exponents_at = [(1, 1), (rng.randrange(p), rng.randrange(p))]
        for entries in (cat, twisted):
            for M, N in itertools.product(entries, repeat=2):
                product = RelativeTensorProduct(M, N)
                for first, _ in product.orbits():
                    s = product.env.simple(first)
                    dims[product.env.dimension_at(base_at(product.env, first))] += 1
                    for g, h in exponents_at:
                        want = acted_witness_exponent(product, g, h, s)
                        assert product.mixed_associator(g, h, s) == want, (p, str(M.label), str(N.label), g, h)
    assert dims[1] > 100 and sum(n for d, n in dims.items() if d > 1) > 100, dims


def test_witness_paths_match_the_plain_route_at_p7_and_p11():
    # The base landings are read as the landing base's idempotent, not
    # composed; on every orbit of R x L, L x R, R x F0, F_q x F_r, F_q x X_l
    # and T x X_l at p in {7, 11}, plain and gauge-twisted on both factors,
    # at (1, 1) and one seeded (g, h), the exponent must be the one of the
    # route that composes every path.
    rng = random.Random(2311)
    checked = 0
    for p in (7, 11):
        q, r, l = (rng.randrange(1, p) for _ in range(3))
        names = [("R", "L"), ("L", "R"), ("R", "F0"), (f"F{q}", f"F{r}"), (f"F{q}", f"X{l}"), ("T", f"X{l}")]
        at = [(1, 1), (rng.randrange(p), rng.randrange(p))]
        for a, b in names:
            M, N = catalogue_entry(p, label_parse(a)), catalogue_entry(p, label_parse(b))
            for left, right in ((M, N), (random_twist(M, rng), random_twist(N, rng))):
                product = RelativeTensorProduct(left, right)
                for first, _ in product.orbits():
                    s = product.env.simple(first)
                    for g, h in at:
                        want = acted_witness_exponent(product, g, h, s)
                        assert product.mixed_associator(g, h, s) == want, (p, a, b, g, h)
                        checked += 1
    assert checked > 200, checked


def test_witness_paths_equal_the_object_level_route():
    # The library runs each witness path on object and class indices and
    # returns (landing class, source object index, coefficient dict); the
    # path is the morphism with that dict, unfiltered, from that source to
    # the landing class's representative.  On every orbit of every ordered
    # pair at p in {2, 3, 5}, plain, twisted and relabelled, at (1, 1) and
    # one seeded (g, h), both paths must equal those of the route on Kar
    # objects, in landing class and in morphism.
    # Every kind of path occurs: a first landing off its base (the acted
    # connector composed), and after a base, a second landing on a base (the
    # base's idempotent) and off one (the acted idempotent composed).
    rng = random.Random(2707)
    kinds = Counter()
    for p in (2, 3, 5):
        cat = catalogue(p)
        at = [(1, 1), (rng.randrange(p), rng.randrange(p))]
        for entries in (cat, [random_twist(e, rng) for e in cat], [relabel(e, rng) for e in cat]):
            for M, N in itertools.product(entries, repeat=2):
                product = RelativeTensorProduct(M, N)
                env = product.env
                for first, _ in product.orbits():
                    rep, base = env.representative(first), env._base_of(first)
                    for g, h in at:
                        for route in (("right", h, "left", g), ("left", g, "right", h)):
                            c2, source, coeffs = product._witness_path(*route, *base)
                            landing = env.representative(c2).source
                            path = LadderMorphism._nonzero(product.lad.object_at(source), landing, coeffs)
                            want = object_witness_path(product, *route, rep)
                            assert (c2, path) == want, (p, str(M.label), str(N.label), route)
                            j = product._shift(route[0], route[1], base[0])
                            if base_at(env, env.class_at(j)) != j:
                                kinds["first off base"] += 1
                            else:
                                kinds["base" if path.source == path.target else "second off base"] += 1
    assert len(kinds) == 3 and min(kinds.values()) > 100, kinds


def _products_p11(seed):
    """The five products of the products-p11 benchmark workload for a seed."""
    p, rng = 11, random.Random(seed)
    k, q, r, a, b = (rng.randrange(1, p) for _ in range(5))
    pairs = [("R", "L"), (f"X{k}", "T"), ("R", "F0"), (f"F{q}", f"F{r}"), (f"X{a}", f"X{b}")]
    return [rtp(p, left, right) for left, right in pairs]


def test_witness_paths_that_land_on_a_base_are_its_idempotent(monkeypatch):
    # A path whose connectors are both a base's idempotent is that
    # idempotent, an endomorphism of the base with its stored coefficient
    # dict, with no lad.compose; every other path is composed.  All
    # three kinds occur on the five products-p11 products of seed 1, which
    # make exactly 2 compositions over 50 paths.
    composed = []
    compose, witness_path = LadderCategory.compose, RelativeTensorProduct._witness_path

    def counted(lad, f, g):
        composed.append((f, g))
        return compose(lad, f, g)

    kinds = Counter()

    def classified(product, *args):
        before = len(composed)
        c2, source, coeffs = witness_path(product, *args)
        env = product.env
        if len(composed) > before:
            kinds["composed"] += 1
        else:
            assert source == base_at(env, c2) and coeffs is env.representative(c2).coeffs
            kinds["fixed base" if env.dimension_at(base_at(env, c2)) == product.p else "free base"] += 1
        return c2, source, coeffs

    monkeypatch.setattr(LadderCategory, "compose", counted)
    monkeypatch.setattr(RelativeTensorProduct, "_witness_path", classified)
    for product in _products_p11(1):
        product.analyze()
    assert len(composed) == kinds["composed"] == 2
    assert sum(kinds.values()) == 50 and kinds["fixed base"] > 0 and kinds["free base"] > 0, kinds


def test_the_witness_route_builds_only_the_morphisms_it_composes(monkeypatch):
    # Inside mixed_associator, counted with LadderCategory.object_at and
    # LadderMorphism._nonzero on the five products-p11 products of seed 1: a
    # path that lands on a base builds no ladder object and no morphism; a
    # composing path names the three objects of its two morphisms and builds
    # those two and compose's result; and nothing outside the two paths
    # builds anything.
    built = Counter()
    object_at, nonzero = LadderCategory.object_at, LadderMorphism._nonzero.__func__
    compose, witness_path = LadderCategory.compose, RelativeTensorProduct._witness_path
    mixed_associator = RelativeTensorProduct.mixed_associator

    def counted_at(lad, i):
        built["objects"] += 1
        return object_at(lad, i)

    def counted_nonzero(cls, source, target, coeffs):
        built["morphisms"] += 1
        return nonzero(cls, source, target, coeffs)

    def counted_compose(lad, f, g):
        built["compositions"] += 1
        return compose(lad, f, g)

    paths = []

    def counted_path(product, *args):
        before = Counter(built)
        out = witness_path(product, *args)
        paths.append(built - before)
        return out

    calls = []

    def counted_associator(product, g, h, simple):
        before, first = Counter(built), len(paths)
        out = mixed_associator(product, g, h, simple)
        calls.append((built - before, sum(paths[first:], Counter())))
        return out

    monkeypatch.setattr(LadderCategory, "object_at", counted_at)
    monkeypatch.setattr(LadderMorphism, "_nonzero", classmethod(counted_nonzero))
    monkeypatch.setattr(LadderCategory, "compose", counted_compose)
    monkeypatch.setattr(RelativeTensorProduct, "_witness_path", counted_path)
    monkeypatch.setattr(RelativeTensorProduct, "mixed_associator", counted_associator)
    for product in _products_p11(1):
        product.analyze()
    assert len(paths) == 2 * len(calls) == 50
    composing = [path for path in paths if path["compositions"]]
    assert composing == [Counter(objects=3, morphisms=3, compositions=1)] * 2, paths
    assert all(not path for path in paths if not path["compositions"]), paths
    assert all(total == in_paths for total, in_paths in calls), calls


def test_projectors_are_checked_idempotent():
    # The stored projectors pass; a table whose I_1 is scaled by 2 is
    # not idempotent, and the check names it.
    p = 5
    stored = _projector_coeffs(p)
    assert _checked_idempotent(p, stored) is stored
    doubled = list(stored)
    doubled[1] = {b: c.scale(2) for b, c in stored[1].items()}
    with pytest.raises(EngineError, match=f"^{re.escape('the character projector I_1 of C[Z_5] is not idempotent')}$"):
        _checked_idempotent(p, tuple(doubled))
