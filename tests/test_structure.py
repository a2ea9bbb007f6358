"""The engine's outer actions tested as functors, op duality of its products, and its products as bimodules."""

import gc
import itertools
import random
import weakref

from bpring.bimodules import BimoduleLabel, Decomposition, catalogue, catalogue_entry, label_parse, validate
from bpring.cyclotomic import Rational
from bpring.fusion import RelativeTensorProduct
from action_oracle import act_on
from bimodule_transforms import ProductMemo, gauge_twist, op, random_twist, relabel
from kar_oracle import basic
from scalar_oracle import root_of_unity


def twisted(entry, rng):
    """entry twisted by random_twist (R and L by a character), gauge-twisted on both sides, then relabelled.

    A coboundary leaves the tables of R and L as they are, so R and L change
    only by the character.
    """
    entry = random_twist(entry, rng)
    for side in ("left", "right"):
        entry = gauge_twist(entry, {m: rng.randrange(entry.p) for m in entry.simples}, side)
    entry = relabel(entry, rng)
    assert validate(entry) == []
    return entry


def test_outer_actions_are_functors():
    # act(g, f;h) = act(g, f);act(g, h) for basic ladders f, h with seeded
    # rungs and scalars, every g and both sides, on up to 4 objects of every
    # ordered pair at p in {3, 5}.  Both factors go through twisted, so that
    # the exponent tables depend on the simple: a catalogue entry with more
    # than one simple has exponent 0 everywhere, and there an action that
    # reads the wrong leg's row goes unseen.
    rng = random.Random(13)
    checks = 0
    for p in (3, 5):
        scalars = [root_of_unity(p, k).scale(Rational(n, d)) for k in range(p) for n, d in ((1, 1), (-2, 3))]
        twists = {str(e.label): [twisted(e, rng) for _ in range(2)] for e in catalogue(p)}
        for a, b in itertools.product(twists, repeat=2):
            product = RelativeTensorProduct(rng.choice(twists[a]), rng.choice(twists[b]))
            lad = product.lad
            for i in rng.sample(range(lad.object_count), min(4, lad.object_count)):
                f = basic(lad, lad.object_at(i), rng.randrange(p)).scale(rng.choice(scalars))
                h = basic(lad, f.target, rng.randrange(p)).scale(rng.choice(scalars))
                fh = lad.compose(f, h)
                for g in range(p):
                    for side in ("left", "right"):
                        fh_acted, f_acted, h_acted = (act_on(product, side, g, x) for x in (fh, f, h))
                        assert fh_acted == lad.compose(f_acted, h_acted), (p, a, b, i, g, side)
                        checks += 1
    assert checks > 5000


def op_label(label, p):
    """The label of the opposite bimodule, by hand: T, F0 fixed, L and R swapped, X_k -> X_(1/k), F_q -> F_(-q)."""
    kind, k = label.kind, label.index
    if kind in ("L", "R"):
        return BimoduleLabel("R" if kind == "L" else "L")
    if kind == "X":
        return BimoduleLabel("X", pow(k, p - 2, p))
    if kind == "F":
        return BimoduleLabel("F", -k % p)
    return label


def test_op_duality_of_products():
    # The engine's label map, decompose(X1, op e), is the hand-written one,
    # and decompose(op N, op M) = op(decompose(M, N)) on every ordered pair
    # at p <= 7, plain and through twisted.  The ops are presentations the
    # catalogue never makes: their exponent tables are transposed and
    # negated, and the witness associator that reads F_q must give -q.
    rng = random.Random(31)
    pairs = 0
    for p in (2, 3, 5, 7):
        cat = catalogue(p)
        X1 = catalogue_entry(p, label_parse("X1"))
        for entry in cat:
            dual = op(entry)
            assert validate(dual) == [], (p, str(entry.label))
            want = Decomposition.single(op_label(entry.label, p))
            assert RelativeTensorProduct(X1, dual).decompose() == want, (p, str(entry.label))
        for entries in (cat, [twisted(e, rng) for e in cat]):
            duals = [op(e) for e in entries]
            for (M, opM), (N, opN) in itertools.product(zip(entries, duals), repeat=2):
                summands = RelativeTensorProduct(M, N).decompose().summands
                want = Decomposition.from_pairs((op_label(l, p), m) for l, m in summands)
                assert RelativeTensorProduct(opN, opM).decompose() == want, (p, str(M.label), str(N.label))
                pairs += 1
    assert pairs == 2 * sum((2 * p + 2) ** 2 for p in (2, 3, 5, 7))


def test_engine_products_are_valid_bimodules():
    # Every ordered pair at p <= 3: the product, read off the engine as a
    # bimodule, passes validate, so its actions are additive and commute and
    # its exponents are additive in each argument.
    for p in (2, 3):
        cat = catalogue(p)
        products = ProductMemo(cat, cat)
        for i, j in itertools.product(range(len(cat)), repeat=2):
            product = products[i, j]
            assert validate(product) == [], (p, str(cat[i].label), str(cat[j].label))
            assert len(product.simples) == RelativeTensorProduct(cat[i], cat[j]).decompose().total_simples(p)


def test_engine_products_are_associative_and_distribute():
    # All 512 triples (A, B, C) at p=3, with the catalogue and with A and C
    # twisted by random_twist (R and L by a character, so that their tables
    # change too): decompose(A x B, C) equals
    # decompose(A, B x C), the products read off the engine as bimodules,
    # and equals the sum of decompose(s, C) over the summands s of A x B.
    # The label table passes associativity by construction; this reads the
    # engine's own products, their witness exponents at every (g, h) too.
    p, rng = 3, random.Random(2024)
    cat = catalogue(p)
    entry = {e.label: e for e in cat}
    twist = lambda e: random_twist(e, rng)
    pairs = list(itertools.product(range(len(cat)), repeat=2))
    for lefts, rights in ((cat, cat), ([twist(e) for e in cat], [twist(e) for e in cat])):
        ab, bc = ProductMemo(lefts, cat), ProductMemo(cat, rights)
        summands = {(i, j): RelativeTensorProduct(lefts[i], cat[j]).decompose().summands for i, j in pairs}
        times_c = {}  # (label, k) -> the summands of entry[label] x rights[k]
        for (i, j), k in itertools.product(pairs, range(len(cat))):
            where = (str(cat[i].label), str(cat[j].label), str(cat[k].label), lefts is cat)
            left = RelativeTensorProduct(ab[i, j], rights[k]).decompose()
            assert left == RelativeTensorProduct(lefts[i], bc[j, k]).decompose(), where
            parts = []
            for label, mult in summands[i, j]:
                if (label, k) not in times_c:
                    times_c[label, k] = RelativeTensorProduct(entry[label], rights[k]).decompose().summands
                parts += [(s, n * mult) for s, n in times_c[label, k]]
            assert left == Decomposition.from_pairs(parts), where


class _Lifetime:
    """Weakly referable, unlike a BimoduleData (a tuple): set on an entry, it is freed with the entry."""


def test_product_memo_keeps_its_factors():
    # The memo holds its factors, so none is freed while it can still be
    # asked for their product.
    p, rng = 3, random.Random(5)
    cat = catalogue(p)
    lefts = [gauge_twist(e, {m: rng.randrange(p) for m in e.simples}, "left") for e in cat]
    refs = []
    for e in lefts:
        e.lifetime = _Lifetime()
        refs.append(weakref.ref(e.lifetime))
    pairs = ((0, 0), (4, 7), (7, 4))
    # an entry and a copy of it are alive together while the memo is built,
    # so a memo that holds copies holds other ids
    ids = [id(e) for e in lefts]
    expected = {(i, j): RelativeTensorProduct(lefts[i], cat[j]).decompose() for i, j in pairs}
    products = ProductMemo(lefts, cat)
    del lefts, e
    gc.collect()
    assert all(ref() is not None for ref in refs)
    unit = catalogue_entry(p, label_parse("X1"))
    for i, j in pairs:
        assert id(products.lefts[i]) == ids[i] and products.lefts[i].lifetime is refs[i]()
        assert RelativeTensorProduct(products[i, j], unit).decompose() == expected[i, j]
