"""The engine's outer actions tested as functors of the ladder category, and op duality of its products."""

import itertools
import random

from bpring.bimodules import BimoduleLabel, Decomposition, catalogue, catalogue_entry, label_parse, validate
from bpring.cyclotomic import Rational, root_of_unity
from bpring.fusion import RelativeTensorProduct, decompose
from bimodule_transforms import gauge_twist, op, relabel
from kar_oracle import basic


def twisted(entry, rng):
    """entry gauge-twisted on both sides by seeded coboundaries, then relabelled."""
    for side in ("left", "right"):
        entry = gauge_twist(entry, {m: rng.randrange(entry.p) for m in entry.simples}, side)
    entry = relabel(entry, rng)
    assert validate(entry) == []
    return entry


def test_outer_actions_are_functors():
    # act(g, f;h) = act(g, f);act(g, h) for basic ladders f, h with seeded
    # rungs and scalars, every g and both sides, on up to 4 objects of every
    # ordered pair at p in {3, 5}.  Both factors are gauge-twisted, so that
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
                    for side, act in (("left", product.act_left), ("right", product.act_right)):
                        assert act(g, fh) == lad.compose(act(g, f), act(g, h)), (p, a, b, i, g, side)
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
    # at p <= 7, plain and gauge-twisted.  The ops are presentations the
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
            assert decompose(X1, dual) == Decomposition.single(op_label(entry.label, p)), (p, str(entry.label))
        for entries in (cat, [twisted(e, rng) for e in cat]):
            duals = [op(e) for e in entries]
            for (M, opM), (N, opN) in itertools.product(zip(entries, duals), repeat=2):
                want = Decomposition.from_pairs((op_label(l, p), m) for l, m in decompose(M, N).summands)
                assert decompose(opN, opM) == want, (p, str(M.label), str(N.label))
                pairs += 1
    assert pairs == 2 * sum((2 * p + 2) ** 2 for p in (2, 3, 5, 7))
