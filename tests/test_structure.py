"""The engine's outer actions tested as functors of the ladder category."""

import itertools
import random

from bpring.bimodules import catalogue, validate
from bpring.cyclotomic import Rational, root_of_unity
from bpring.fusion import RelativeTensorProduct
from bimodule_transforms import gauge_twist, relabel
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
