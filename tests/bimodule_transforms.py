"""Transformations of catalogue entries that give equivalent or hand-built bimodules, for the tests.

- exponent_table builds a mixed-associator table from a function;
- gauge_twist twists an entry's mixed associator by a coboundary, which
  gives an equivalent bimodule whose exponents depend on the simple;
- character_twist rescales an action that fixes every simple by a
  character per simple, the gauge freedom gauge_twist leaves out on R and L;
- random_twist applies whichever of the two changes the entry's table;
- relabel renames and reorders an entry's simples, which gives the same
  bimodule in another canonical object order;
- op swaps the two sides, which gives the opposite bimodule;
- product_bimodule reads the engine's relative tensor product as a
  bimodule, and ProductMemo builds each such product once.
"""

from bpring.bimodules import BimoduleData
from bpring.fusion import RelativeTensorProduct
from action_oracle import act_on


def exponent_table(p, n, f):
    """mixed[g][i][h] = f(g, i, h) mod p for n simples."""
    return [[[f(g, i, h) % p for h in range(p)] for i in range(n)] for g in range(p)]


def gauge_twist(entry, c, side):
    """entry with its mixed associator twisted by the coboundary of c: simples -> Z_p.

    The result is an equivalent bimodule, so every invariant of a product
    with it must stay the same.  label=None makes validate apply only the
    generic coherence conditions.
    """
    p, left, right, mixed = entry.p, entry.left, entry.right, entry.mixed
    c = [c[m] for m in entry.simples]
    if side == "right":
        d = lambda i, h: c[right[h][i]] - c[i]
        shift = lambda g, i, h: d(i, h) - d(left[g][i], h)
    else:
        e = lambda g, i: c[left[g][i]] - c[i]
        shift = lambda g, i, h: e(g, right[h][i]) - e(g, i)
    twisted = exponent_table(p, len(c), lambda g, i, h: mixed[g][i][h] + shift(g, i, h))
    return entry._replace(mixed=twisted, label=None)


def character_twist(entry, chi, side):
    """entry with the action on side rescaled at each simple m by the character a -> zeta^(chi[m] a).

    This is a natural isomorphism of that action only where it fixes every
    simple: on the right of R and on the left of L, whose mixed tables no
    gauge_twist changes.  The exponents become (chi[m] - chi[g > m]) h or
    g (chi[m < h] - chi[m]), the same shift gauge_twist makes with its
    coboundary replaced by chi, so the result is again an equivalent
    bimodule, with label=None.
    """
    p, left, right, mixed = entry.p, entry.left, entry.right, entry.mixed
    table = right if side == "right" else left
    if any(row[i] != i for row in table for i in range(len(entry.simples))):
        raise ValueError(f"the {side} action of {entry.label} moves a simple")
    chi = [chi[m] for m in entry.simples]
    if side == "right":
        shift = lambda g, i, h: (chi[i] - chi[left[g][i]]) * h
    else:
        shift = lambda g, i, h: g * (chi[right[h][i]] - chi[i])
    twisted = exponent_table(p, len(chi), lambda g, i, h: mixed[g][i][h] + shift(g, i, h))
    return entry._replace(mixed=twisted, label=None)


def random_twist(entry, rng):
    """entry gauge-twisted with seeded values: by a character on R's right and L's left, by a coboundary elsewhere."""
    c = {m: rng.randrange(entry.p) for m in entry.simples}
    if entry.label is not None and entry.label.kind in ("R", "L"):
        return character_twist(entry, c, "right" if entry.label.kind == "R" else "left")
    return gauge_twist(entry, c, rng.choice(("left", "right")))


def relabel(entry, rng):
    """entry with its simples renamed by a seeded bijection and listed in a shuffled order.

    The simple at new position k is the old simple order[k] under a new
    string name; the action tables and the exponent table are carried along,
    so the result is the same bimodule and keeps its label.
    """
    n, p = len(entry.simples), entry.p
    order = rng.sample(range(n), n)
    new_index = {old: k for k, old in enumerate(order)}
    names = [f"s{r}" for r in rng.sample(range(10 * n), n)]
    move = lambda table: [[new_index[row[old]] for old in order] for row in table]
    return entry._replace(
        simples=tuple(names[old] for old in order),
        left=move(entry.left),
        right=move(entry.right),
        mixed=[[entry.mixed[g][old] for old in order] for g in range(p)],
    )


def op(entry):
    """The opposite bimodule: g acts on the left as it acted on the right, and h on the right as on the left.

    mixed'[g][i][h] = -mixed[h][i][g]: the op's mixed associator at (g, m, h)
    is the inverse of the entry's at (h, m, g).  label=None, since op of a
    catalogue entry is a presentation the catalogue never makes.
    """
    p, mixed = entry.p, entry.mixed
    return entry._replace(
        left=entry.right,
        right=entry.left,
        mixed=exponent_table(p, len(entry.simples), lambda g, i, h: -mixed[h][i][g]),
        label=None,
    )


def product_bimodule(rtp):
    """The relative tensor product of rtp as a bimodule, read off the engine alone.

    Its simples are the envelope's class indices.  left[g][c] is the class
    that locate finds for the representative of c acted on by g on the left,
    and right[h][c] likewise on the right; mixed[g][c][h] is the witness
    associator mixed_associator(g, h) on the simple of c.  It has no label:
    a product is its tables, with no subgroup or cocycle to make up.
    """
    env, p = rtp.env, rtp.p
    simples = [env.simple(c) for c in range(env.simple_count)]

    def action(side):
        return tuple(tuple(env.locate(act_on(rtp, side, g, s.representative))[0] for s in simples) for g in range(p))

    mixed = tuple(tuple(tuple(rtp.mixed_associator(g, h, s) for h in range(p)) for s in simples) for g in range(p))
    return BimoduleData(p, tuple(range(len(simples))), action("left"), action("right"), mixed)


class ProductMemo:
    """product_bimodule of lefts[i] and rights[j], built once for each (i, j).

    The memo is keyed on positions in the two tuples and keeps both, so a
    product never outlives its factors.  A memo keyed on id() of its
    factors can hand out the product of freed bimodules whose ids a new
    bimodule has taken.
    """

    def __init__(self, lefts, rights):
        self.lefts, self.rights = tuple(lefts), tuple(rights)
        self._products = {}

    def __getitem__(self, key):
        product = self._products.get(key)
        if product is None:
            i, j = key
            product = self._products[key] = product_bimodule(RelativeTensorProduct(self.lefts[i], self.rights[j]))
        return product
