"""Transformations of catalogue entries that give equivalent or hand-built bimodules, for the tests.

- exponent_table builds a mixed-associator table from a function;
- two_simples builds a two-simple entry whose rung action is not a Z_p
  action, a defective leg;
- noncommuting builds an entry whose two actions do not commute, its
  generator moving a rung-fixed simple to a free one, a defective leg;
- defective_legs lists every defective leg kind the tests build, each with
  the fault karoubi.leg raises on it;
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

from string import ascii_lowercase

from bpring.bimodules import BimoduleData, catalogue_entry, label_parse
from bpring.fusion import RelativeTensorProduct
from bpring.karoubi import UnsupportedEndAlgebra
from bpring.ladders import ClassificationError
from action_oracle import act_on
from kar_oracle import locate


def exponent_table(p, n, f):
    """mixed[g][i][h] = f(g, i, h) mod p for n simples."""
    return [[[f(g, i, h) % p for h in range(p)] for i in range(n)] for g in range(p)]



def two_simples(p, s, side):
    """Hand-built data that fails validate: simples 0 and 1, fixed for g in {0, s} only and swapped otherwise.

    The action that moves them is the one that acts as the rung on side's
    leg: the right action on the left (M's), the left action on the right
    (N's).  The other action fixes both, and every exponent is 0.
    """
    moving, fixed = [[n if g in (0, s) else 1 - n for n in (0, 1)] for g in range(p)], [[0, 1]] * p
    left, right = (fixed, moving) if side == "left" else (moving, fixed)
    return BimoduleData(p, (0, 1), left, right, exponent_table(p, 2, lambda g, i, h: 0))


def noncommuting(p, swapped=False):
    """Hand-built data that fails validate: its left and right actions do not commute.

    The simples a, b, ... are p+1.  The right action fixes the first and
    cycles the other p, and the left action cycles the first p and fixes the
    last, so acting by 1 on the left moves the rung-fixed first simple to a
    free one.  swapped exchanges the two actions.  Every exponent is 0.
    """
    n = p + 1
    fix_first = [[0] + [1 + (i - 1 + h) % p for i in range(1, n)] for h in range(p)]
    fix_last = [[(i + g) % p for i in range(p)] + [p] for g in range(p)]
    left, right = (fix_first, fix_last) if swapped else (fix_last, fix_first)
    return BimoduleData(p, tuple(ascii_lowercase[:n]), left, right, exponent_table(p, n, lambda g, i, h: 0))


def defective_legs(p):
    """(entry, side, error, message) for each defective leg kind at p, with the fault leg(entry, side) raises.

    two_simples on each side, for s = 1 and s = p-1: rung 1 acts by
    M.right[-1] on the left and by N.left[1] on the right, so one s fixes
    the simple 0 at rung 1 but not at rung 2, and the other moves it to 1
    and back to 0 before rung p; F0 with the exponent g h^2 on the left and
    g^2 h on the right, not a character of Z_p (squares_in_h and
    squares_in_g); and noncommuting on each side, whose generator moves the
    rung-fixed simple a.  At p=2 only noncommuting is defective, as 1 = p-1
    and b^2 = b there.
    """
    out = [(noncommuting(p, side == "right"), side, ClassificationError,
            f"acting on the {side} changes the rung stabilizer of a") for side in ("left", "right")]
    if p == 2:
        return out
    fixes = "on the {} leg, rung 1 fixes 0 but not every rung does, at p={}"
    orbit = "on the {} leg, the rung orbit of 0 is not a Z_p orbit at p={}"
    for side, s, template in (("left", p - 1, fixes), ("left", 1, orbit), ("right", 1, fixes), ("right", p - 1, orbit)):
        out.append((two_simples(p, s, side), side, UnsupportedEndAlgebra, template.format(side, p)))
    F0 = catalogue_entry(p, label_parse("F0"))
    squares_in_h = F0._replace(mixed=exponent_table(p, 1, lambda g, m, h: g * h * h), label=None)
    squares_in_g = F0._replace(mixed=exponent_table(p, 1, lambda g, m, h: g * g * h), label=None)
    for entry, side in ((squares_in_h, "left"), (squares_in_g, "right")):
        message = f"the {side} mixed associator on * is not a character of its rung stabilizer"
        out.append((entry, side, ClassificationError, message))
    return out


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
        return tuple(tuple(locate(env, act_on(rtp, side, g, s.representative))[0] for s in simples) for g in range(p))

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
