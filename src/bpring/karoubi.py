"""Idempotent completion of a ladder category.

A Kar object, a pair (A, e) with e an idempotent endo-ladder of A, is its
idempotent e, whose source is A; simples of the completion are primitive
idempotents up to isomorphism.  Bimodules are kept in the gauge with trivial
pure associators (see bpring.bimodules), so stacking rungs g and h gives rung
g+h with coefficient 1.  End algebras are therefore the group algebras C[S]
of the rung stabilizer S <= Z_p, which are commutative, and the primitive
idempotents are the character projectors

    I_k = (1/|S|) sum_g zeta^(k g) . (rung g),   k indexing characters of S.

The simples follow from the orbits of the rung action on objects, with no
search.  Since p is prime, an orbit is either one fixed object, End = C[Z_p],
whose p character projectors are p pairwise non-isomorphic simples, or a free
orbit of p objects with End = C, which is one simple: the basic rung-b ladder
from the base to its rung-b image is invertible, its inverse being the rung -b
ladder.

KarEnvelope records the classes of simples as integer lists only, and only
for the rows of objects that make classes: the rows whose N leg is fixed and
the base row of each free orbit of N's leg, so they hold at most one entry
per class, not one per object.  Every other value is built when asked for, on
class and object indices: another row is read off its base row, and an
object's rung and End dimension off its two legs.  Each mechanic is
described where it is done:

- leg: one record per leg, built from that entry's tables alone: the rung
  orbits, checked to be Z_p orbits, on M's leg its pattern of classes
  (ring.gatherer) and the rows that read a row of objects off its base row,
  checked in full, and each simple's e(1), checked to be a character of its
  rung stabilizer; leg raises each fault where it finds it, with one
  message per factor whatever the partner;
- _walk_rows: the classes, a row of objects at a time, each row read off
  M's leg pattern;
- _class_rung, class_at, dimension_at and class_row: an object's class,
  rung and End dimension, and a row's classes, read from the stored rows and
  the two leg records;
- simple, representative, simples and _base: a class's idempotent on its
  base, one of the character projectors that _projector_coeffs stores and
  checks idempotent once per prime, bound by each envelope that has a fixed
  object, or the envelope's one identity dict; _base reads its base's class
  and rung once, and simple builds its morphism;
- _act, _land and _to_rep: the outer actions, on object indices and
  coefficient dicts.  _act acts on any morphism, such as a connector.
  _land acts on an idempotent and re-anchors it in one step: it reads the
  landing's class and rung once and checks the acted dict against the
  stored primitive (accepted at once when it is the stored dict itself).
  _to_rep gives the connector to the class's representative.  The outer
  actions and the witness route of bpring.fusion run on these three;
- proportionality: the scalar ratio of two coefficient dicts.

The step tables, the outer actions and the witness route of bpring.fusion
read these lists, records and methods, and bpring.fusion classifies.  Each
leg record checks that the outer generator of its side keeps the fixed
simples of its leg fixed, so that every row of objects steps into a row of
its own kind, N-fixed or free, and M's leg pattern describes both.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache

from .bimodules import BimoduleData, format_simple
from .cyclotomic import CyclotomicScalar, monomial
from .ladders import ClassificationError, EngineError, LadderCategory, LadderMorphism, group_algebra_product
from .ring import gatherer


class UnsupportedEndAlgebra(EngineError):
    pass


class KarSimple(namedtuple("KarSimple", "class_index representative char_index")):
    """A simple: its class, the class's idempotent on its base object, and that idempotent's character index."""

    __slots__ = ()

    def __str__(self):
        return f"{self.representative.source}#{self.char_index}"


@lru_cache(maxsize=None)
def _projector_coeffs(p: int) -> tuple[dict, ...]:
    """Rung coefficients of the p character projectors I_k of C[Z_p], each checked idempotent."""
    return _checked_idempotent(p, tuple({g: monomial(p, 1, p, k * g % p) for g in range(p)} for k in range(p)))


def _checked_idempotent(p: int, projectors: tuple[dict, ...]) -> tuple[dict, ...]:
    """projectors, after checking that I_k I_k = I_k for every k by one group algebra product each.

    The witness route relies on it: a path that lands on a base is the
    base's idempotent e, not a composition of e with itself.
    """
    for k, coeffs in enumerate(projectors):
        if group_algebra_product(p, coeffs, coeffs) != coeffs:
            raise EngineError(f"the character projector I_{k} of C[Z_{p}] is not idempotent")
    return projectors


def proportionality(f: dict, g: dict, one: CyclotomicScalar) -> CyclotomicScalar | None:
    """The scalar c with f == c*g, if one exists, for coefficient dicts f and g (g nonzero).

    c is read off one rung, with one inversion, and then checked on every
    rung by one product each.  When f and g are one dict, as two witness
    paths that land on the same base's stored idempotent are, c is one, the
    field's 1, with no product or inversion.
    """
    if not g:
        return None
    if not f:
        return CyclotomicScalar.zero(one.p)
    if f is g:
        return one
    if f.keys() != g.keys():
        return None
    b, gc = next(iter(g.items()))
    ratio = f[b] * gc.inv()
    if any(f[b] != gc * ratio for b, gc in g.items()):
        return None
    return ratio


FIXED = -1  # the rung from the base recorded for a fixed object or leg simple


# One leg of Lad(M, N), as leg builds it from one entry's tables alone; the
# left-only fields are None on the right.
LegRecord = namedtuple("LegRecord", "rows base rung first pattern bases get back e1")


def leg(entry: BimoduleData, side: str) -> LegRecord:
    """The leg of entry in a ladder category, as its M on side "left" or its N on side "right".

    Rung b acts on M's leg by rows[b] = M.right[-b] and on N's by rows[b] =
    N.left[b].  The rung orbits come from a walk over the simples in order:
    the first one met of each orbit is its least one and becomes the base,
    and its p-1 rung images decide the orbit, all equal to the base (fixed,
    rung FIXED) or p-1 new simples (free, rung b from the base).  A leg whose
    rows 1 to p-1 are all the identity tuple is fixed without the walk.
    Anything else means the rows are not a Z_p action, and the walk raises
    UnsupportedEndAlgebra naming side, the simple and p.

    On the left only, M's leg pattern, the classes of a row whose N leg is
    fixed: per simple, its first class counted from the row's first; per
    class, the simple of its base, p classes on a fixed simple and one on a
    free orbit at its base; the orbit bases in order; and the gatherer of a
    row at each class's base.  When the leg has a free orbit, back is
    M.right: back[b] = rows[p-b] is rung -b, which inverts rung b, and a
    free N orbit's rung-b row reads its classes off its base row gathered at
    back[b] (see KarEnvelope._walk_rows), each gatherer built when read.
    That reads every entry of M's rows, which the walk does not, so they are
    checked in full, whatever the other factor: rung 1 followed by rung b is
    rung b+1 for b < p-1, and the identity for b = p-1; a failure raises the
    walk's error on the first simple where it fails.

    e1 is each simple's e(1) for acting by 1 on side, checked to be a
    character of the simple's own rung stabilizer: e(b) = b e(1) on every
    rung b of a fixed simple, read as M.mixed[1][x][b] or N.mixed[b][x][1],
    and e(0) = 0 on a free one, whose e(1) is 0.  An entry with trivial_mixed
    set has e1 all 0, read with no exponent.  The generator 1 of side, which
    moves the leg by M.left[1] or N.right[1], must keep each orbit base fixed
    or free; the scan runs only on a leg that has fixed and free simples.
    A failure of either check is a ClassificationError naming side and the
    first simple where it fails, every character checked before the scan.
    So each fault is raised here, with one message whatever the partner.
    """
    p, count = entry.p, len(entry.simples)

    def fault(x: int, text: str, error: type = UnsupportedEndAlgebra) -> EngineError:  # text names {side}, {x}, {p}
        return error(text.format(side=side, x=format_simple(entry.simples[x]), p=p))

    if side == "left":
        rows, shift = entry.right[:1] + entry.right[:0:-1], entry.left[1]
    else:
        rows, shift = entry.left, entry.right[1]
    later, simples = rows[1:], tuple(range(count))
    if later.count(simples) == p - 1:
        base, rung = simples, (FIXED,) * count
    else:
        base, rung = [-1] * count, [0] * count
        for x in simples:
            if base[x] >= 0:
                continue
            base[x] = x
            images = [row[x] for row in later]
            if images[0] == x:
                if images.count(x) != p - 1:
                    raise fault(x, "on the {side} leg, rung 1 fixes {x} but not every rung does, at p={p}")
                rung[x] = FIXED
                continue
            for b, t in enumerate(images, 1):
                if base[t] >= 0:
                    raise fault(x, "on the {side} leg, the rung orbit of {x} is not a Z_p orbit at p={p}")
                base[t] = x
                rung[t] = b
        base, rung = tuple(base), tuple(rung)
    first = pattern = bases = get = back = None
    if side == "left":
        first, pattern, bases = [], [], []
        for x, r in enumerate(rung):
            first.append(first[base[x]] if r > 0 else len(pattern))
            if r <= 0:
                bases.append(x)
                pattern += [x] * (p if r == FIXED else 1)
        get = gatherer(pattern)
        if len(pattern) != p * count:
            then = gatherer(rows[1])  # rung 1 followed by rung b, against rung b+1
            for b in range(1, p):
                got, want = then(rows[b]), tuple(rows[b + 1]) if b + 1 < p else simples
                if got != want:
                    x = next(x for x in simples if got[x] != want[x])
                    raise fault(x, "on the {side} leg, the rung orbit of {x} is not a Z_p orbit at p={p}")
            back = entry.right  # back[b] = rows[p-b]
    e1 = (0,) * count
    if not entry.trivial_mixed:
        mixed, e1 = entry.mixed, []
        for x, r in enumerate(rung):
            dim = p if r == FIXED else 1  # the order of the simple's rung stabilizer
            exps = tuple(mixed[1][x][:dim]) if side == "left" else tuple([mixed[b][x][1] for b in range(dim)])
            e1.append(exps[1] if dim > 1 else 0)
            if exps != tuple(b * e1[-1] % p for b in range(dim)):
                raise fault(x, "the {side} mixed associator on {x} is not a character of its rung stabilizer",
                            ClassificationError)
    if 0 < rung.count(FIXED) < count:
        for x in simples:
            if rung[x] <= 0 and (rung[shift[x]] == FIXED) != (rung[x] == FIXED):
                raise fault(x, "acting on the {side} changes the rung stabilizer of {x}", ClassificationError)
    return LegRecord(rows, base, rung, first, pattern, bases, get, back, e1)


class KarEnvelope:
    """Simples of Kar(Lad(M, N)) plus the connecting-isomorphism bookkeeping.

    It stores class lists only for the rows that make classes (see
    _walk_rows): per class, the object index of its base, and per N-fixed
    row and per base row of a free N orbit, the class of each object's first
    simple.  Every other row is read off its base row, and each object's
    rung and End dimension off its two legs, when asked for, so the storage
    grows with the classes, not with the |M|*|N| objects.  Everything it
    reads of one factor alone is that factor's leg record, m or n (see leg),
    built first, M's then N's, so a defective factor raises here.

    No morphism it builds has a zero coefficient, so each is built by
    LadderMorphism._nonzero, without the constructor's copy and zero filter.
    """

    def __init__(self, lad: LadderCategory):
        self.lad = lad
        self._one = monomial(lad.p, 1, 1, 0)
        self._identity = {0: self._one}  # every free base's idempotent shares it
        self._width = len(lad.M.simples)  # object index n*|M| + m
        # the legs of M and N (see leg); M's fault is raised before N's
        self.m, self.n = leg(lad.M, "left"), leg(lad.N, "right")
        # the stored projectors, bound where a fixed object exists
        self._projectors = None
        if FIXED in self.m.rung and FIXED in self.n.rung:
            self._projectors = _projector_coeffs(lad.p)
        # per row that makes classes: the class of each object's first simple
        # (None on any other row); per class: the object index of its base
        self._rows, self._bases = self._walk_rows()

    @cached_property
    def simples(self) -> list[KarSimple]:
        """simple(c) for every class c, built when first asked for."""
        return [self.simple(c) for c in range(self.simple_count)]

    # -- class construction -------------------------------------------------

    def _walk_rows(self) -> tuple[list, list[int]]:
        """One class per character of a fixed object, one per free orbit, a row at a time.

        An object is fixed exactly when both legs are; otherwise its orbit
        is free.  A later member obj of an orbit, the rung-b image of its
        base, connects by the basic ladders u: obj -> base of rung -b and v:
        base -> obj of rung b; u followed by v is rung 0, the identity of obj,
        and v followed by u the identity of base.  The rows n of object
        indices n*|M| + m are walked in order, numbering the classes as a
        walk over every object in canonical order would.  There are three
        kinds of row:

        - an N-fixed row repeats M's leg pattern: p classes on each fixed m,
          and one class on each free M orbit at its base, with the rungs of
          M's leg;
        - the base row n0 of a free N orbit makes |M| new classes of
          dimension 1, one per object, each its own base;
        - the row n, the rung-b image of n0, of that orbit makes none and is
          not stored: the object (m, n) is the rung-b image of (back[b][m],
          n0), back[b] being M's rung -b (see leg), and takes its class, with
          rung b.  class_at and class_row read it from row n0 through
          back[b], or as row n0 itself when M's leg is fixed, since rung -b
          then fixes every m.

        An N-fixed row's classes are the row's first class plus M's first,
        one addition per object, and its bases are gathered in C; a free
        base row's are two ranges.  Returns the class rows, per row index
        (None on a row that makes no class), and per class the object index
        of its base.  A fixed base owns p consecutive classes, and class c of
        base i has character index c - class_at(i).  The step tables of
        bpring.fusion read the same rows, through class_row and the two leg
        records.
        """
        width, first, fixed_bases, n_rung = self._width, self.m.first, self.m.get, self.n.rung
        rows, bases = [None] * len(n_rung), []
        for n, r in enumerate(n_rung):
            if r > 0:
                continue  # read from its base row
            start, offset = len(bases), n * width
            if r == FIXED:
                rows[n] = [start + f for f in first]
                bases += fixed_bases(list(range(offset, offset + width)))
            else:
                rows[n] = list(range(start, start + width))
                bases += range(offset, offset + width)
        return rows, bases

    # -- classes --------------------------------------------------------------

    @property
    def simple_count(self) -> int:
        """Number of classes of simples."""
        return len(self._bases)

    def simple(self, c: int) -> KarSimple:
        """The canonical simple of class c, built on each call.

        Its representative is the class's idempotent on its base object, and
        its character index c minus the base's first class (see _base).  A c
        that is not an int, a bool included, is a ValueError, and an int out
        of range an IndexError.
        """
        if type(c) is not int:
            raise ValueError(f"class must be an integer, got {c!r}")
        if not 0 <= c < len(self._bases):
            raise IndexError(f"class {c} out of range for {len(self._bases)} simples")
        i, k, e = self._base(c)
        obj = self.lad.object_at(i)
        return KarSimple(c, LadderMorphism._nonzero(obj, obj, e), k)

    def representative(self, c: int) -> LadderMorphism:
        """The representative of class c: the class's idempotent, on its base object."""
        return self.simple(c).representative

    def _base(self, c: int) -> tuple[int, int, dict]:
        """(i, k, e) of class c: its base's object index, its character index, and its idempotent's coefficient dict.

        The base's (class, rung) is read once.  e is the stored projector I_k
        on a fixed base and the envelope's one identity dict on a free one;
        neither is edited in place.
        """
        i = self._bases[c]
        first, rung = self._class_rung(i)
        k = c - first
        return i, k, self._projectors[k] if rung == FIXED else self._identity

    # -- queries --------------------------------------------------------------

    def _class_rung(self, i: int) -> tuple[int, int]:
        """(class, rung) of the object of index i: the class of its first simple, and its rung from the base.

        The rung is FIXED on a fixed object, and both are read from the legs.
        On an N-fixed row the orbits are those of M's leg, so the rung is M's
        leg rung, and the class is stored.  On the base row n0 of a free N
        orbit the rung is 0 and the class is stored.  On its row n, the
        rung-b image of n0, the object (m, n) is the rung-b image of (M's
        back[b][m], n0), or of (m, n0) on a fixed M leg, and takes its class,
        with rung b.  _land reads the same, inline.
        """
        n, m = divmod(i, self._width)
        b = self.n.rung[n]
        if b == FIXED:
            return self._rows[n][m], self.m.rung[m]
        if b == 0:
            return self._rows[n][m], 0
        if self.m.back is not None:
            m = self.m.back[b][m]
        return self._rows[self.n.base[n]][m], b

    def dimension_at(self, i: int) -> int:
        """End dimension of the object of index i."""
        return self.lad.p if self._class_rung(i)[1] == FIXED else 1

    def class_at(self, i: int) -> int:
        """Class of the first simple of the object of index i."""
        return self._class_rung(i)[0]

    def class_row(self, n: int) -> Sequence[int]:
        """class_at of the row n: the objects of index n*|M| + m, for every m.

        A stored row is returned as stored, not copied; any other row is
        gathered from its base row (see _walk_rows).
        """
        b = self.n.rung[n]
        if b <= 0:
            return self._rows[n]
        row = self._rows[self.n.base[n]]
        back = self.m.back
        return row if back is None else gatherer(back[b])(row)

    def end_dimensions(self) -> dict[int, int]:
        """End dimension -> number of objects with it: the fixed M simples times the fixed N simples have p."""
        fixed = self.m.rung.count(FIXED) * self.n.rung.count(FIXED)
        counts = {self.lad.p: fixed, 1: self.lad.object_count - fixed}
        return {d: c for d, c in counts.items() if c}

    # -- actions --------------------------------------------------------------

    def _act(self, side: str, g: int, s: int, t: int, coeffs: dict) -> tuple[int, int, dict]:
        """(s', t', coeffs'): the morphism with coeffs from object index s to t, acted on by g (in 0..p-1) on side.

        Acting on the left moves the M leg, sending n*|M| + m to n*|M| +
        M.left[g][m], and multiplies rung b by zeta^M.mixed[g][m][b], m the M
        leg of t; acting on the right moves the N leg, sending n*|M| + m to
        N.right[g][n]*|M| + m, and multiplies rung b by zeta^N.mixed[b][n][g],
        n the N leg of s.  t is shifted only when t != s.  When that side's
        entry has trivial_mixed set (an all-zero mixed table, as on every
        catalogue entry but F_q with q != 0), every rotation is by zero and
        coeffs itself is returned, so the result shares the input's dict.
        Each rotation keeps a monomial nonzero, so a morphism on coeffs needs
        no zero filter (LadderMorphism._nonzero).  No object or morphism is
        built, and the whole action is this one call.
        """
        width = self._width
        if side == "left":
            M = self.lad.M
            shift, m = M.left[g], t % width
            t2 = t - m + shift[m]
            s2 = t2 if s == t else s - s % width + shift[s % width]
            if M.trivial_mixed:
                return s2, t2, coeffs
            row = M.mixed[g][m]
            return s2, t2, {b: c.rotate(row[b]) for b, c in coeffs.items()}
        N = self.lad.N
        shift, (n, m) = N.right[g], divmod(s, width)
        s2 = shift[n] * width + m
        t2 = s2 if t == s else shift[t // width] * width + t % width
        if N.trivial_mixed:
            return s2, t2, coeffs
        mixed = N.mixed
        return s2, t2, {b: c.rotate(mixed[b][n][g]) for b, c in coeffs.items()}

    def _land(self, side: str, g: int, i: int, coeffs: dict) -> tuple[int, int, int, dict]:
        """(j, c, rung, e): the idempotent with coeffs on the object of index i, acted on by g on side and re-anchored.

        The action is _act's on an endomorphism: the object moves to index j
        and each rung rotates, unless that side's mixed table is trivial,
        which hands coeffs itself through.  c is the acted idempotent's
        class and rung j's rung from the base of c, both read once as
        _class_rung reads them, and e the coefficient dict of c's
        representative, as simple gives it: a fixed object is its class's
        base, and every free object's idempotent is the envelope's one
        identity dict.  On a fixed object the character k is read from the
        acted rung-1 monomial, whose exponent is k, or at p = 2 whose sign
        is (-1)^k, and e is the stored I_k.  The acted dict is accepted when
        it is e itself and otherwise when it equals e on every rung; if
        neither holds, UnsupportedEndAlgebra names the object j.  The whole
        landing is this one call, with no morphism built.
        """
        width = self._width
        n, m = divmod(i, width)
        if side == "left":
            M = self.lad.M
            if not M.trivial_mixed:
                row = M.mixed[g][m]
                coeffs = {b: c.rotate(row[b]) for b, c in coeffs.items()}
            m = M.left[g][m]
        else:
            N = self.lad.N
            if not N.trivial_mixed:
                mixed = N.mixed
                coeffs = {b: c.rotate(mixed[b][n][g]) for b, c in coeffs.items()}
            n = N.right[g][n]
        b = self.n.rung[n]
        if b == FIXED:
            first, rung = self._rows[n][m], self.m.rung[m]
        elif b == 0:
            first, rung = self._rows[n][m], 0
        else:
            back = self.m.back
            first, rung = self._rows[self.n.base[n]][m if back is None else back[b][m]], b
        k, e = 0, self._identity
        if rung == FIXED:  # without a rung 1, k = 0 is read, and I_0 has one
            x = coeffs.get(1, self._one)
            k = x.k if x.p > 2 else int(x.num < 0)
            e = self._projectors[k]
        j = n * width + m
        if coeffs is not e and coeffs != e:
            raise UnsupportedEndAlgebra(f"idempotent on {self.lad.object_at(j)} is not a stored primitive")
        return j, first + k, rung, e

    def _to_rep(self, i: int, c: int, rung: int, e: dict) -> tuple[int, dict]:
        """(target, coeffs): the connector from the object of index i, with class c's idempotent, to its representative.

        rung and e are as _land returns them for i, and target is the
        representative's object index.  On a base it is the idempotent e
        itself; on the rung-b image of a base it is the basic rung -b ladder
        back to the base.
        """
        if rung in (0, FIXED):
            return i, e
        return self._bases[c], {self.lad.p - rung: self._one}
