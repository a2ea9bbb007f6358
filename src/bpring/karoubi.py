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
  rung stabilizer; a fault is stored as data, and the envelope raises a
  rung fault, the step tables of bpring.fusion a step fault;
- _walk_rows: the classes, a row of objects at a time, each row read off
  M's leg pattern;
- _class_rung, class_at, dimension_at and class_row: an object's class,
  rung and End dimension, and a row's classes, read from the stored rows and
  the two leg records;
- simple, representative and simples: a class's idempotent on its base,
  one of the character projectors that _projector_coeffs stores and checks
  idempotent once per prime, bound by each envelope that has a fixed
  object; simple reads its base's class and rung once;
- locate, _locate_at and _to_rep: the class of a primitive idempotent,
  checked against the stored one (accepted at once when it is the stored
  dict itself), and the connector to its representative.
  _locate_at and _to_rep work on object indices and coefficient dicts, for
  the witness route of bpring.fusion; locate is their public form on a
  morphism, which it first checks to be an endomorphism;
- proportionality: the scalar ratio of two coefficient dicts.

The step tables and the witness route of bpring.fusion read these lists,
records and methods.  Each leg record checks that the outer generator of
its side keeps the fixed simples of its leg fixed, so that every row of
objects steps into a row of its own kind, N-fixed or free, and M's leg
pattern describes both.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache

from .bimodules import BimoduleData
from .cyclotomic import CyclotomicScalar, monomial
from .ladders import EngineError, LadderCategory, LadderMorphism, group_algebra_product
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


@lru_cache(maxsize=None)
def _projector_index(p: int) -> dict:
    """The fields (num, den, k) of I_k[1] -> k, for the stored projectors of _projector_coeffs(p).

    The key is a tuple of ints, hashed in C.  At p = 2 the two keys differ
    in the sign of num, since zeta = -1 is folded into it.
    """
    return {(x.num, x.den, x.k): k for k, x in enumerate(coeffs[1] for coeffs in _projector_coeffs(p))}


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

# the message templates of a rung fault, filled with the object and p
_NOT_FIXED = "rung 1 fixes {} but not every rung does, at p={}"
_NOT_AN_ORBIT = "the rung orbit of {} is not a Z_p orbit at p={}"


# One leg of Lad(M, N), as leg builds it from one entry's tables alone; the
# left-only fields and every field past a rung fault are None.
LegRecord = namedtuple(
    "LegRecord", "rows base rung first pattern bases get back e1 rung_fault step_fault", defaults=(None,) * 10
)


def leg(entry: BimoduleData, side: str) -> LegRecord:
    """The leg of entry in a ladder category, as its M on side "left" or its N on side "right".

    Rung b acts on M's leg by rows[b] = M.right[-b] and on N's by rows[b] =
    N.left[b].  The rung orbits come from a walk over the simples in order:
    the first one met of each orbit is its least one and becomes the base,
    and its p-1 rung images decide the orbit, all equal to the base (fixed,
    rung FIXED) or p-1 new simples (free, rung b from the base).  A leg whose
    rows 1 to p-1 are all the identity tuple is fixed without the walk.
    Anything else means the rows are not a Z_p action: the rung fault
    (message template, simple), which KarEnvelope raises naming the pair's
    object on that simple, and no other field is filled.

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
    rung b+1 for b < p-1, and the identity for b = p-1; a failure is the
    rung fault of the first simple where it fails.

    e1 is each simple's e(1) for acting by 1 on side, checked to be a
    character of the simple's own rung stabilizer: e(b) = b e(1) on every
    rung b of a fixed simple, read as M.mixed[1][x][b] or N.mixed[b][x][1],
    and e(0) = 0 on a free one, whose e(1) is 0.  An entry with trivial_mixed
    set has e1 all 0, read with no exponent.  The generator 1 of side, which
    moves the leg by M.left[1] or N.right[1], must keep each orbit base fixed
    or free; the scan runs only on a leg that has fixed and free simples.
    The step fault is the first failure of the two by simple, ("character",
    x) before ("moves", x) on one simple, which the step tables of
    bpring.fusion raise.
    """
    p, count = entry.p, len(entry.simples)
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
                    return LegRecord(rows, rung_fault=(_NOT_FIXED, x))
                rung[x] = FIXED
                continue
            for b, t in enumerate(images, 1):
                if base[t] >= 0:
                    return LegRecord(rows, rung_fault=(_NOT_AN_ORBIT, x))
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
                    return LegRecord(rows, rung_fault=(_NOT_AN_ORBIT, x))
            back = entry.right  # back[b] = rows[p-b]
    fault = None
    e1 = (0,) * count
    if not entry.trivial_mixed:
        mixed, e1 = entry.mixed, []
        for x, r in enumerate(rung):
            dim = p if r == FIXED else 1  # the order of the simple's rung stabilizer
            exps = tuple(mixed[1][x][:dim]) if side == "left" else tuple([mixed[b][x][1] for b in range(dim)])
            e1.append(exps[1] if dim > 1 else 0)
            if exps != tuple(b * e1[-1] % p for b in range(dim)):
                fault = ("character", x)
                break
    if 0 < rung.count(FIXED) < count:
        moved = next((x for x in simples if rung[x] <= 0 and (rung[shift[x]] == FIXED) != (rung[x] == FIXED)), None)
        if moved is not None and (fault is None or moved < fault[1]):
            fault = ("moves", moved)
    return LegRecord(rows, base, rung, first, pattern, bases, get, back, e1, None, fault)


class KarEnvelope:
    """Simples of Kar(Lad(M, N)) plus the connecting-isomorphism bookkeeping.

    It stores class lists only for the rows that make classes (see
    _walk_rows): per class, the object index of its base, and per N-fixed
    row and per base row of a free N orbit, the class of each object's first
    simple.  Every other row is read off its base row, and each object's
    rung and End dimension off its two legs, when asked for, so the storage
    grows with the classes, not with the |M|*|N| objects.  Everything it
    reads of one factor alone is that factor's leg record, m or n (see leg).

    No morphism it builds has a zero coefficient, so each is built by
    LadderMorphism._nonzero, without the constructor's copy and zero filter.
    """

    def __init__(self, lad: LadderCategory):
        self.lad = lad
        self._one = monomial(lad.p, 1, 1, 0)
        self._identity = {0: self._one}  # every free base's idempotent shares it
        self._width = len(lad.M.simples)  # object index n*|M| + m
        # the legs of M and N (see leg); M's rung fault is raised before N's
        self.m, self.n = leg(lad.M, "left"), leg(lad.N, "right")
        fault = self.m.rung_fault or self.n.rung_fault
        if fault:
            template, x = fault
            i = x if self.m.rung_fault else x * self._width  # x with the other leg's first simple
            raise UnsupportedEndAlgebra(template.format(lad.object_at(i), lad.p))
        # the stored projectors and their index, bound where a fixed object exists
        self._projectors = self._projector_keys = None
        if FIXED in self.m.rung and FIXED in self.n.rung:
            self._projectors, self._projector_keys = _projector_coeffs(lad.p), _projector_index(lad.p)
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
        its character index c minus the base's first class; the base's
        (class, rung) is read once for both.
        """
        if not 0 <= c < len(self._bases):
            raise IndexError(f"class {c} out of range for {len(self._bases)} simples")
        i = self._bases[c]
        first, rung = self._class_rung(i)
        obj = self.lad.object_at(i)
        return KarSimple(c, LadderMorphism._nonzero(obj, obj, self._base_coeffs(rung, c - first)), c - first)

    def representative(self, c: int) -> LadderMorphism:
        """The representative of class c: the class's idempotent, on its base object."""
        return self.simple(c).representative

    def _base_coeffs(self, rung: int, k: int) -> dict:
        """Rung coefficients of the primitive idempotent of character k on an object with this rung from its base.

        The stored projector I_k on a fixed object (rung FIXED), the
        envelope's one identity dict on a free one; neither is edited in
        place.
        """
        if rung == FIXED:
            return self._projectors[k]
        return self._identity

    # -- queries --------------------------------------------------------------

    def _class_rung(self, i: int) -> tuple[int, int]:
        """(class, rung) of the object with object_index i: the class of its first simple, and its rung from the base.

        The rung is FIXED on a fixed object, and both are read from the legs.
        On an N-fixed row the orbits are those of M's leg, so the rung is M's
        leg rung, and the class is stored.  On the base row n0 of a free N
        orbit the rung is 0 and the class is stored.  On its row n, the
        rung-b image of n0, the object (m, n) is the rung-b image of (M's
        back[b][m], n0), or of (m, n0) on a fixed M leg, and takes its class,
        with rung b.
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
        """End dimension of the object with object_index i."""
        return self.lad.p if self._class_rung(i)[1] == FIXED else 1

    def class_at(self, i: int) -> int:
        """Class of the first simple of the object with object_index i."""
        return self._class_rung(i)[0]

    def class_row(self, n: int) -> Sequence[int]:
        """class_at of the row n: the objects with object_index n*|M| + m, for every m.

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

    def locate(self, idem: LadderMorphism) -> tuple[int, LadderMorphism]:
        """The class of the Kar object idem and the connecting map to its representative.

        Reads the object index of idem's source once, checks that idem is an
        endomorphism and hands its coefficient dict to _locate_at, which
        checks it against the stored primitive; both faults raise one
        UnsupportedEndAlgebra message.  Builds no simple and only the
        to-representative connector.  On a base the connector is the base's
        idempotent, sharing the stored coefficient dict on a fixed one.
        """
        i = self.lad.object_index(idem.source)
        if idem.source != idem.target:
            raise UnsupportedEndAlgebra(f"idempotent on {idem.source} is not a stored primitive")
        c, rung, e = self._locate_at(i, idem.coeffs)
        t, coeffs = self._to_rep(i, c, rung, e)
        return c, LadderMorphism._nonzero(idem.source, idem.source if t == i else self.lad.object_at(t), coeffs)

    def _locate_at(self, i: int, coeffs: dict) -> tuple[int, int, dict]:
        """(c, rung, e) for the endomorphism with coeffs of the object of index i, checked to be a stored primitive.

        The caller guarantees the endomorphism: locate checks it, and the
        witness route of bpring.fusion acts on an idempotent, whose acted
        coefficients it hands over with the acted object's index, so no
        morphism is built for the check.  c is the class, rung the object's
        rung from the base of c, both read once, and e the coefficient dict
        of c's representative, as simple gives it: a fixed object is its
        class's base, and every free object's idempotent is the envelope's
        one identity dict.  On a fixed object the character index k is looked
        up from the fields of the rung-1 coefficient in the index of the
        stored projectors (_projector_index, bound at construction).  coeffs
        is accepted when it is e itself, as an action by a trivial mixed
        table hands the stored dict through, and otherwise when it equals e
        on every rung.  Raises UnsupportedEndAlgebra, naming the object, if
        neither holds.
        """
        first, rung = self._class_rung(i)
        k = 0
        if rung == FIXED:
            x = coeffs.get(1)
            k = None if x is None else self._projector_keys.get((x.num, x.den, x.k))
        e = None if k is None else self._base_coeffs(rung, k)
        if e is None or (coeffs is not e and coeffs != e):
            raise UnsupportedEndAlgebra(f"idempotent on {self.lad.object_at(i)} is not a stored primitive")
        return first + k, rung, e

    def _to_rep(self, i: int, c: int, rung: int, e: dict) -> tuple[int, dict]:
        """(target, coeffs): the connector from the object of index i, with class c's idempotent, to its representative.

        rung and e are as _locate_at returns them for i, and target is the
        representative's object index.  On a base it is the idempotent e
        itself; on the rung-b image of a base it is the basic rung -b ladder
        back to the base.
        """
        if rung in (0, FIXED):
            return i, e
        return self._bases[c], {self.lad.p - rung: self._one}
