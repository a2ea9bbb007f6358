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

- _leg_orbits: the rung orbits of each leg, checked to be Z_p orbits;
- _leg_pattern, _walk_rows and _back_rows: the classes, a row of objects at
  a time, each row gathered in C (ring.gatherer);
- _class_rung, class_at, dimension_at and class_row: an object's class,
  rung and End dimension, and a row's classes, read from the stored rows and
  the leg orbits;
- representative, simple, simples and _base_of: a class's idempotent on
  its base, one of the character projectors that _projector_coeffs stores
  and checks idempotent once per prime, bound by each envelope that has a
  fixed object;
- locate, _locate_at and _to_rep: the class of a primitive idempotent,
  checked against the stored one, and the connector to its representative.
  _locate_at and _to_rep work on object indices and coefficient dicts, for
  the witness route of bpring.fusion; locate is their public form on a
  morphism, which it first checks to be an endomorphism;
- proportionality: the scalar ratio of two coefficient dicts.

The step tables and the witness route of bpring.fusion read these lists and
methods.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

from .cyclotomic import CyclotomicScalar, monomial
from .ladders import EngineError, LadderCategory, LadderMorphism, LadderObject, group_algebra_product
from .ring import gatherer


class UnsupportedEndAlgebra(EngineError):
    pass


class KarSimple(NamedTuple):
    class_index: int
    representative: LadderMorphism  # the class's idempotent, on its base object
    char_index: int  # character index of the representative's idempotent

    def __str__(self):
        return f"{self.representative.source}#{self.char_index}"


@lru_cache(maxsize=None)
def _projector_coeffs(p: int) -> tuple[dict, ...]:
    """Rung coefficients of the p character projectors I_k of C[Z_p], each checked idempotent."""
    inv_p = Fraction(1, p)
    return _checked_idempotent(p, tuple({g: CyclotomicScalar(p, inv_p, k * g) for g in range(p)} for k in range(p)))


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


class LegOrbits(NamedTuple):
    """The rung orbits of one leg: per simple, its orbit's base and its rung from it."""

    base: tuple[int, ...]
    rung: tuple[int, ...]  # FIXED on a fixed simple


def _leg_orbits(rows: Sequence[Sequence[int]], p: int, name: Callable[[int], LadderObject]) -> LegOrbits:
    """The rung orbits of the leg whose rung-b row is rows[b].

    Simples are walked in order, so the first one met of each orbit is its
    least one and becomes the base; its p-1 rung images decide the orbit:
    all equal to the base (fixed) or p-1 new simples (free); anything else
    means the rows are not a Z_p action and raises UnsupportedEndAlgebra.
    A leg whose rows 1 to p-1 are all the identity tuple is fixed without
    the walk.  name(x) is the object an error message names for the simple x.
    """
    count, later = len(rows[0]), rows[1:]
    simples = tuple(range(count))
    if later.count(simples) == p - 1:
        return LegOrbits(simples, (FIXED,) * count)
    base, rung = [-1] * count, [0] * count
    for x in simples:
        if base[x] >= 0:
            continue
        base[x] = x
        images = [row[x] for row in later]
        if images[0] == x:
            if images.count(x) != p - 1:
                raise UnsupportedEndAlgebra(f"rung 1 fixes {name(x)} but not every rung does, at p={p}")
            rung[x] = FIXED
            continue
        for b, t in enumerate(images, 1):
            if base[t] >= 0:
                raise UnsupportedEndAlgebra(f"the rung orbit of {name(x)} is not a Z_p orbit at p={p}")
            base[t] = x
            rung[t] = b
    return LegOrbits(tuple(base), tuple(rung))


def _leg_pattern(leg: LegOrbits, p: int) -> tuple[list[int], list[int], list[int]]:
    """(pattern_first, pattern, bases): the classes of a row along this leg where the other leg is fixed.

    Per simple, its first class counted from the row's first; per class, the
    simple of its base, p classes on a fixed simple and one on a free orbit
    at its base; and the orbit bases in order.
    """
    first, pattern, bases = [], [], []
    for x, r in enumerate(leg.rung):
        if r > 0:
            first.append(first[leg.base[x]])
            continue
        first.append(len(pattern))
        bases.append(x)
        pattern += [x] * (p if r == FIXED else 1)
    return first, pattern, bases


class KarEnvelope:
    """Simples of Kar(Lad(M, N)) plus the connecting-isomorphism bookkeeping.

    It stores class lists only for the rows that make classes (see
    _walk_rows): per class, the object index of its base, and per N-fixed
    row and per base row of a free N orbit, the class of each object's first
    simple.  Every other row is read off its base row, and each object's
    rung and End dimension off its two legs, when asked for, so the storage
    grows with the classes, not with the |M|*|N| objects.

    No morphism it builds has a zero coefficient, so each is built by
    LadderMorphism._nonzero, without the constructor's copy and zero filter.
    """

    def __init__(self, lad: LadderCategory):
        self.lad = lad
        self._one = monomial(lad.p, 1, 1, 0)
        self._identity = {0: self._one}  # every free base's idempotent shares it
        self._width = len(lad.M.simples)  # object index n*|M| + m
        M, N = lad.M.simples, lad.N.simples
        self.leg_m = _leg_orbits(lad.rung_m, lad.p, lambda m: LadderObject(M[m], N[0]))
        self.leg_n = _leg_orbits(lad.rung_n, lad.p, lambda n: LadderObject(M[0], N[n]))
        # the stored projectors and their index, bound where a fixed object exists
        self._projectors = self._projector_keys = None
        if FIXED in self.leg_m.rung and FIXED in self.leg_n.rung:
            self._projectors, self._projector_keys = _projector_coeffs(lad.p), _projector_index(lad.p)
        # M's leg pattern, the classes of an N-fixed row (see _leg_pattern),
        # and the gatherer of a row of objects or classes at each class's base
        self._pattern_first, self.pattern, self.pattern_bases = _leg_pattern(self.leg_m, lad.p)
        self.pattern_get = gatherer(self.pattern)
        # per row that makes classes: the class of each object's first simple
        # (None on any other row); per class: the object index of its base;
        # per rung b > 0: the gatherer that reads a free N orbit's rung-b row
        # off its base row (None when M's leg is fixed or N has no free orbit)
        self._rows, self._bases, self._back = self._walk_rows(self._pattern_first)

    @cached_property
    def simples(self) -> list[KarSimple]:
        """simple(c) for every class c, built when first asked for."""
        return [self.simple(c) for c in range(self.simple_count)]

    # -- class construction -------------------------------------------------

    def _walk_rows(self, first: list[int]) -> tuple[list, list[int], list | None]:
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
        - the row n = rung_n[b][n0] of that orbit makes none and is not
          stored: the object (m, n) is the rung-b image of (rung_m[p-b][m],
          n0), and takes its class, with rung b.  class_at and class_row read
          it from row n0 through back[b] (see _back_rows), or as row n0
          itself when M's leg is fixed, since rung p-b then fixes every m.

        When M has one simple, which is then fixed, the row n is the one
        object n and the classes repeat N's leg pattern.  first is M's
        pattern_first (see _leg_pattern).  Each row's list is gathered in C.
        Returns the class rows, per row index (None on a row that makes no
        class), per class the object index of its base, and back (None when
        M's leg is fixed or N's has no free orbit).  A fixed base owns p
        consecutive classes, and class c of base i has character index
        c - class_at(i).  The step tables of bpring.fusion read the same
        rows, through class_row, the leg orbits and M's leg pattern
        (_pattern_first, pattern, pattern_bases and pattern_get).
        """
        p, width = self.lad.p, self._width
        n_rung = self.leg_n.rung
        if width == 1:
            # M's one simple is fixed, since a free orbit has p simples: the
            # row n is the object n, and the classes repeat N's leg pattern
            first_n, pattern_n, _ = _leg_pattern(self.leg_n, p)
            return [(c,) if r <= 0 else None for c, r in zip(first_n, n_rung)], pattern_n, None
        size = len(self.pattern)
        fixed_classes, fixed_bases = gatherer(first), self.pattern_get
        rows, bases = [None] * len(n_rung), []
        for n, r in enumerate(n_rung):
            if r > 0:
                continue  # read from its base row
            start, offset = len(bases), n * width
            if r == FIXED:
                rows[n] = fixed_classes(list(range(start, start + size)))
                bases += fixed_bases(list(range(offset, offset + width)))
            else:
                rows[n] = list(range(start, start + width))
                bases += range(offset, offset + width)
        # on a fixed M leg every rung row is the identity; otherwise the rows
        # of a free N orbit are read through back, checked here
        back = self._back_rows() if size != p * width and 0 in n_rung else None
        return rows, bases, back

    def _back_rows(self) -> list:
        """Per rung b > 0, the gatherer of rung_m[p-b], after checking that M's rung rows are a Z_p action.

        The row n = rung_n[b][n0] reads the class of (m, n) at (rung_m[p-b][m],
        n0), the object whose rung-b image is (m, n) when rung p-b inverts
        rung b.  That reads every entry of M's rows, which the leg walk does
        not, so they are checked in full: rung 1 followed by rung b is rung
        b+1 for b < p-1, and the identity for b = p-1.
        """
        lad, p = self.lad, self.lad.p
        rows = lad.rung_m
        back = [None] + [gatherer(rows[p - b]) for b in range(1, p)]
        simples = tuple(range(len(rows[0])))
        for b in range(1, p):
            then_b = back[p - 1](rows[b])  # rung 1 followed by rung b
            want = tuple(rows[b + 1]) if b + 1 < p else simples
            if then_b != want:
                m = next(m for m in simples if then_b[m] != want[m])
                obj = LadderObject(lad.M.simples[m], lad.N.simples[0])
                raise UnsupportedEndAlgebra(f"the rung orbit of {obj} is not a Z_p orbit at p={p}")
        return back

    # -- classes --------------------------------------------------------------

    @property
    def simple_count(self) -> int:
        """Number of classes of simples."""
        return len(self._bases)

    def simple(self, c: int) -> KarSimple:
        """The canonical simple of class c, built on each call."""
        rep = self.representative(c)
        return KarSimple(c, rep, c - self.class_at(self._bases[c]))

    def representative(self, c: int) -> LadderMorphism:
        """The representative of class c: the class's idempotent, on its base object."""
        if not 0 <= c < len(self._bases):
            raise IndexError(f"class {c} out of range for {len(self._bases)} simples")
        i, coeffs = self._base_of(c)
        obj = self.lad.object_at(i)
        return LadderMorphism._nonzero(obj, obj, coeffs)

    def _base_of(self, c: int) -> tuple[int, dict]:
        """(object index, idempotent coefficients) of the representative of class c, with no morphism built."""
        i = self._bases[c]
        first, rung = self._class_rung(i)
        return i, self._base_coeffs(rung, c - first)

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
        orbit the rung is 0 and the class is stored.  On its row n =
        rung_n[b][n0] the object (m, n) is the rung-b image of
        (rung_m[p-b][m], n0), or of (m, n0) on a fixed M leg, and takes its
        class, with rung b.
        """
        n, m = divmod(i, self._width)
        b = self.leg_n.rung[n]
        if b == FIXED:
            return self._rows[n][m], self.leg_m.rung[m]
        if b == 0:
            return self._rows[n][m], 0
        if self._back is not None:
            m = self.lad.rung_m[self.lad.p - b][m]
        return self._rows[self.leg_n.base[n]][m], b

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
        b = self.leg_n.rung[n]
        if b <= 0:
            return self._rows[n]
        row = self._rows[self.leg_n.base[n]]
        return row if self._back is None else self._back[b](row)

    def end_dimensions(self) -> dict[int, int]:
        """End dimension -> number of objects with it: the fixed M simples times the fixed N simples have p."""
        fixed = self.leg_m.rung.count(FIXED) * self.leg_n.rung.count(FIXED)
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
        rung from the base of c, and e the coefficient dict of c's
        representative, as _base_of gives it: a fixed object is its class's
        base, and every free object's idempotent is the envelope's one
        identity dict.  On a fixed object the character index k is looked up
        from the fields of the rung-1 coefficient in the index of the stored
        projectors (_projector_index, bound at construction); coeffs must
        then equal the stored I_k on all its coefficients.  Raises
        UnsupportedEndAlgebra, naming the object, otherwise.
        """
        first, rung = self._class_rung(i)
        k = 0
        if rung == FIXED:
            x = coeffs.get(1)
            k = None if x is None else self._projector_keys.get((x.num, x.den, x.k))
        e = None if k is None else self._base_coeffs(rung, k)
        if e is None or coeffs != e:
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
