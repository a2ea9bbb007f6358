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

KarEnvelope records the classes of simples as integer lists only and builds
every other value when asked for, on class and object indices.  Each
mechanic is described where it is done:

- _leg_orbits: the rung orbits of each leg, checked to be Z_p orbits;
- _leg_pattern, _walk_rows and _back_rows: the classes, a row of objects at
  a time, each row gathered in C (ring.gatherer);
- representative, simple, simples and _base_of: a class's idempotent on
  its base, one of the character projectors that _projector_coeffs stores
  and checks idempotent once per prime;
- locate, _locate_at and _to_rep: the class of a primitive idempotent,
  checked against the stored one, and the connector to its representative;
- proportionality: the scalar ratio of two morphisms.

The step tables and the witness route of bpring.fusion read these lists and
methods.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

from .cyclotomic import CyclotomicScalar
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


def proportionality(f: LadderMorphism, g: LadderMorphism) -> CyclotomicScalar | None:
    """The scalar c with f == c*g, if one exists (g nonzero).

    c is read off one rung, with one inversion, and then checked on every
    rung by one product each.  When f and g share one coefficient dict, as
    two witness paths that each land on the same base's stored idempotent
    do, c is one, with no product or inversion; equal but distinct dicts are
    read as above.
    """
    if g.is_zero():
        return None
    if f.is_zero():
        return CyclotomicScalar.zero(next(iter(g.coeffs.values())).p)
    if f.coeffs is g.coeffs:
        return CyclotomicScalar.one(next(iter(g.coeffs.values())).p)
    if f.coeffs.keys() != g.coeffs.keys():
        return None
    b, gc = next(iter(g.coeffs.items()))
    ratio = f.coeffs[b] * gc.inv()
    if any(f.coeffs[b] != gc * ratio for b, gc in g.coeffs.items()):
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

    No morphism it builds has a zero coefficient, so each is built by
    LadderMorphism._nonzero, without the constructor's copy and zero filter.
    """

    def __init__(self, lad: LadderCategory):
        self.lad = lad
        self._one = CyclotomicScalar.one(lad.p)
        self._identity = {0: self._one}  # every free base's idempotent shares it
        M, N = lad.M.simples, lad.N.simples
        self.leg_m = _leg_orbits(lad.rung_m, lad.p, lambda m: LadderObject(M[m], N[0]))
        self.leg_n = _leg_orbits(lad.rung_n, lad.p, lambda n: LadderObject(M[0], N[n]))
        # M's leg pattern, the classes of an N-fixed row (see _leg_pattern),
        # and the gatherer of a row of objects or classes at each class's base
        first, self.pattern, self.pattern_bases = _leg_pattern(self.leg_m, lad.p)
        self.pattern_get = gatherer(self.pattern)
        # per object index: the class of its first simple, and its rung from
        # the base; per class: the object index of its base
        self._class, self._rung, self._bases = self._walk_rows(first)

    @cached_property
    def simples(self) -> list[KarSimple]:
        """simple(c) for every class c, built when first asked for."""
        return [self.simple(c) for c in range(self.simple_count)]

    # -- class construction -------------------------------------------------

    def _walk_rows(self, first: list[int]) -> tuple[list[int], list[int], list[int]]:
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
        - the row n = rung_n[b][n0] of that orbit makes none: the object
          (m, n) is the rung-b image of (rung_m[p-b][m], n0), and takes its
          class, with rung b (read through _back_rows).

        When M has one simple, which is then fixed, the row n is the one
        object n and the classes repeat N's leg pattern.  first is M's
        pattern_first (see _leg_pattern).  Each row's lists are gathered in
        C.  Returns, per object index, the class of its first simple and its
        rung from the base, and per class the object index of its base; a
        fixed base owns p consecutive classes, and class c of base i has
        character index c - class_at(i).  The step tables of bpring.fusion
        read the same rows, through the leg orbits and M's leg pattern
        (pattern, pattern_bases and pattern_get).
        """
        p, width = self.lad.p, len(self.lad.M.simples)
        m_rung, n_rung = self.leg_m.rung, self.leg_n.rung
        if width == 1:
            # M's one simple is fixed, since a free orbit has p simples: the
            # row n is the object n, and the classes repeat N's leg pattern
            first_n, pattern_n, _ = _leg_pattern(self.leg_n, p)
            return first_n, list(n_rung), pattern_n
        size = len(self.pattern)
        fixed_classes, fixed_bases = gatherer(first), self.pattern_get
        # on a fixed M leg every rung row is the identity; otherwise back[b]
        # gathers a row at rung_m[p-b], made at the first free N orbit
        m_fixed = size == p * width
        back = None
        # the per-object lists are allocated once at their full lengths; the
        # rows of a free N orbit are filled from its base row n0, whose rung-b
        # image is the row rung_n[b][n0]
        rung_n = self.lad.rung_n
        count = len(n_rung) * width
        cls, rung, bases = [0] * count, [0] * count, []
        for n, r in enumerate(n_rung):
            if r > 0:
                continue  # filled from its base row
            start, offset, end = len(bases), n * width, (n + 1) * width
            if r == FIXED:
                cls[offset:end] = fixed_classes(list(range(start, start + size)))
                rung[offset:end] = m_rung
                bases += fixed_bases(list(range(offset, end)))
                continue
            row = list(range(start, start + width))
            cls[offset:end] = row
            bases += range(offset, end)
            if back is None and not m_fixed:
                back = self._back_rows()
            for b in range(1, p):
                image = rung_n[b][n] * width
                cls[image:image + width] = row if m_fixed else back[b](row)
                rung[image:image + width] = [b] * width
        return cls, rung, bases

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
        return KarSimple(c, rep, c - self._class[self._bases[c]])

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
        return i, self._base_coeffs(i, c - self._class[i])

    def _base_coeffs(self, i: int, k: int) -> dict:
        """Rung coefficients of the primitive idempotent of character k on object index i.

        The stored projector I_k on a fixed object, the envelope's one
        identity dict on a free one; neither is edited in place.
        """
        if self._rung[i] == FIXED:
            return _projector_coeffs(self.lad.p)[k]
        return self._identity

    # -- queries --------------------------------------------------------------

    def dimension_at(self, i: int) -> int:
        """End dimension of the object with object_index i."""
        return self.lad.p if self._rung[i] == FIXED else 1

    def class_at(self, i: int) -> int:
        """Class of the first simple of the object with object_index i."""
        return self._class[i]

    def class_row(self, n: int) -> list[int]:
        """class_at of the row n: the objects with object_index n*|M| + m, for every m."""
        width = len(self.lad.M.simples)
        return self._class[n * width:(n + 1) * width]

    def end_dimensions(self) -> dict[int, int]:
        """End dimension -> number of objects with it."""
        fixed = self._rung.count(FIXED)
        counts = {self.lad.p: fixed, 1: len(self._rung) - fixed}
        return {d: c for d, c in counts.items() if c}

    def locate(self, idem: LadderMorphism) -> tuple[int, LadderMorphism]:
        """The class of the Kar object idem and the connecting map to its representative.

        Reads the object index of idem's source once and hands it to
        _locate_at, which checks the idempotent; builds no simple and only
        the to-representative connector.  On a base the connector is the
        base's idempotent, sharing the stored coefficient dict on a fixed one.
        """
        i = self.lad.object_index(idem.source)
        c = self._locate_at(i, idem)
        return c, self._to_rep(idem.source, i, c)

    def _locate_at(self, i: int, idem: LadderMorphism) -> int:
        """The class of idem, whose source has object_index i, after checking that idem is a stored primitive.

        On a fixed object the character index k is looked up from the fields
        of the rung-1 coefficient of idem in the table of the stored
        projectors (_projector_index); idem must then equal the stored I_k,
        compared on all its coefficients, so that no morphism is built for
        the check.  Raises UnsupportedEndAlgebra otherwise.
        """
        k = 0
        if self._rung[i] == FIXED:
            x = idem.coeffs.get(1)
            k = None if x is None else _projector_index(self.lad.p).get((x.num, x.den, x.k))
        if k is None or idem.source != idem.target or idem.coeffs != self._base_coeffs(i, k):
            raise UnsupportedEndAlgebra(f"idempotent on {idem.source} is not a stored primitive")
        return self._class[i] + k

    def _to_rep(self, obj: LadderObject, i: int, c: int) -> LadderMorphism:
        """The connector from obj, of object_index i, with the idempotent of class c to its representative.

        On a base it is the idempotent itself; on the rung-b image of a base it
        is the basic rung -b ladder back to the base.
        """
        b = self._rung[i]
        if b in (0, FIXED):
            return LadderMorphism._nonzero(obj, obj, self._base_coeffs(i, c - self._class[i]))
        rep = self.lad.object_at(self._bases[c])
        return LadderMorphism._nonzero(obj, rep, {self.lad.p - b: self._one})
