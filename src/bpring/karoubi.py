"""Idempotent completion of a ladder category.

Kar objects are pairs (A, e) with e an idempotent endo-ladder of A; simples of
the completion are primitive such pairs up to isomorphism.  Bimodules are
kept in the gauge with trivial pure associators (see bpring.bimodules), so
stacking rungs g and h gives rung g+h with coefficient 1.  End algebras are
therefore the group algebras C[S] of the rung stabilizer S <= Z_p, which are
commutative, and the primitive idempotents are the character projectors

    I_k = (1/|S|) sum_g zeta^(k g) . (rung g),   k indexing characters of S.

The simples follow from the orbits of the rung action on objects, with no
search.  Since p is prime, an orbit is either one fixed object, End = C[Z_p],
whose p character projectors are p pairwise non-isomorphic simples, or a free
orbit of p objects with End = C, which is one simple: the basic rung-b ladder
from the base to its rung-b image is invertible, its inverse being the rung -b
ladder.

The envelope makes one walk over the object indices in canonical order, on
the index arrays of LadderCategory.  The first object met of each orbit is its
base; its p-1 rung images decide the orbit: all equal to the base (fixed) or
p-1 new objects (free).  Anything else means the rung action is not a Z_p
action, and UnsupportedEndAlgebra is raised.  The walk records classes only,
as three integer lists: per object index, the class of its first simple and
its rung from the base; per class, the object index of its base.  A fixed
base owns p consecutive classes, and class c of base i has character index
c - class_at(i).  The walk builds no LadderObject, morphism or simple; the
object is built only for an error message.

Everything else is built when asked for, on class and object indices:
representative(c), the base of class c with its idempotent (the stored
character projector on a fixed base, the identity on a free one, sharing the
envelope's one scalar); simple(c), which adds the class and character index;
the list simples of all of them; and the connectors to the representative,
which are the basic rung ladders.  The p character projectors of every fixed
object share the coefficient dicts cached per prime, not copies of them:
nothing mutates a morphism's coefficients.  None of these morphisms can have
a zero coefficient, so they are built by LadderMorphism._nonzero, without
the constructor's copy and zero filter.

locate(kobj) checks that the idempotent of kobj is a stored primitive and
returns its class index and the connector to the class representative; it
reads the object index once, builds no simple, and builds only that one
connector.  connectors(obj, k) builds the pair, the from-representative
ladder too.  Callers that want the simple itself call simple(c) on that
class.  The table path reads only the integer lists, and builds a simple
only to hand a full-stabilizer orbit to the witness associator, which works
on class indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .cyclotomic import CyclotomicScalar, phase_exponent, root_of_unity
from .ladders import EngineError, LadderCategory, LadderMorphism, LadderObject


class UnsupportedEndAlgebra(EngineError):
    pass


@dataclass(frozen=True)
class KarObject:
    obj: LadderObject
    idem: LadderMorphism


@dataclass(frozen=True)
class KarSimple:
    class_index: int
    representative: KarObject
    char_index: int  # character index of the representative's idempotent

    def __str__(self):
        return f"{self.representative.obj}#{self.char_index}"


@lru_cache(maxsize=None)
def _projector_coeffs(p: int) -> tuple[dict, ...]:
    """Rung coefficients of the p character projectors I_k of C[Z_p]."""
    inv_p = Fraction(1, p)
    return tuple({g: root_of_unity(p, k * g).scale(inv_p) for g in range(p)} for k in range(p))


def proportionality(f: LadderMorphism, g: LadderMorphism) -> CyclotomicScalar | None:
    """The scalar c with f == c*g, if one exists (g nonzero).

    c is read off one rung, with one inversion, and then checked on every rung.
    """
    if g.is_zero():
        return None
    if f.is_zero():
        return CyclotomicScalar.zero(next(iter(g.coeffs.values())).p)
    if f.coeffs.keys() != g.coeffs.keys():
        return None
    b, gc = next(iter(g.coeffs.items()))
    ratio = f.coeffs[b] * gc.inv()
    if any(f.coeffs[b] != gc * ratio for b, gc in g.coeffs.items()):
        return None
    return ratio


_FIXED = -1  # the rung from the base recorded for a fixed object


class KarEnvelope:
    """Simples of Kar(Lad(M, N)) plus the connecting-isomorphism bookkeeping."""

    def __init__(self, lad: LadderCategory):
        self.lad = lad
        self._one = CyclotomicScalar.one(lad.p)
        # per object index: the class of its first simple, and its rung from the base
        self._class = [-1] * lad.object_count
        self._rung = [0] * lad.object_count
        self._bases: list[int] = []  # per class: the object index of its base
        self._walk()

    @cached_property
    def simples(self) -> list[KarSimple]:
        """simple(c) for every class c, built when first asked for."""
        return [self.simple(c) for c in range(self.simple_count)]

    # -- class construction -------------------------------------------------

    def _walk(self):
        """One class per character of a fixed object, one per free orbit.

        Objects are walked in canonical order, so the first member met of each
        rung orbit is its least one and becomes the base.  A later member
        obj, the rung-b image of the base, connects by the basic ladders
        u: obj -> base of rung -b and v: base -> obj of rung b; u followed by
        v is rung 0, the identity of obj, and v followed by u the identity of
        base.
        """
        lad, p = self.lad, self.lad.p
        rung_m, rung_n = lad.rung_m, lad.rung_n
        width = len(lad.M.simples)
        cls_of, rung_of, bases = self._class, self._rung, self._bases
        for i in range(lad.object_count):
            if cls_of[i] >= 0:
                continue
            first = cls_of[i] = len(bases)
            n, m = divmod(i, width)
            images = [rung_n[b][n] * width + rung_m[b][m] for b in range(1, p)]
            if images[0] == i:
                if images.count(i) != p - 1:
                    raise UnsupportedEndAlgebra(
                        f"rung 1 fixes {lad.object_at(i)} but not every rung does, at p={p}"
                    )
                rung_of[i] = _FIXED
                bases.extend([i] * p)
                continue
            for b, t in enumerate(images, 1):
                if cls_of[t] >= 0:
                    raise UnsupportedEndAlgebra(
                        f"the rung orbit of {lad.object_at(i)} is not a Z_p orbit at p={p}"
                    )
                cls_of[t] = first
                rung_of[t] = b
            bases.append(i)

    # -- classes --------------------------------------------------------------

    @property
    def simple_count(self) -> int:
        """Number of classes of simples."""
        return len(self._bases)

    def base_at(self, c: int) -> int:
        """Object index of the base of class c."""
        return self._bases[c]

    def simple(self, c: int) -> KarSimple:
        """The canonical simple of class c, built on each call."""
        rep = self.representative(c)
        return KarSimple(c, rep, c - self._class[self._bases[c]])

    def representative(self, c: int) -> KarObject:
        """The representative of class c: its base with the class's idempotent."""
        if not 0 <= c < len(self._bases):
            raise IndexError(f"class {c} out of range for {len(self._bases)} simples")
        i = self._bases[c]
        obj = self.lad.object_at(i)
        return KarObject(obj, self._base_idempotent(obj, i, c - self._class[i]))

    def _base_idempotent(self, obj: LadderObject, i: int, k: int) -> LadderMorphism:
        """The primitive idempotent of character k on obj, whose object_index is i."""
        return LadderMorphism._nonzero(obj, obj, self._base_coeffs(i, k))

    def _base_coeffs(self, i: int, k: int) -> dict:
        """Rung coefficients of the primitive idempotent of character k on object index i.

        The stored projector I_k on a fixed object, the identity on a free one.
        """
        if self._rung[i] == _FIXED:
            return _projector_coeffs(self.lad.p)[k]
        return {0: self._one}

    # -- queries --------------------------------------------------------------

    def dimension_at(self, i: int) -> int:
        """End dimension of the object with object_index i."""
        return self.lad.p if self._rung[i] == _FIXED else 1

    def class_at(self, i: int) -> int:
        """Class of the first simple of the object with object_index i."""
        return self._class[i]

    def end_dimensions(self) -> dict[int, int]:
        """End dimension -> number of objects with it."""
        fixed = self._rung.count(_FIXED)
        counts = {self.lad.p: fixed, 1: len(self._rung) - fixed}
        return {d: c for d, c in counts.items() if c}

    def _primitive_index(self, obj: LadderObject, i: int, idem: LadderMorphism) -> int:
        """Character index k of idem among the primitives of obj, whose object_index is i.

        On a fixed object, I_k has rung-1 over rung-0 coefficient zeta^k;
        idem must then equal the stored I_k, compared on its coefficients, so
        that no morphism is built for the check.
        """
        k = 0
        if self._rung[i] == _FIXED:
            c0, c1 = idem.coeffs.get(0), idem.coeffs.get(1)
            k = None if c0 is None or c1 is None else phase_exponent(c1 * c0.inv())
        if k is None or not idem.source == idem.target == obj or idem.coeffs != self._base_coeffs(i, k):
            raise UnsupportedEndAlgebra(f"idempotent on {obj} is not a stored primitive")
        return k

    def locate(self, kobj: KarObject) -> tuple[int, LadderMorphism]:
        """The class of kobj and the connecting map to its representative.

        Reads the object index once, builds no simple and only the
        to-representative connector.
        """
        obj = kobj.obj
        i = self.lad.object_index(obj)
        k = self._primitive_index(obj, i, kobj.idem)
        return self._class[i] + k, self._to_rep(obj, i, k)

    def connectors(self, obj: LadderObject, char_index: int):
        """(to_rep, from_rep): the isomorphisms between (obj, I_k) and its class representative."""
        i = self.lad.object_index(obj)
        if not 0 <= char_index < self.dimension_at(i):
            raise KeyError((obj, char_index))
        to_rep = self._to_rep(obj, i, char_index)
        b = self._rung[i]
        if b in (0, _FIXED):
            return to_rep, to_rep
        return to_rep, LadderMorphism._nonzero(to_rep.target, obj, {b: self._one})

    def _to_rep(self, obj: LadderObject, i: int, k: int) -> LadderMorphism:
        """The connector from (obj, I_k), obj of object_index i and k valid, to its representative.

        On a base it is the idempotent itself; on the rung-b image of a base it
        is the basic rung -b ladder back to the base.
        """
        b = self._rung[i]
        if b in (0, _FIXED):
            return self._base_idempotent(obj, i, k)
        rep = self.lad.object_at(self._bases[self._class[i]])
        return LadderMorphism._nonzero(obj, rep, {self.lad.p - b: self._one})
