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
action, and UnsupportedEndAlgebra is raised.  The walk records, per object
index, the class of its simple and its rung from the base, and builds a
LadderObject only for each base; the identity of a free base shares the
envelope's one scalar.  The list of all objects is built when first asked
for.  The connectors to the canonical representative (least object of the
orbit, least character index) are the basic rung ladders, built when asked
for, as are the primitive idempotents of an object that is not a base.
"""

from __future__ import annotations

from collections.abc import Mapping
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


def _primitives(lad: LadderCategory, obj: LadderObject, fixed: bool) -> list[LadderMorphism]:
    if not fixed:
        return [lad.identity(obj)]
    return [LadderMorphism(obj, obj, coeffs) for coeffs in _projector_coeffs(lad.p)]


def proportionality(f: LadderMorphism, g: LadderMorphism) -> CyclotomicScalar | None:
    """The scalar c with f == c*g, if one exists (g nonzero)."""
    if g.is_zero():
        return None
    if f.is_zero():
        return CyclotomicScalar.zero(next(iter(g.coeffs.values())).p)
    if set(f.coeffs) != set(g.coeffs):
        return None
    ratio = None
    for b, gc in g.coeffs.items():
        r = f.coeffs[b] * gc.inv()
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio


_FIXED = -1  # the rung from the base recorded for a fixed object


class _Primitives(Mapping):
    """obj -> primitive idempotents of End(obj), built when first asked for.

    It holds the envelope's rung list, not the envelope, so that an envelope
    is freed by reference counting as soon as its product is dropped.
    """

    def __init__(self, lad: LadderCategory, rung: list[int]):
        self._lad = lad
        self._rung = rung
        self._built: dict[LadderObject, list[LadderMorphism]] = {}

    def __getitem__(self, obj: LadderObject) -> list[LadderMorphism]:
        prims = self._built.get(obj)
        if prims is None:
            fixed = self._rung[self._lad.object_index(obj)] == _FIXED
            prims = self._built[obj] = _primitives(self._lad, obj, fixed)
        return prims

    def __iter__(self):
        return iter(self._lad.objects())

    def __len__(self) -> int:
        return self._lad.object_count


class KarEnvelope:
    """Simples of Kar(Lad(M, N)) plus the connecting-isomorphism bookkeeping."""

    def __init__(self, lad: LadderCategory):
        self.lad = lad
        self.simples: list[KarSimple] = []
        self._one = CyclotomicScalar.one(lad.p)
        # per object index: the class of its first simple, and its rung from the base
        self._class = [-1] * lad.object_count
        self._rung = [0] * lad.object_count
        self.prims = _Primitives(lad, self._rung)
        self._walk()

    @cached_property
    def objects(self) -> list[LadderObject]:
        """Every ladder object in canonical order, built when first asked for."""
        return self.lad.objects()

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
        m_simples, n_simples = lad.m_simples, lad.n_simples
        width = len(m_simples)
        cls_of, rung_of, simples = self._class, self._rung, self.simples
        for i in range(lad.object_count):
            if cls_of[i] >= 0:
                continue
            first = len(simples)
            cls_of[i] = first
            n, m = divmod(i, width)
            obj = LadderObject(m_simples[m], n_simples[n])
            images = [rung_n[b][n] * width + rung_m[b][m] for b in range(1, p)]
            if images[0] == i:
                if images.count(i) != p - 1:
                    raise UnsupportedEndAlgebra(f"rung 1 fixes {obj} but not every rung does, at p={p}")
                rung_of[i] = _FIXED
                for k, e in enumerate(self.prims[obj]):
                    simples.append(KarSimple(first + k, KarObject(obj, e), k))
                continue
            simples.append(KarSimple(first, KarObject(obj, LadderMorphism(obj, obj, {0: self._one})), 0))
            for b, t in enumerate(images, 1):
                if cls_of[t] >= 0:
                    raise UnsupportedEndAlgebra(f"the rung orbit of {obj} is not a Z_p orbit at p={p}")
                cls_of[t] = first
                rung_of[t] = b

    # -- queries --------------------------------------------------------------

    def end_dimension(self, obj: LadderObject) -> int:
        """Dimension of End(obj): p on a fixed object, else 1."""
        return self.dimension_at(self.lad.object_index(obj))

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

    def primitive_index(self, obj: LadderObject, idem: LadderMorphism) -> int:
        """Character index k of idem among the primitives of obj.

        On a fixed object, I_k has rung-1 over rung-0 coefficient zeta^k;
        idem must then equal the stored I_k.
        """
        k = 0
        if self.end_dimension(obj) > 1:
            c0, c1 = idem.coeffs.get(0), idem.coeffs.get(1)
            k = None if c0 is None or c1 is None else phase_exponent(c1 * c0.inv())
        if k is None or self.prims[obj][k] != idem:
            raise UnsupportedEndAlgebra(f"idempotent on {obj} is not a stored primitive")
        return k

    def anchor(self, kobj: KarObject) -> tuple[KarSimple, LadderMorphism]:
        """Canonical simple isomorphic to kobj and the connecting map to it."""
        k = self.primitive_index(kobj.obj, kobj.idem)
        to_rep, _ = self.connectors(kobj.obj, k)
        return self.simples[self.class_of(kobj.obj, k)], to_rep

    def class_of(self, obj: LadderObject, char_index: int) -> int:
        i = self.lad.object_index(obj)
        if not 0 <= char_index < self.dimension_at(i):
            raise KeyError((obj, char_index))
        return self._class[i] + char_index

    def connectors(self, obj: LadderObject, char_index: int):
        """(to_rep, from_rep): the isomorphisms between (obj, I_k) and its class representative."""
        cls = self.class_of(obj, char_index)
        b = self._rung[self.lad.object_index(obj)]
        rep = self.simples[cls].representative
        if b in (0, _FIXED):
            return rep.idem, rep.idem
        p = self.lad.p
        return (LadderMorphism(obj, rep.obj, {p - b: self._one}),
                LadderMorphism(rep.obj, obj, {b: self._one}))
