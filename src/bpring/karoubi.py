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
ladder.  The envelope stores one canonical representative per class (least
object of the orbit, least character index) together with the connecting
isomorphisms used downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicScalar, root_of_unity
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


def primitive_idempotents(lad: LadderCategory, obj: LadderObject) -> list[LadderMorphism]:
    """Complete orthogonal set of primitive idempotents of End(obj)."""
    rungs = lad.end_rungs(obj)
    p = lad.p
    if len(rungs) == 1:
        return [lad.identity(obj)]
    if len(rungs) != p:
        raise UnsupportedEndAlgebra(f"rung stabilizer of size {len(rungs)} at p={p}")
    inv_p = Fraction(1, p)
    out = []
    for k in range(p):
        coeffs = {g: root_of_unity(p, k * g).scale(inv_p) for g in range(p)}
        out.append(LadderMorphism(obj, obj, coeffs))
    return out


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


class KarEnvelope:
    """Simples of Kar(Lad(M, N)) plus the connecting-isomorphism bookkeeping."""

    def __init__(self, lad: LadderCategory):
        self.lad = lad
        self.objects = lad.objects()
        self.prims: dict[LadderObject, list[LadderMorphism]] = {
            obj: primitive_idempotents(lad, obj) for obj in self.objects
        }
        self.simples: list[KarSimple] = []
        self._class_of: dict[tuple[LadderObject, int], int] = {}
        self._to_rep: dict[tuple[LadderObject, int], LadderMorphism] = {}
        self._from_rep: dict[tuple[LadderObject, int], LadderMorphism] = {}
        self._build_classes()

    # -- class construction -------------------------------------------------

    def _build_classes(self):
        """One class per character of a fixed object, one per free orbit.

        Objects are walked in canonical order, so the first member met of each
        rung orbit is its least one and becomes the base.  A later member
        obj = rung_target(base, b) connects by the basic ladders u: obj -> base
        of rung -b and v: base -> obj of rung b; u followed by v is rung 0,
        the identity of obj, and v followed by u the identity of base.
        """
        lad = self.lad
        p = lad.p
        one = CyclotomicScalar.one(p)
        orbit_of: dict[LadderObject, tuple[int, int]] = {}  # member -> (class, rung from base)
        for obj in self.objects:
            if obj not in orbit_of:
                first = len(self.simples)
                for k, e in enumerate(self.prims[obj]):
                    self.simples.append(KarSimple(first + k, KarObject(obj, e), k))
                    key = (obj, k)
                    self._class_of[key] = first + k
                    self._to_rep[key] = e
                    self._from_rep[key] = e
                for b in range(1, p):
                    orbit_of[lad.rung_target(obj, b)] = (first, b)
                continue
            cls, b = orbit_of[obj]
            base = self.simples[cls].representative.obj
            key = (obj, 0)
            self._class_of[key] = cls
            self._to_rep[key] = LadderMorphism(obj, base, {p - b: one})
            self._from_rep[key] = LadderMorphism(base, obj, {b: one})

    # -- queries --------------------------------------------------------------

    def primitive_index(self, obj: LadderObject, idem: LadderMorphism) -> int:
        for k, e in enumerate(self.prims[obj]):
            if e == idem:
                return k
        raise UnsupportedEndAlgebra(f"idempotent on {obj} is not a stored primitive")

    def anchor(self, kobj: KarObject) -> tuple[KarSimple, LadderMorphism]:
        """Canonical simple isomorphic to kobj and the connecting map to it."""
        k = self.primitive_index(kobj.obj, kobj.idem)
        key = (kobj.obj, k)
        return self.simples[self._class_of[key]], self._to_rep[key]

    def class_of(self, obj: LadderObject, char_index: int) -> int:
        return self._class_of[(obj, char_index)]

    def connectors(self, obj: LadderObject, char_index: int):
        key = (obj, char_index)
        return self._to_rep[key], self._from_rep[key]


def simples(left, right) -> list[KarSimple]:
    """Simple objects of Kar(Lad(left, right)), one canonical rep per class."""
    return KarEnvelope(LadderCategory(left, right)).simples
