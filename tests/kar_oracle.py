"""Ladder and Karoubi helpers the engine does not use, kept as oracles for the tests.

The ladder category reads its rung action once into index arrays, and the
envelope builds its classes and primitive idempotents from rung orbits without
searching.  The helpers here work on objects, from the bimodule actions:

- rung targets, Hom rungs, basic and zero ladders, and End algebras;
- primitive_idempotents, which decides whether an object is fixed from its
  rung-1 target instead of from the envelope's orbit walk;
- isomorphism decided the slow, general way: two primitives (A, e) and
  (A', e') are isomorphic iff absorbed morphisms u: (A,e) -> (A',e') and v
  back exist with u followed by v a nonzero multiple of e.
"""

from dataclasses import dataclass

from bpring.cyclotomic import CyclotomicScalar
from bpring.karoubi import KarEnvelope, KarObject, KarSimple, _primitives, proportionality
from bpring.ladders import LadderCategory, LadderMorphism, LadderObject


def rung_target(lad: LadderCategory, obj: LadderObject, b: int) -> LadderObject:
    """Target of the basic rung-b ladder out of obj."""
    p = lad.p
    return LadderObject(lad.M.right(obj.m, (-b) % p), lad.N.left(b, obj.n))


def hom_rungs(lad: LadderCategory, src: LadderObject, tgt: LadderObject) -> list[int]:
    return [b for b in range(lad.p) if rung_target(lad, src, b) == tgt]


def basic(lad: LadderCategory, src: LadderObject, b: int) -> LadderMorphism:
    return LadderMorphism(src, rung_target(lad, src, b), {b: CyclotomicScalar.one(lad.p)})


def zero(lad: LadderCategory, src: LadderObject, tgt: LadderObject) -> LadderMorphism:
    return LadderMorphism(src, tgt, {})


def end_rungs(lad: LadderCategory, obj: LadderObject) -> tuple[int, ...]:
    """Rung stabilizer of obj; a subgroup of Z_p, so size 1 or p."""
    return tuple(b for b in range(lad.p) if rung_target(lad, obj, b) == obj)


@dataclass
class EndAlgebra:
    """Structure constants of End(obj) on the admissible-rung basis."""

    rungs: tuple[int, ...]
    table: dict  # (b1, b2) -> LadderMorphism

    @property
    def dimension(self) -> int:
        return len(self.rungs)

    def is_commutative(self) -> bool:
        return all(self.table[(a, b)] == self.table[(b, a)] for a in self.rungs for b in self.rungs)


def end_algebra(lad: LadderCategory, obj: LadderObject) -> EndAlgebra:
    rungs = end_rungs(lad, obj)
    one = CyclotomicScalar.one(lad.p)
    table = {}
    for b1 in rungs:
        fb1 = LadderMorphism(obj, obj, {b1: one})
        for b2 in rungs:
            fb2 = LadderMorphism(obj, obj, {b2: one})
            table[(b1, b2)] = lad.compose(fb1, fb2)
    return EndAlgebra(rungs, table)


def primitive_idempotents(lad: LadderCategory, obj: LadderObject) -> list[LadderMorphism]:
    """Complete orthogonal set of primitive idempotents of End(obj).

    The rung stabilizer of obj is trivial or all of Z_p (KarEnvelope checks
    that the rung action is a Z_p action), so rung 1 decides which.
    """
    return _primitives(lad, obj, rung_target(lad, obj, 1) == obj)


def simples(left, right) -> list[KarSimple]:
    """Simple objects of Kar(Lad(left, right)), one canonical rep per class."""
    return KarEnvelope(LadderCategory(left, right)).simples


def hom_basis(lad: LadderCategory, src: LadderObject, tgt: LadderObject) -> list[LadderMorphism]:
    """The basic ladders from src to tgt, one per admissible rung."""
    one = CyclotomicScalar.one(lad.p)
    return [LadderMorphism(src, tgt, {b: one}) for b in hom_rungs(lad, src, tgt)]


def reduce_to_basis(morphisms) -> list[LadderMorphism]:
    """Row-reduce a list of parallel morphisms to a linearly independent basis."""
    pivots: dict[int, LadderMorphism] = {}
    basis = []
    for f in morphisms:
        g = f
        for b in sorted(pivots):
            if b in g.coeffs:
                g = g + pivots[b].scale(-g.coeffs[b])
        if g.is_zero():
            continue
        lead = min(g.coeffs)
        g = g.scale(g.coeffs[lead].inv())
        pivots[lead] = g
        basis.append(g)
    return basis


def kar_hom_basis(lad: LadderCategory, a: KarObject, b: KarObject) -> list[LadderMorphism]:
    """A basis of the absorbed Hom space e_a . Hom(A, B) . e_b."""
    images = [lad.compose(lad.compose(a.idem, f), b.idem) for f in hom_basis(lad, a.obj, b.obj)]
    return reduce_to_basis(images)


def is_isomorphic(lad: LadderCategory, a: KarObject, b: KarObject) -> bool:
    for u in kar_hom_basis(lad, a, b):
        for v in kar_hom_basis(lad, b, a):
            lam = proportionality(lad.compose(u, v), a.idem)
            if lam is not None and not lam.is_zero():
                return True
    return False
