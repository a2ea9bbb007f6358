"""Isomorphism search in Kar(Lad(M, N)), kept as an oracle for the tests.

The envelope builds its classes from rung orbits without searching.  These
helpers decide isomorphism the slow, general way: two primitives (A, e) and
(A', e') are isomorphic iff absorbed morphisms u: (A,e) -> (A',e') and v back
exist with u followed by v a nonzero multiple of e.
"""

from bpring.cyclotomic import CyclotomicScalar
from bpring.karoubi import KarObject, proportionality
from bpring.ladders import LadderCategory, LadderMorphism, LadderObject


def hom_basis(lad: LadderCategory, src: LadderObject, tgt: LadderObject) -> list[LadderMorphism]:
    """The basic ladders from src to tgt, one per admissible rung."""
    one = CyclotomicScalar.one(lad.p)
    return [LadderMorphism(src, tgt, {b: one}) for b in lad.hom_rungs(src, tgt)]


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
