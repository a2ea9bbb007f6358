"""Ladder and Karoubi helpers the engine does not use, kept as oracles for the tests.

The ladder category reads its rung action once into index arrays, and the
envelope builds its classes and primitive idempotents from rung orbits without
searching.  The helpers here work on objects, from the bimodule actions:

- rung targets, Hom rungs, basic and zero ladders, sums of parallel ladders,
  and End algebras;
- primitive_idempotents, which decides whether an object is fixed from its
  rung-1 target instead of from the envelope's orbit walk, and builds the
  character projectors itself instead of reading the envelope's stored ones;
- isomorphism decided the slow, general way: two primitives e on A and e'
  on A' (a Kar object is its idempotent) are isomorphic iff absorbed
  morphisms u: e -> e' and v back exist with u followed by v a nonzero
  multiple of e;
- the isomorphism classes of all primitives, found by that search;
- walk_objects, the envelope's classes from one walk over every object, and
  step_tables, the step permutations from one loop over every class: the
  envelope and bpring.fusion compute both a row at a time from the leg
  orbits instead;
- every object of a ladder category in canonical order, identities, and an
  envelope's class bases and connector pairs, read through its public
  queries.

Identities, basic ladders, primitive idempotents and connectors are single
monomials per rung, so they hold library scalars and can be handed to the
engine.  Everything that sums or solves (compose, ladder_sum,
reduce_to_basis, the End algebras and the isomorphism search) runs on the
general field scalars of scalar_oracle, with compose_oracle.scalar_product
as the composition, so the search never runs the engine's composition
kernel that it checks.  as_oracle reads a morphism's coefficients into
that field for comparisons.
"""

from dataclasses import dataclass
from fractions import Fraction

from bpring.bimodules import BimoduleData
from bpring.cyclotomic import CyclotomicScalar
from bpring.fusion import ClassificationError
from bpring.karoubi import KarEnvelope, KarSimple, UnsupportedEndAlgebra
from bpring.ladders import CompositionError, LadderCategory, LadderMorphism, LadderObject
from compose_oracle import scalar_product
from scalar_oracle import FieldScalar, to_oracle


def objects(lad: LadderCategory) -> list[LadderObject]:
    """Every object in canonical order, right leg first: the position of an object is its object_index.

    This makes the least member of each isomorphism class the one whose
    right leg is normalised, e.g. (a,b)(0,c) in Lad(T,T) and (a)(0) in
    Lad(X,X).
    """
    return [LadderObject(m, n) for n in lad.N.simples for m in lad.M.simples]


def identity(lad: LadderCategory, obj: LadderObject) -> LadderMorphism:
    return LadderMorphism(obj, obj, {0: CyclotomicScalar(lad.p, 1)})


def base_at(env: KarEnvelope, c: int) -> int:
    """Object index of the base of class c."""
    return env.lad.object_index(env.representative(c).source)


def connectors(env: KarEnvelope, obj: LadderObject, k: int) -> tuple[LadderMorphism, LadderMorphism]:
    """(to_rep, from_rep): the isomorphisms between (obj, I_k) and its class representative.

    to_rep is the connector that locate returns.  On a base both are its
    idempotent; on the rung-b image of a base, to_rep is the basic rung -b
    ladder, and from_rep the rung-b ladder back.  A character index outside
    End(obj) raises KeyError((obj, k)).
    """
    i = env.lad.object_index(obj)
    if not 0 <= k < env.dimension_at(i):
        raise KeyError((obj, k))
    # a fixed object is its class's base; a free one has the identity only
    idem = env.representative(env.class_at(i) + k) if env.dimension_at(i) > 1 else identity(env.lad, obj)
    to_rep = env.locate(idem)[1]
    if to_rep.source == to_rep.target:
        return to_rep, to_rep
    (b,) = to_rep.coeffs
    return to_rep, LadderMorphism(to_rep.target, obj, {-b % env.lad.p: CyclotomicScalar(env.lad.p, 1)})


def rung_target(lad: LadderCategory, obj: LadderObject, b: int) -> LadderObject:
    """Target of the basic rung-b ladder out of obj."""
    M, N = lad.M, lad.N
    m = M.simples[M.right[-b % lad.p][M.index[obj.m]]]
    return LadderObject(m, N.simples[N.left[b % lad.p][N.index[obj.n]]])


def hom_rungs(lad: LadderCategory, src: LadderObject, tgt: LadderObject) -> list[int]:
    """The rungs b whose basic ladder out of src lands on tgt, read on leg indices as rung_target reads them."""
    M, N, p = lad.M, lad.N, lad.p
    m, n, tm, tn = M.index[src.m], N.index[src.n], M.index[tgt.m], N.index[tgt.n]
    return [b for b in range(p) if N.left[b][n] == tn and M.right[-b % p][m] == tm]


def basic(lad: LadderCategory, src: LadderObject, b: int) -> LadderMorphism:
    return LadderMorphism(src, rung_target(lad, src, b), {b: CyclotomicScalar(lad.p, 1)})


def zero(lad: LadderCategory, src: LadderObject, tgt: LadderObject) -> LadderMorphism:
    return LadderMorphism(src, tgt, {})


def as_oracle(f: LadderMorphism) -> LadderMorphism:
    """f with every coefficient read into the field oracle (scalar_oracle.to_oracle)."""
    return LadderMorphism(f.source, f.target, {b: to_oracle(c) for b, c in f.coeffs.items()})


def kar_key(e: LadderMorphism) -> tuple:
    """A hashable key of the Kar object e: its source and its coefficients in rung order."""
    return e.source, tuple(sorted(e.coeffs.items()))


def compose(lad: LadderCategory, f: LadderMorphism, g: LadderMorphism) -> LadderMorphism:
    """f followed by g on oracle scalars, by the scalar loop; CompositionError if they do not meet."""
    if f.target != g.source:
        raise CompositionError(f"cannot stack {g.source} on top of {f.target}")
    return LadderMorphism(f.source, g.target, scalar_product(lad.p, as_oracle(f).coeffs, as_oracle(g).coeffs))


def ladder_sum(first: LadderMorphism, *rest: LadderMorphism) -> LadderMorphism:
    """The sum of parallel morphisms on oracle scalars; CompositionError if they are not parallel."""
    coeffs = dict(as_oracle(first).coeffs)
    for f in rest:
        if f.source != first.source or f.target != first.target:
            raise CompositionError("cannot add morphisms between different objects")
        for b, c in as_oracle(f).coeffs.items():
            coeffs[b] = coeffs[b] + c if b in coeffs else c
    return LadderMorphism(first.source, first.target, coeffs)


def proportional(f: LadderMorphism, g: LadderMorphism) -> FieldScalar | None:
    """The oracle scalar c with f == c*g, if one exists (g nonzero), checked on every rung of both."""
    f, g = as_oracle(f), as_oracle(g)
    if not g.coeffs:
        return None
    b, gc = next(iter(g.coeffs.items()))
    c = f.coeffs.get(b, FieldScalar.zero(gc.p)) / gc
    return c if g.scale(c) == f else None


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
    one = CyclotomicScalar(lad.p, 1)
    table = {}
    for b1 in rungs:
        fb1 = LadderMorphism(obj, obj, {b1: one})
        for b2 in rungs:
            fb2 = LadderMorphism(obj, obj, {b2: one})
            table[(b1, b2)] = compose(lad, fb1, fb2)
    return EndAlgebra(rungs, table)


def primitive_idempotents(lad: LadderCategory, obj: LadderObject) -> list[LadderMorphism]:
    """Complete orthogonal set of primitive idempotents of End(obj).

    The rung stabilizer of obj is trivial or all of Z_p (KarEnvelope checks
    that the rung action is a Z_p action), so rung 1 decides which: the
    identity on a free object, the p character projectors I_k on a fixed one.
    """
    p = lad.p
    if rung_target(lad, obj, 1) != obj:
        return [identity(lad, obj)]
    inv_p = Fraction(1, p)
    return [LadderMorphism(obj, obj, {g: CyclotomicScalar(p, inv_p, k * g) for g in range(p)}) for k in range(p)]


def simples(left, right) -> list[KarSimple]:
    """Simple objects of Kar(Lad(left, right)), one canonical rep per class."""
    return KarEnvelope(LadderCategory(left, right)).simples


def hom_basis(lad: LadderCategory, src: LadderObject, tgt: LadderObject) -> list[LadderMorphism]:
    """The basic ladders from src to tgt, one per admissible rung."""
    rungs = hom_rungs(lad, src, tgt)
    if not rungs:  # nearly every pair the isomorphism search tries
        return []
    one = CyclotomicScalar(lad.p, 1)
    return [LadderMorphism(src, tgt, {b: one}) for b in rungs]


def reduce_to_basis(morphisms) -> list[LadderMorphism]:
    """Row-reduce a list of parallel morphisms to a linearly independent basis, on oracle scalars."""
    pivots: dict[int, LadderMorphism] = {}
    basis = []
    for f in morphisms:
        g = as_oracle(f)
        for b in sorted(pivots):
            if b in g.coeffs:
                g = ladder_sum(g, pivots[b].scale(-g.coeffs[b]))
        if not g.coeffs:
            continue
        lead = min(g.coeffs)
        g = g.scale(g.coeffs[lead].inv())
        pivots[lead] = g
        basis.append(g)
    return basis


def kar_hom_basis(lad: LadderCategory, a: LadderMorphism, b: LadderMorphism) -> list[LadderMorphism]:
    """A basis of the absorbed Hom space a . Hom(A, B) . b between the idempotents a on A and b on B."""
    images = [compose(lad, compose(lad, a, f), b) for f in hom_basis(lad, a.source, b.source)]
    return reduce_to_basis(images)


def is_isomorphic(lad: LadderCategory, a: LadderMorphism, b: LadderMorphism) -> bool:
    for u in kar_hom_basis(lad, a, b):
        for v in kar_hom_basis(lad, b, a):
            lam = proportional(compose(lad, u, v), a)
            if lam is not None and not lam.is_zero():
                return True
    return False


def isomorphism_classes(lad: LadderCategory) -> list[list[tuple[int, LadderMorphism]]]:
    """The isomorphism classes of all primitive Kar objects, found by search.

    Objects are walked in canonical order and the primitives of each by
    character index, so the classes come in order of first appearance and
    the first member of each, (character index, idempotent), is its least one.
    """
    classes: list[list[tuple[int, LadderMorphism]]] = []
    for obj in objects(lad):
        for k, e in enumerate(primitive_idempotents(lad, obj)):
            hits = [members for members in classes if is_isomorphic(lad, members[0][1], e)]
            if len(hits) > 1:
                raise AssertionError(f"{obj}#{k} is isomorphic to {len(hits)} classes")
            if hits:
                hits[0].append((k, e))
            else:
                classes.append([(k, e)])
    return classes


FIXED = -1  # the rung from the base that walk_objects records for a fixed object


def walk_objects(lad: LadderCategory) -> tuple[list[int], list[int], list[int]]:
    """(class, rung, bases): the envelope's classes from one walk over every object.

    Objects are walked in canonical order, so the first member met of each
    rung orbit is its least one and becomes the base; its p-1 rung images
    are all equal to it (a fixed object, p classes) or p-1 new objects (a
    free orbit, one class).  Per object index: the class of its first simple
    and its rung from the base (FIXED on a fixed object); per class: the
    object index of its base.
    """
    p, width = lad.p, len(lad.M.simples)
    # rung b sends (m, n) to (m < -b, b > n): read off the entries' own tables
    rung_m, rung_n = [lad.M.right[-b % p] for b in range(p)], lad.N.left
    cls_of, rung_of, bases = [-1] * lad.object_count, [0] * lad.object_count, []
    for i in range(lad.object_count):
        if cls_of[i] >= 0:
            continue
        first = cls_of[i] = len(bases)
        n, m = divmod(i, width)
        images = [rung_n[b][n] * width + rung_m[b][m] for b in range(1, p)]
        if images[0] == i:
            if images.count(i) != p - 1:
                raise UnsupportedEndAlgebra(f"rung 1 fixes {lad.object_at(i)} but not every rung does, at p={p}")
            rung_of[i] = FIXED
            bases.extend([i] * p)
            continue
        for b, t in enumerate(images, 1):
            if cls_of[t] >= 0:
                raise UnsupportedEndAlgebra(f"the rung orbit of {lad.object_at(i)} is not a Z_p orbit at p={p}")
            cls_of[t] = first
            rung_of[t] = b
        bases.append(i)
    return cls_of, rung_of, bases


def step_tables(M: BimoduleData, N: BimoduleData, walk) -> tuple[list[int], list[int]]:
    """Each class's index after acting by 1 on the left, and on the right, one class at a time.

    walk is walk_objects of Lad(M, N).  Class c + k, the character k of a
    base whose End has dimension dim, goes to the first class of the shifted
    base plus (k + e(1)) mod p, after checking that e(b) = b e(1) on every
    rung of the End and that the shift keeps the End dimension.
    """
    p, width = M.p, len(M.simples)
    cls_of, rung_of, bases = walk
    dim = lambda i: p if rung_of[i] == FIXED else 1
    shift_m, shift_n = M.left[1], N.right[1]
    steps = ([0] * len(bases), [0] * len(bases))
    c = 0
    while c < len(bases):
        i = bases[c]
        n, m = divmod(i, width)
        d = dim(i)
        for side, table, exps, target in (
            ("left", steps[0], M.mixed[1][m][:d], n * width + shift_m[m]),
            ("right", steps[1], [N.mixed[b][n][1] for b in range(d)], shift_n[n] * width + m),
        ):
            e1 = exps[1] if d > 1 else 0
            if any(e != b * e1 % p for b, e in enumerate(exps)):
                raise ClassificationError(f"the {side} mixed associator is not a character of its rung stabilizer")
            if dim(target) != d:
                raise ClassificationError(f"acting on the {side} changes the End dimension of object {i}")
            for k in range(d):
                table[c + k] = cls_of[target] + (k + e1) % p
        c += d
    return steps
