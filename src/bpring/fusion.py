"""Relative tensor product of two bimodules, computed through Kar(Lad(M, N)).

The outer Z_p actions are endofunctors of the ladder category: acting by g on
the left shifts the M leg of every object and multiplies the rung-b slot of a
morphism by mixed_assoc_M(g, target.m, b); acting by h on the right shifts the
N leg and multiplies by mixed_assoc_N(b, source.n, h).  Applying a functor to
a Kar simple and re-anchoring to the canonical class representative yields the
action on simples together with an absorbing witness morphism (outer_action).

The orbits only need where each simple goes under the generators, and that
is read without a witness.  Acting by 1 multiplies the rung-b slot of
End(obj) by zeta^e(b), with e read from the mixed associator.  It sends the
character projector I_k of obj to the stored projector I_(k+e(1)) of the
shifted object exactly when e(b) = b e(1) for every rung b of End(obj) and
the shifted object has the same End dimension.  Both are checked, and a
failure is a ClassificationError; simple (obj, k) then steps to the class of
(shift(obj), k + e(1)).  This is the condition under which re-anchoring the
acted projector succeeds, so the step tables verify no less than the witness
route.  The shifts are two index arrays per product, one per leg (the left
action on the M leg, the right action on the N leg), like the rung arrays of
LadderCategory; e depends only on the leg simple on that side and the End
dimension, so it is read and checked once per such pair.

The mixed associator of the product at (g, h) is the scalar ratio of the two
witness paths (left-g then right-h) / (right-h then left-g), both of which are
morphisms in the same one-dimensional absorbed Hom space.  On an orbit fixed
by both actions the connector gauges cancel in this ratio, so the extracted
exponent is canonical; the calibration is fixed so that the product of the
one-object bimodule with cocycle q and the invertible X_l comes out with
exponent q*l at (g, h) = (1, 1).  Only these exponents, on orbits with full
stabilizer (label F_q), are invariants of the product.  On an orbit with a
trivial or line stabilizer the exponent depends on the gauge of the inputs:
twisting a factor's mixed associator by a coboundary can change it, e.g. the
T orbit of T x X1 at p=2 goes from 0 to 1.  It is reported as computed and
never used to classify such an orbit.

Classification of an orbit: stabilizer H = {(g,h) : g acts then h acts fixes
the simple}; trivial H -> T, H = <(1,0)> -> L, H = <(0,1)> -> R, other lines
-> X_k with <(-k,1)> = H, full H -> F_q with q the associator exponent.

build_table assembles the engine's RingTable from one product per ordered
pair of labels, serially or in a pool of worker processes.  The engine
reaches only the shared modules (the label, group, scalar and table types),
never the closed form or the wall oracle; tests/test_import_graph.py checks
this.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .bimodules import BimoduleData, BimoduleLabel, Decomposition, catalogue
from .cyclotomic import phase_exponent, require_prime
from .groups import Subgroup, subgroup_from_elements
from .karoubi import KarEnvelope, KarObject, KarSimple, proportionality
from .ladders import EngineError, LadderCategory, LadderMorphism, LadderObject
from .ring import RingTable


class ClassificationError(EngineError):
    pass


@dataclass(frozen=True)
class ActionMorphism:
    g: int
    side: str  # "left" | "right"
    source: KarSimple
    target: KarSimple
    witness: LadderMorphism


@dataclass(frozen=True)
class OrbitInfo:
    representative: KarSimple
    size: int
    stabilizer: Subgroup
    assoc_exponent: int
    label: BimoduleLabel


@dataclass(frozen=True)
class ProductAnalysis:
    p: int
    object_count: int
    end_dimensions: dict
    simple_count: int
    orbits: tuple[OrbitInfo, ...]
    decomposition: Decomposition


def _normalize(w: LadderMorphism) -> LadderMorphism:
    lead = min(w.coeffs)
    return w.scale(w.coeffs[lead].inv())


class RelativeTensorProduct:
    """Kar(Lad(M, N)) with its outer actions, associator, and classification."""

    def __init__(self, M: BimoduleData, N: BimoduleData):
        self.M = M
        self.N = N
        self.lad = LadderCategory(M, N)
        self.p = self.lad.p
        self.env = KarEnvelope(self.lad)
        self.simples = self.env.simples
        self._steps: tuple[list[int], list[int]] | None = None
        self._tables: tuple[list[list[int]], list[list[int]]] | None = None

    # -- the outer-action endofunctors --------------------------------------

    def shift_left(self, g: int, obj: LadderObject) -> LadderObject:
        return LadderObject(self.M.left(g, obj.m), obj.n)

    def shift_right(self, h: int, obj: LadderObject) -> LadderObject:
        return LadderObject(obj.m, self.N.right(obj.n, h))

    def act_left(self, g: int, f: LadderMorphism) -> LadderMorphism:
        coeffs = {b: c * self.M.mixed_assoc(g, f.target.m, b) for b, c in f.coeffs.items()}
        return LadderMorphism(self.shift_left(g, f.source), self.shift_left(g, f.target), coeffs)

    def act_right(self, h: int, f: LadderMorphism) -> LadderMorphism:
        coeffs = {b: c * self.N.mixed_assoc(b, f.source.n, h) for b, c in f.coeffs.items()}
        return LadderMorphism(self.shift_right(h, f.source), self.shift_right(h, f.target), coeffs)

    def _apply(self, side: str, g: int, kobj: KarObject) -> KarObject:
        if side == "left":
            return KarObject(self.shift_left(g, kobj.obj), self.act_left(g, kobj.idem))
        return KarObject(self.shift_right(g, kobj.obj), self.act_right(g, kobj.idem))

    # -- actions on simples ---------------------------------------------------

    def outer_action(self, g: int, side: str, simple: KarSimple) -> ActionMorphism:
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        g = g % self.p
        shifted = self._apply(side, g, simple.representative)
        target, u = self.env.anchor(shifted)
        return ActionMorphism(g, side, simple, target, _normalize(u))

    def _exponent(self, side: str, obj: LadderObject, dim: int) -> int:
        """e(1) for acting by 1 on side, on an object whose End has dimension dim.

        Checks that e(b) = b e(1) for every rung b of End(obj) (see the module
        docstring).  The phases depend only on the leg on that side and dim.
        """
        if side == "left":
            phases = [self.M.mixed_assoc(1, obj.m, b) for b in range(dim)]
        else:
            phases = [self.N.mixed_assoc(b, obj.n, 1) for b in range(dim)]
        exps = [phase_exponent(x) for x in phases]
        e1 = exps[1] if dim > 1 else 0
        if None in exps or any(e != b * e1 % self.p for b, e in enumerate(exps)):
            raise ClassificationError(
                f"the {side} mixed associator on {obj} is not a character of its rung stabilizer"
            )
        return e1

    def _step_tables(self) -> tuple[list[int], list[int]]:
        """Each simple's index after acting by 1 on the left, and on the right.

        Acting by 1 on the left moves the M leg of the object with index
        n*|M| + m to shift_m[m]; acting on the right moves its N leg to
        shift_n[n].  Both index arrays are read once per product, and e(1)
        once per leg simple, side and End dimension.  Per representative
        object, simple (obj, k) goes to the class of (shift(obj), k + e(1)),
        after checking that the shift keeps the End dimension.
        """
        if self._steps is None:
            lad, env, p = self.lad, self.env, self.p
            width = len(lad.m_simples)
            shift_m = [lad.m_index[self.M.left(1, m)] for m in lad.m_simples]
            shift_n = [lad.n_index[self.N.right(n, 1)] for n in lad.n_simples]
            exponents: dict[tuple, int] = {}  # (side, leg index, dim) -> e(1)
            steps = ([0] * len(self.simples), [0] * len(self.simples))
            for s in self.simples:
                if s.char_index:
                    continue
                obj = s.representative.obj
                i = lad.object_index(obj)
                n, m = divmod(i, width)
                dim = env.dimension_at(i)
                for side, table, leg, target in (
                    ("left", steps[0], m, n * width + shift_m[m]),
                    ("right", steps[1], n, shift_n[n] * width + m),
                ):
                    key = (side, leg, dim)
                    e1 = exponents.get(key)
                    if e1 is None:
                        e1 = exponents[key] = self._exponent(side, obj, dim)
                    if env.dimension_at(target) != dim:
                        raise ClassificationError(f"acting on the {side} changes the End dimension of {obj}")
                    first = env.class_at(target)
                    for k in range(dim):
                        table[s.class_index + k] = first + (k + e1) % p
            self._steps = steps
        return self._steps

    def action_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """left[g][i] and right[h][i] as permutations of simple indices."""
        if self._tables is None:
            lstep, rstep = self._step_tables()
            n = len(self.simples)
            left = [list(range(n))]
            right = [list(range(n))]
            for _ in range(1, self.p):
                left.append([lstep[i] for i in left[-1]])
                right.append([rstep[i] for i in right[-1]])
            self._tables = left, right
        return self._tables

    # -- mixed associator -----------------------------------------------------

    def mixed_associator(self, g: int, h: int, simple: KarSimple) -> int:
        """Exponent k with (left-g then right-h) = zeta^k (right-h then left-g)."""
        g, h = g % self.p, h % self.p
        rep = simple.representative
        # right h first, then left g
        k1 = self._apply("right", h, rep)
        s1, u1 = self.env.anchor(k1)
        k2 = self._apply("left", g, s1.representative)
        s2, u2 = self.env.anchor(k2)
        path_rl = self.lad.compose(self.act_left(g, u1), u2)
        # left g first, then right h
        k1b = self._apply("left", g, rep)
        s1b, u1b = self.env.anchor(k1b)
        k2b = self._apply("right", h, s1b.representative)
        s2b, u2b = self.env.anchor(k2b)
        path_lr = self.lad.compose(self.act_right(h, u1b), u2b)
        if s2.class_index != s2b.class_index or path_lr.source != path_rl.source:
            raise ClassificationError("the two witness paths do not land in one Hom space")
        ratio = proportionality(path_lr, path_rl)
        if ratio is None or ratio.is_zero():
            raise ClassificationError("witness paths are not proportional")
        k = phase_exponent(ratio)
        if k is None:
            raise ClassificationError(f"associator ratio {ratio!r} is not a root of unity")
        return k

    # -- orbits and classification ---------------------------------------------

    def orbits(self) -> list[list[int]]:
        lstep, rstep = self._step_tables()
        seen: set[int] = set()
        out = []
        for i in range(len(self.simples)):
            if i in seen:
                continue
            orbit = {i}
            frontier = [i]
            while frontier:
                x = frontier.pop()
                for y in (lstep[x], rstep[x]):
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            out.append(sorted(orbit))
            seen.update(orbit)
        return out

    def orbit_stabilizer(self, rep_index: int) -> Subgroup:
        left, right = self.action_tables()
        p = self.p
        elts = [
            (g, h)
            for g in range(p)
            for h in range(p)
            if right[h][left[g][rep_index]] == rep_index
        ]
        return subgroup_from_elements(p, elts)

    def _classify(self, stab: Subgroup, exponent: int) -> BimoduleLabel:
        p = self.p
        if stab.kind == "trivial":
            return BimoduleLabel("T")
        if stab.kind == "full":
            return BimoduleLabel("F", exponent)
        gen = stab.generator
        if gen == (1, 0):
            return BimoduleLabel("L")
        if gen == (0, 1):
            return BimoduleLabel("R")
        t = gen[1]
        k = (-pow(t, p - 2, p)) % p  # <(-k,1)> == <(1,t)> with t = -1/k
        if k == 0:
            raise ClassificationError(f"stabilizer {stab} does not match any label")
        return BimoduleLabel("X", k)

    def analyze(self) -> ProductAnalysis:
        infos = []
        for orbit in self.orbits():
            rep_index = orbit[0]
            rep = self.simples[rep_index]
            stab = self.orbit_stabilizer(rep_index)
            if len(orbit) * stab.order != self.p * self.p:
                raise ClassificationError("orbit size times stabilizer order is not p^2")
            exponent = self.mixed_associator(1, 1, rep)
            infos.append(OrbitInfo(rep, len(orbit), stab, exponent, self._classify(stab, exponent)))
        decomposition = Decomposition.from_pairs((info.label, 1) for info in infos)
        total = decomposition.total_simples(self.p)
        if total != len(self.simples):
            raise ClassificationError(
                f"decomposition covers {total} simples but the envelope has {len(self.simples)}"
            )
        return ProductAnalysis(
            p=self.p,
            object_count=self.lad.object_count,
            end_dimensions=self.env.end_dimensions(),
            simple_count=len(self.simples),
            orbits=tuple(infos),
            decomposition=decomposition,
        )

    def decompose(self) -> Decomposition:
        return self.analyze().decomposition


def decompose(M: BimoduleData, N: BimoduleData) -> Decomposition:
    """Decompose the relative tensor product of M and N into catalogue labels."""
    return RelativeTensorProduct(M, N).decompose()


def analyze(M: BimoduleData, N: BimoduleData) -> ProductAnalysis:
    return RelativeTensorProduct(M, N).analyze()


# -- the engine's table -------------------------------------------------------

def _catalogue_by_label(p: int) -> dict[BimoduleLabel, BimoduleData]:
    return {entry.label: entry for entry in catalogue(p)}


def _pair_product(entries: dict, a: BimoduleLabel, b: BimoduleLabel) -> Decomposition:
    """One structure-constant row, a x b, from the fusion engine."""
    return RelativeTensorProduct(entries[a], entries[b]).decompose()


# A pool worker's catalogue, built once per process by _init_worker.
_worker_entries: dict[BimoduleLabel, BimoduleData] = {}


def _init_worker(p: int) -> None:
    _worker_entries.update(_catalogue_by_label(p))


def _worker_pair_product(a: BimoduleLabel, b: BimoduleLabel) -> Decomposition:
    # top-level so ProcessPoolExecutor can pickle the call
    return _pair_product(_worker_entries, a, b)


def _worker_count(workers: int | None) -> int:
    """workers, or BPRING_THREADS when it is None (unset or empty means 1).

    Either must be a positive integer; anything else is invalid input.
    """
    name, given = "workers", workers
    if workers is None:
        name, given = "BPRING_THREADS", os.environ.get("BPRING_THREADS") or "1"
        workers = int(given) if given.isdecimal() else None
    if type(workers) is not int or workers < 1:
        raise ValueError(f"{name} must be a positive integer, got {given!r}")
    return workers


def build_table(p: int, workers: int | None = None) -> RingTable:
    """Structure constants from the fusion engine over all ordered label pairs.

    workers (default: BPRING_THREADS) is capped at os.cpu_count().
    """
    require_prime(p)
    table = RingTable.empty(p)
    # a fork-started pool launches all its workers at once
    workers = min(_worker_count(workers), os.cpu_count() or 1)
    pairs = [(a, b) for a in table.basis for b in table.basis]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(p,)) as pool:
            for (a, b), dec in zip(pairs, pool.map(_worker_pair_product, *zip(*pairs))):
                table.set_product(a, b, dec)
    else:
        entries = _catalogue_by_label(p)
        for a, b in pairs:
            table.set_product(a, b, _pair_product(entries, a, b))
    for a in table.basis:
        for b in table.basis:
            for mult in table.constants[table.index(a)][table.index(b)]:
                if mult not in (0, 1, p):
                    raise ClassificationError(
                        f"product {a} x {b} produced multiplicity {mult}, expected 0, 1 or {p}"
                    )
    return table
