"""Relative tensor product of two bimodules, computed through Kar(Lad(M, N)).

The simples of the product are those of the Karoubi envelope (bpring.karoubi).
The outer Z_p actions have one core, _act, on (source index, target index,
coefficient dict): it moves one leg of each end (_shift) and rotates each rung
by an exponent of that side's mixed table (_rotated).  outer_action applies it
to a simple and re-anchors the result to its class.

Classifying the product reads the following, each described where it is done:

- _steps: the class each simple goes to under the generator 1 of each
  side, read on class indices with the checks of _exponent, a block of a
  row at a time by at most one gather from one class range, no simple built;
- orbits: the check that the two steps commute, and the orbit walk, which
  counts each orbit from its least simple;
- _stabilizer: an orbit's stabilizer, read from its size;
- mixed_associator and _witness_path: the associator exponent, the ratio of
  two witness paths, each a base's stored idempotent or lad.compose of two
  LadderMorphisms, read as (landing class, source index, coefficient dict);
- _classify: the label, F_q for a full stabilizer with q the exponent, else
  the one label that bimodules.label_invariants maps to the stabilizer.

Only the exponents of full-stabilizer orbits are invariants of the product;
on any other orbit the exponent depends on the gauge of the inputs: twisting
a factor's mixed associator by a coboundary can change it, e.g. the T orbit
of T x X1 at p=2 goes from 0 to 1.  So decompose, and with it build_table,
runs the witness paths on full-stabilizer orbits only, while analyze, which
fuse --detail prints, reports every orbit's exponent (_classified_orbits).

build_table assembles the engine's RingTable from one product per ordered
pair of labels, serially or in a pool of worker processes.  The engine
reaches only the shared modules (the label, group, scalar and table types),
never the closed form or the wall oracle; tests/test_import_graph.py checks
this.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from operator import add
from typing import NamedTuple, Sequence

from .bimodules import (NUMBER, BimoduleData, BimoduleLabel, Decomposition, all_labels, catalogue, format_simple,
                        label_invariants)
from .cyclotomic import phase_exponent, require_prime
from .groups import Subgroup, enumerate_subgroups
from .karoubi import FIXED, KarEnvelope, KarSimple, proportionality
from .ladders import EngineError, LadderCategory, LadderMorphism
from .ring import RingTable, gatherer


class ClassificationError(EngineError):
    pass


class ActionMorphism(NamedTuple):
    g: int
    side: str  # "left" | "right"
    source: KarSimple
    target: KarSimple
    witness: LadderMorphism


class OrbitInfo(NamedTuple):
    representative: KarSimple
    size: int
    stabilizer: Subgroup
    assoc_exponent: int
    label: BimoduleLabel


class ProductAnalysis(NamedTuple):
    p: int
    object_count: int
    end_dimensions: dict
    simple_count: int
    orbits: tuple[OrbitInfo, ...]
    decomposition: Decomposition


@lru_cache(maxsize=None)
def _subgroups(p: int) -> tuple[Subgroup, ...]:
    """The p+3 subgroups in enumerate_subgroups order."""
    return tuple(enumerate_subgroups(p))


@lru_cache(maxsize=None)
def _label_of_stabilizer(p: int) -> dict[Subgroup, BimoduleLabel]:
    """Stabilizer -> label for every label but F_q: the inverse of label_invariants on those."""
    return {label_invariants(p, label)[0]: label for label in all_labels(p) if label.kind != "F"}


@lru_cache(maxsize=None)
def _character(p: int, e1: int) -> tuple[int, ...]:
    """(b e1 mod p for every rung b): the exponents of the character of Z_p with e(1) = e1."""
    return tuple(b * e1 % p for b in range(p))


@lru_cache(maxsize=None)
def _rotation(p: int, e1: int) -> tuple[int, ...]:
    """((k + e1) mod p for every character k): where acting with e(1) = e1 moves the characters."""
    return tuple((k + e1) % p for k in range(p))


def _block(pattern: list, first: int, classes: list[int], count: int) -> Sequence[int]:
    """The classes first + o for each offset o of pattern, a step block's [offsets, gatherer or None].

    A block whose first class is 0 is its offsets.  Any other is one gather
    at the offsets from classes[first:], the product's one list(range(count)),
    filled on first use, so both steps share its ints; the gatherer is built
    on first use and kept in pattern.  A single N-fixed row builds neither.
    """
    offsets, pick = pattern
    if not first:
        return offsets
    if pick is None:
        pick = pattern[1] = gatherer(offsets)
    if not classes:
        classes += range(count)
    return pick(classes[first:first + len(offsets)])


class RelativeTensorProduct:
    """Kar(Lad(M, N)) with its outer actions, associator, and classification."""

    def __init__(self, M: BimoduleData, N: BimoduleData):
        self.M = M
        self.N = N
        self.lad = LadderCategory(M, N)
        self.p = self.lad.p
        self.env = KarEnvelope(self.lad)
        self._width = len(M.simples)  # object index n*|M| + m

    @property
    def simples(self) -> list[KarSimple]:
        """Every simple of the envelope, built when first asked for."""
        return self.env.simples

    # -- the outer-action endofunctors --------------------------------------

    def _shift(self, side: str, g: int, i: int) -> int:
        """The object index of the object of index i acted on by g (in 0..p-1) on side.

        Acting on the left sends n*|M| + m to n*|M| + M.left[g][m]; acting on
        the right sends it to N.right[g][n]*|M| + m.
        """
        width = self._width
        if side == "left":
            m = i % width
            return i - m + self.M.left[g][m]
        n, m = divmod(i, width)
        return self.N.right[g][n] * width + m

    def _act(self, side: str, g: int, s: int, t: int, coeffs: dict) -> tuple[int, int, dict]:
        """(s', t', coeffs'): the morphism with coeffs from object index s to t, acted on by g (in 0..p-1) on side.

        s' and t' are the shifted indices (_shift), one shift when s == t, and
        coeffs' the rotated dict (_rotated).  Each rotation keeps a monomial
        nonzero, so a morphism on coeffs' needs no zero filter
        (LadderMorphism._nonzero).  No object or morphism is built.
        """
        shifted = self._shift(side, g, s)
        return shifted, shifted if t == s else self._shift(side, g, t), self._rotated(side, g, coeffs, s, t)

    def _rotated(self, side: str, g: int, coeffs: dict, s: int, t: int) -> dict:
        """coeffs of a morphism from object index s to t, with rung b rotated as acting by g on side does.

        On the left the exponent is M.mixed[g][m][b], m the M leg of t; on
        the right it is N.mixed[b][n][g], n the N leg of s.  When that side's
        entry has trivial_mixed set (an all-zero mixed table, as on every
        catalogue entry but F_q with q != 0), every rotation is by zero and
        coeffs itself is returned, so the result shares the input's dict.
        """
        if side == "left":
            if self.M.trivial_mixed:
                return coeffs
            row = self.M.mixed[g][t % self._width]
            return {b: c.rotate(row[b]) for b, c in coeffs.items()}
        if self.N.trivial_mixed:
            return coeffs
        n, mixed = s // self._width, self.N.mixed
        return {b: c.rotate(mixed[b][n][g]) for b, c in coeffs.items()}

    # -- actions on simples ---------------------------------------------------

    def outer_action(self, g: int, side: str, simple: KarSimple) -> ActionMorphism:
        """The simple that g on side sends simple to, witnessed by the connector scaled to 1 on its least rung.

        The acted representative is named by its objects and checked by KarEnvelope.locate.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        g, rep, index, at = g % self.p, simple.representative, self.lad.object_index, self.lad.object_at
        s, t, acted = self._act(side, g, index(rep.source), index(rep.target), rep.coeffs)
        c, u = self.env.locate(LadderMorphism._nonzero(at(s), at(t), acted))
        return ActionMorphism(g, side, simple, self.env.simple(c), u.scale(u.coeffs[min(u.coeffs)].inv()))

    def _exponent(self, side: str, leg: int, dim: int) -> int:
        """e(1) for acting by 1 on side, on an object whose End has dimension dim.

        leg is the index of the object's simple on that side.  Checks on
        every call that e(b) = b e(1) for every rung b of End(obj), as
        _steps needs.  When that side's entry has trivial_mixed set,
        the table is all zero, which is the character with e(1) = 0 on every
        rung, and 0 is returned with no read.
        """
        if (self.M if side == "left" else self.N).trivial_mixed:
            return 0
        if side == "left":
            exps = tuple(self.M.mixed[1][leg][:dim])
            simple = self.M.simples[leg]
        else:
            exps = tuple([self.N.mixed[b][leg][1] for b in range(dim)])
            simple = self.N.simples[leg]
        e1 = exps[1] if dim > 1 else 0
        if exps != _character(self.p, e1)[:dim]:
            raise ClassificationError(
                f"the {side} mixed associator on {format_simple(simple)} "
                "is not a character of its rung stabilizer"
            )
        return e1

    @cached_property
    def _steps(self) -> tuple[list[int], list[int]]:
        """Each simple's index after acting by 1 on the left, and on the right.

        Acting by 1 on the left moves the M leg of the object with index
        n*|M| + m to shift_m[m] = M.left[1][m], within its row n; acting on
        the right moves its N leg to shift_n[n] = N.right[1][n], into row
        shift_n[n].  Class c + k, the character k of a base whose End has
        dimension dim, goes to class_at(shift(base)) + (k + e(1)) mod p,
        after checking that the shift keeps the End dimension.  These checks
        are the condition under which re-anchoring the acted projector I_k to
        the stored I_(k+e(1)) succeeds, so the tables check no less than the
        witness route does.  A failure is a ClassificationError.  The tables
        are built a row at a time over the rows that make classes (see
        KarEnvelope._walk_rows), the left block of a row before its right
        block, each gathered in C.  The right block reads the target row
        shift_n[n], which need not make classes itself; class_row then
        gathers it off its base row.

        - the base row of a free N orbit steps on the left by shift_m, and
          on the right to its target row as it stands;
        - an N-fixed row follows M's leg pattern, one block of p classes per
          fixed M simple and one class per free M orbit.  Its left block is
          the row's first class plus an offset pattern that is the same for
          every N-fixed row (_fixed_row_left), and so is its right block
          into an N-fixed row, with the target row's first class and an
          offset pattern that depends only on e(1) of the row's N leg
          (_fixed_row_right), built once per e(1).  Each block is read by
          _block: the offsets themselves when its first class is 0, else
          one gather at them from the product's one class range, built on
          the first such block (T x T builds none).  The right
          block into a free row, where every M simple is free, is that row
          at M's pattern.

        The e(1) and End-dimension checks run on every row, in the row's
        order: the left ones, which depend on M alone, on the first N-fixed
        row and on the first free base row; the right ones on each row.  A
        leg is fixed or free on every rung, so the End dimension of an
        object is read from its two legs.  No simple is built.
        """
        env, p = self.env, self.p
        width = len(self.M.simples)
        shift_m, shift_n = self.M.left[1], self.N.right[1]
        m_rung, n_rung = env.leg_m.rung, env.leg_n.rung
        fixed_left = free_left = None  # the left step of an N-fixed row (see _block), of a free N orbit's base row
        right_blocks: dict = {}  # e(1) -> the right step of an N-fixed row into an N-fixed row (see _block)
        classes: list[int] = []  # the class range that _block gathers from, filled on first use
        count, lstep, rstep = env.simple_count, [], []
        for n, r in enumerate(n_rung):
            if r > 0:
                continue  # a row of a free N orbit other than its base makes no class
            here, row, target = n * width, env.class_row(n), env.class_row(shift_n[n])
            into_fixed = n_rung[shift_n[n]] == FIXED
            if r == FIXED:
                if fixed_left is None:
                    offsets, dims, first_fixed = self._fixed_row_left(here)
                    fixed_left = [offsets, None]
                lstep += _block(fixed_left, row[0], classes, count)
                e1 = 0
                for d in dims:
                    e = self._exponent("right", n, d)
                    if d == p:
                        e1 = e
                if first_fixed is not None and not into_fixed:
                    self._dimension_fault("right", here + first_fixed)
                if into_fixed:
                    block = right_blocks.get(e1)
                    if block is None:
                        block = right_blocks[e1] = [self._fixed_row_right(e1), None]
                    rstep += _block(block, target[0], classes, count)
                else:
                    rstep += env.pattern_get(target)
            else:
                if free_left is None:
                    for m in range(width):
                        self._exponent("left", m, 1)
                    free_left = gatherer(shift_m)
                lstep += free_left(row)
                self._exponent("right", n, 1)
                if into_fixed and FIXED in m_rung:
                    self._dimension_fault("right", here + m_rung.index(FIXED))
                rstep += target
        return lstep, rstep

    def _fixed_row_left(self, here: int) -> tuple:
        """The left step of every N-fixed row, checked on the first, whose first object index is here.

        Per M orbit, in the order of M's leg pattern: its base x, with e(1)
        on the left and the check that shift_m keeps x fixed or free.  Class
        j of the row, on base x, goes to the class of shift_m[x] plus
        (k + e(1)) mod p on the k-th class of a fixed x, and to that class on
        a free one.  Counted from the row's first class, as the envelope's
        _pattern_first counts, that is the same for every N-fixed row.
        Returns those offsets (see _block), the End dimensions in the order
        the row meets them, and the first fixed M simple, or None.
        """
        env, p, shift_m = self.env, self.p, self.M.left[1]
        m_rung = env.leg_m.rung
        chars, dims = [], []
        for x in env.pattern_bases:
            fixed = m_rung[x] == FIXED
            d = p if fixed else 1
            e1 = self._exponent("left", x, d)
            if (m_rung[shift_m[x]] == FIXED) != fixed:
                self._dimension_fault("left", here + x)
            if d not in dims:
                dims.append(d)
            chars += _rotation(p, e1) if fixed else (0,)
        first_fixed = m_rung.index(FIXED) if FIXED in m_rung else None
        at_shift = gatherer([shift_m[x] for x in env.pattern])(env._pattern_first)
        return list(map(add, at_shift, chars)), dims, first_fixed

    def _fixed_row_right(self, e1: int) -> list[int]:
        """The right step of an N-fixed row with right e(1) = e1 into an N-fixed row, counted from its first class.

        The target row repeats M's leg pattern, so class j of the row, the
        k-th class of its base, goes to the target's class of that base (the
        envelope's _pattern_first) plus (k + e1) mod p on a fixed M simple,
        and to that class on a free one.  Returns those offsets, which
        _block adds to the target row's first class.
        """
        env, rotated = self.env, _rotation(self.p, e1)
        m_rung = env.leg_m.rung
        chars = [k for x in env.pattern_bases for k in (rotated if m_rung[x] == FIXED else (0,))]
        return list(map(add, env.pattern_get(env._pattern_first), chars))

    def _dimension_fault(self, side: str, i: int):
        """Raise the End-dimension fault of acting on side on the object of index i."""
        raise ClassificationError(f"acting on the {side} changes the End dimension of {self.lad.object_at(i)}")

    # -- mixed associator -----------------------------------------------------

    def mixed_associator(self, g: int, h: int, simple: KarSimple) -> int:
        """Exponent k with (left-g then right-h) = zeta^k (right-h then left-g).

        Both witness paths (_witness_path) start from simple's representative,
        read as its base's object index and its coefficient dict.  Landing on
        one class from one source, they lie in one one-dimensional absorbed
        Hom space; their dicts' ratio is read by proportionality and
        phase_exponent.  On an orbit fixed by both actions the connector
        gauges cancel in the ratio, so the exponent is canonical; the
        calibration makes the product of the one-object bimodule with cocycle
        q and the invertible X_l come out with exponent q*l at (1, 1).
        """
        g, h = g % self.p, h % self.p
        base = self.env._bases[simple.class_index], simple.representative.coeffs
        c2, source, path_rl = self._witness_path("right", h, "left", g, *base)
        c2b, source_b, path_lr = self._witness_path("left", g, "right", h, *base)
        if c2 != c2b or source != source_b:
            raise ClassificationError("the two witness paths do not land in one Hom space")
        ratio = proportionality(path_lr, path_rl, self.env._one)
        if ratio is None or ratio.is_zero():
            raise ClassificationError("witness paths are not proportional")
        k = phase_exponent(ratio)
        if k is None:
            raise ClassificationError(f"associator ratio {ratio!r} is not a root of unity")
        return k

    def _witness_path(self, first: str, a: int, second: str, b: int, i: int, coeffs: dict) -> tuple[int, int, dict]:
        """(landing class, source object index, coefficients) of acting by a on side first, then by b on side second.

        The path starts from the idempotent with coeffs on the object of
        index i, a class representative.  It acts (_act), re-anchors through
        a connector u to the landing class's representative, of object index
        r1, acts on that, re-anchors again through u2, and is the acted u
        followed by u2, all on indices and dicts: KarEnvelope._locate_at
        checks each acted dict against the stored primitive, and _to_rep
        gives the connectors.  When the first landing j is its class's base
        (r1 == j), the acted u is the acted idempotent.  If u2 then lands on
        a base too, it is the base's stored idempotent e, which _locate_at
        has just compared with the acted idempotent on every rung, and e
        followed by e is e by the idempotent law, checked once per prime
        where the projectors are stored (karoubi._checked_idempotent; a free
        base's identity is the unit of the group algebra): the path is e's
        dict, and nothing is built.  Every other path is lad.compose of two
        LadderMorphisms, the acted u and u2, on the route's only objects.
        """
        env = self.env
        j, _, acted = self._act(first, a, i, i, coeffs)
        c1, rung1, e1 = env._locate_at(j, acted)
        r1 = env._bases[c1]  # the representative's object; e1 is its idempotent
        j2, _, acted2 = self._act(second, b, r1, r1, e1)
        c2, rung2, e2 = env._locate_at(j2, acted2)
        if r1 != j:
            source, _, w = self._act(second, b, j, r1, env._to_rep(j, c1, rung1, e1)[1])
        elif env._bases[c2] == j2:
            return c2, j2, e2  # a base: acted2 is its idempotent e, and e followed by e is e
        else:
            source, w = j2, acted2  # the acted idempotent
        t2, u2 = env._to_rep(j2, c2, rung2, e2)
        at, mid = self.lad.object_at, self.lad.object_at(j2)
        path = self.lad.compose(LadderMorphism._nonzero(at(source), mid, w), LadderMorphism._nonzero(mid, at(t2), u2))
        return c2, source, path.coeffs

    # -- orbits and classification ---------------------------------------------

    def orbits(self) -> list[tuple[int, int]]:
        """(first, size) for each orbit of the two step permutations, in walk order.

        The steps are first checked to commute, lstep after rstep against
        rstep after lstep, each gathered in C; a failure is a
        ClassificationError naming the first simple where they differ.
        Commuting steps are an action of Z_p x Z_p.  The orbit of i is the
        union of the rstep cycles through the points of its lstep cycle,
        walked over one bytearray of seen simples.  Each walk starts at the
        least unseen simple, found in C by bytearray.find, so first is the
        orbit's least member; the walk counts the members and keeps no list.
        """
        lstep, rstep = self._steps
        # the walk runs only to name the first simple where they differ
        if gatherer(rstep)(lstep) != gatherer(lstep)(rstep):
            bad = next(i for i in range(len(lstep)) if lstep[rstep[i]] != rstep[lstep[i]])
            raise ClassificationError(f"the left and right actions do not commute on {self.env.simple(bad)}")
        seen = bytearray(len(lstep))
        out = []
        i = seen.find(0)
        while i >= 0:
            size, j = 0, i
            while not seen[j]:
                k = j
                while not seen[k]:
                    seen[k] = 1
                    size += 1
                    k = rstep[k]
                j = lstep[j]
            out.append((i, size))
            i = seen.find(0, i + 1)
        return out

    def _stabilizer(self, i: int, size: int) -> Subgroup:
        """Stabilizer of simple i, whose orbit has the given size.

        The stabilizer of an orbit of the Z_p x Z_p action has order
        p^2 / size, and any size other than 1, p or p^2 is a
        ClassificationError.  Size p^2 means the trivial subgroup and size 1
        the full group.  Size p
        means a line: <(0,1)> fixes i when rstep[i] == i, and <(1,t)> when t
        right steps bring lstep[i] back to i.  Exactly one line must fix i.
        """
        p = self.p
        subgroups = _subgroups(p)  # trivial, <(0,1)>, <(1,0)>, ..., <(1,p-1)>, full
        if size == p * p:
            return subgroups[0]
        if size == 1:
            return subgroups[-1]
        if size != p:
            raise ClassificationError(f"an orbit of size {size} is not of size 1, p or p^2")
        lstep, rstep = self._steps
        fixing = [1] if rstep[i] == i else []
        j = lstep[i]
        for t in range(p):
            if j == i:
                fixing.append(2 + t)
            j = rstep[j]
        if len(fixing) != 1:
            raise ClassificationError(
                f"{len(fixing)} lines fix {self.env.simple(i)}, whose orbit has size p"
            )
        return subgroups[fixing[0]]

    def _classify(self, stab: Subgroup, exponent: int | None) -> BimoduleLabel:
        if stab.kind == "full":
            return BimoduleLabel("F", exponent)
        return _label_of_stabilizer(self.p)[stab]

    def _classified_orbits(self, every_exponent: bool) -> list[tuple]:
        """(size, simple, stabilizer, exponent, label) for every orbit.

        The witness associator runs on the simple of the orbit's first class
        on every orbit if every_exponent, else only on full-stabilizer
        orbits, the one place where it classifies; the simple and the
        exponent are None elsewhere.  On any other orbit the witness paths
        would check, beyond the exponent, only that both land on one simple,
        and the commutation check of orbits covers that on every simple.
        """
        out = []
        for first, size in self.orbits():
            stab = self._stabilizer(first, size)
            simple = exponent = None
            if every_exponent or stab.kind == "full":
                simple = self.env.simple(first)
                exponent = self.mixed_associator(1, 1, simple)
            out.append((size, simple, stab, exponent, self._classify(stab, exponent)))
        return out

    def _decomposition(self, labels) -> Decomposition:
        decomposition = Decomposition.from_pairs((label, 1) for label in labels)
        total, count = decomposition.total_simples(self.p), self.env.simple_count
        if total != count:
            raise ClassificationError(f"decomposition covers {total} simples but the envelope has {count}")
        return decomposition

    def analyze(self) -> ProductAnalysis:
        """Every orbit with its associator exponent, invariant or not, and the decomposition."""
        infos = tuple(
            OrbitInfo(simple, size, stab, exponent, label)
            for size, simple, stab, exponent, label in self._classified_orbits(every_exponent=True)
        )
        return ProductAnalysis(
            p=self.p,
            object_count=self.lad.object_count,
            end_dimensions=self.env.end_dimensions(),
            simple_count=self.env.simple_count,
            orbits=infos,
            decomposition=self._decomposition(info.label for info in infos),
        )

    def decompose(self) -> Decomposition:
        """The decomposition, computing only the exponents that classify."""
        return self._decomposition(label for *_, label in self._classified_orbits(every_exponent=False))


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

    workers must be a positive int, and BPRING_THREADS one spelled in ASCII
    digits with no leading zero, as --p is; anything else is invalid input.
    """
    if workers is None:
        given = os.environ.get("BPRING_THREADS") or "1"
        if not NUMBER.fullmatch(given) or given == "0":
            raise ValueError(
                f"BPRING_THREADS must be a positive integer in ASCII digits with no leading zero, got {given!r}"
            )
        return int(given)
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    return workers


def build_table(p: int, workers: int | None = None) -> RingTable:
    """Structure constants from the fusion engine over all ordered label pairs.

    workers (default: BPRING_THREADS) is capped at os.cpu_count().  A pool
    gets the pairs in about four chunks per worker.  A worker that dies, as
    one killed for memory does, is an EngineError.
    """
    require_prime(p)
    table = RingTable.empty(p)
    # a fork-started pool launches all its workers at once
    workers = min(_worker_count(workers), os.cpu_count() or 1)
    pairs = [(a, b) for a in table.basis for b in table.basis]
    if workers > 1:
        # imported here so that serial users never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # a few chunks per worker: one pair is too little work to pay for its own round trip
        chunksize = -(-len(pairs) // (4 * workers))
        try:
            with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(p,)) as pool:
                for (a, b), dec in zip(pairs, pool.map(_worker_pair_product, *zip(*pairs), chunksize=chunksize)):
                    table.set_product(a, b, dec)
        except BrokenProcessPool as exc:
            raise EngineError("a worker process ended unexpectedly") from exc
    else:
        entries = _catalogue_by_label(p)
        for a, b in pairs:
            table.set_product(a, b, _pair_product(entries, a, b))
    basis = table.basis
    for i, rows in enumerate(table.constants):
        for j, cell in enumerate(rows):
            for _, mult in cell:
                if mult not in (1, p):
                    raise ClassificationError(
                        f"product {basis[i]} x {basis[j]} produced multiplicity {mult}, expected 0, 1 or {p}"
                    )
    return table
