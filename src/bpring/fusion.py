"""Relative tensor product of two bimodules, computed through Kar(Lad(M, N)).

The simples of the product are those of the Karoubi envelope (bpring.karoubi),
which also acts: KarEnvelope._act acts on (source index, target index,
coefficient dict), and KarEnvelope._land acts on an idempotent and re-anchors
it to its class in one call.  outer_action lands a simple and builds its
connector from KarEnvelope._to_rep, as the witness route does; this module
classifies.

Classifying the product reads the following, each described where it is done:

- _steps: the class each simple goes to under the generator 1 of each
  side, read on class indices with each leg's e(1), a block of a row at a
  time, each N-fixed row by one rule (_offsets) and at most one gather from
  one class range, no simple built.  Each leg record (karoubi.leg) has
  checked that its e(1) is a character of each rung stabilizer and that
  the generator keeps its leg's rung-fixed simples fixed, and raised a
  failure when the envelope was built;
- orbits: the check that the two steps commute, and the orbit walk, which
  counts each orbit from its least simple;
- _stabilizer: an orbit's stabilizer, read from its size, as a position in
  the per-prime table _orbit_names of every subgroup and the label it names;
- _associator and _witness_path: the associator exponent, the ratio of two
  witness paths from a class's base index and stored idempotent, each path
  a base's stored idempotent or lad.compose of two LadderMorphisms, read as
  (landing class, source index, coefficient dict); mixed_associator is its
  public form on a simple.

Only the exponents of full-stabilizer orbits are invariants of the product;
on any other orbit the exponent depends on the gauge of the inputs: twisting
a factor's mixed associator by a coboundary can change it, e.g. the T orbit
of T x X1 at p=2 goes from 0 to 1.  So decompose, and with it build_table,
runs the witness paths on full-stabilizer orbits only, while analyze, which
fuse --detail prints, reports every orbit's exponent (_classified_orbits).

build_table assembles the engine's RingTable from one product per ordered
pair of labels, serially or in a pool of worker processes, through one loop
that checks each product as it lands.  The engine reaches only the shared
modules (the label, group, scalar and table types), never the closed form or
the wall oracle; tests/test_import_graph.py checks this.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache
from operator import add

from .bimodules import NUMBER, BimoduleData, BimoduleLabel, Decomposition, all_labels, catalogue, label_invariants
from .cyclotomic import phase_exponent, require_prime
from .groups import Subgroup, enumerate_subgroups
from .karoubi import FIXED, KarEnvelope, KarSimple, proportionality
from .ladders import ClassificationError, EngineError, LadderCategory, LadderMorphism
from .ring import RingTable, gatherer

# The generator g acting on the side "left" or "right" sends the simple source
# to target, by the witness ladder.
ActionMorphism = namedtuple("ActionMorphism", "g side source target witness")
OrbitInfo = namedtuple("OrbitInfo", "representative size stabilizer assoc_exponent label")
ProductAnalysis = namedtuple("ProductAnalysis", "p object_count end_dimensions simple_count orbits decomposition")


@lru_cache(maxsize=None)
def _orbit_names(p: int) -> tuple[tuple[Subgroup, ...], tuple[BimoduleLabel | None, ...]]:
    """(subgroups, labels): the p+3 subgroups in enumerate_subgroups order, and the label of each.

    The label of a subgroup other than the full group is the one label that
    bimodules.label_invariants maps to it; the full group's is None, as an
    orbit it stabilizes is F_q, q its associator exponent.
    """
    subgroups = tuple(enumerate_subgroups(p))
    named = {label_invariants(p, label)[0]: label for label in all_labels(p) if label.kind != "F"}
    return subgroups, tuple(None if stab.kind == "full" else named[stab] for stab in subgroups)


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
    """Kar(Lad(M, N)) with its outer actions, associator, and classification.

    A decomposition is meaningful only for factors that pass
    bimodules.validate.  Each factor's leg record (karoubi.leg) checks that
    factor alone, whatever the other: on M's leg, that its rung rows are a
    Z_p action, in full when it has a free orbit; on each leg, e(1) on each
    simple's own rung stabilizer, and that the generator 1 keeps the orbit
    bases fixed or free.  The record raises a fault where it finds it, when
    the envelope is built, with one message that names the side and that
    factor's simple, whatever the partner; M's record is built first, so a
    pair raises M's fault before N's.  Beyond those checks the engine reads
    only the rows of the generator 1, so a factor that fails validate can
    still decompose: one whose left and right actions do not commute while
    its generator keeps the rung-fixed simples fixed, or one whose mixed
    table is not additive in g or in h.
    """

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

    # -- actions on simples ---------------------------------------------------

    def outer_action(self, g: int, side: str, simple: KarSimple) -> ActionMorphism:
        """The simple that g on side sends simple to, witnessed by the connector scaled to 1 on its least rung.

        simple is read as mixed_associator reads it, its base's object index
        and its representative's coefficient dict, and landed as
        _witness_path lands it: KarEnvelope._land acts and checks the acted
        dict against the stored primitive, and _to_rep gives the connector.
        A g that is not an int, a bool included, is a ValueError.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if type(g) is not int:
            raise ValueError(f"g must be an integer, got {g!r}")
        g, env, at = g % self.p, self.env, self.lad.object_at
        s, c, rung, e = env._land(side, g, env._bases[simple.class_index], simple.representative.coeffs)
        t, coeffs = env._to_rep(s, c, rung, e)
        u = LadderMorphism._nonzero(at(s), at(t), coeffs)
        return ActionMorphism(g, side, simple, env.simple(c), u.scale(u.coeffs[min(u.coeffs)].inv()))

    @cached_property
    def _steps(self) -> tuple[list[int], list[int]]:
        """Each simple's index after acting by 1 on the left, and on the right.

        Acting by 1 on the left moves the M leg of the object with index
        n*|M| + m to shift_m[m] = M.left[1][m], within its row n; acting on
        the right moves its N leg to shift_n[n] = N.right[1][n], into row
        shift_n[n].  Class c + k, the character k of a base whose End has
        dimension dim, goes to class_at(shift(base)) + (k + e(1)) mod p,
        given that e(b) = b e(1) on every rung of that End and that the
        shift keeps each leg simple it moves fixed or free, which keeps
        every End dimension; each leg's record (karoubi.leg) holds the e(1)
        and has checked both when the envelope was built, raising a
        ClassificationError on a failure.  These checks are the condition
        under which re-anchoring the acted projector I_k to the stored
        I_(k+e(1)) succeeds, so the tables assume no more than the witness
        route checks.  The tables are built a row at a time over the rows
        that make classes (see KarEnvelope._walk_rows), the left block of a
        row before its right block, each gathered in C.  The right block
        reads the target row shift_n[n], which need not make classes itself;
        class_row then gathers it off its base row.

        - the base row of a free N orbit steps on the left by shift_m, and
          on the right to its target row as it stands;
        - an N-fixed row follows M's leg pattern, one block of p classes per
          fixed M simple and one class per free M orbit, and steps into an
          N-fixed row.  Both of its blocks are offsets (_offsets) added to
          the first class of the row they land in: on the left, the same
          for every N-fixed row, with shift_m and each M base's own e(1); on
          the right, with no shift and the row's N leg's e(1), built once
          per e(1).  Each block is read by _block: the offsets themselves
          when its first class is 0, else one gather at them from the
          product's one class range, built on the first such block (T x T
          builds none).

        Each entry's e(1) and fixedness were checked on its own rung
        stabilizers, whatever the other factor, so the tables raise no
        fault.  A leg is fixed or free on every rung, so the End dimension
        of an object is read from its two legs.  No simple is built.
        """
        env, m_leg, n_leg = self.env, self.env.m, self.env.n
        shift_m, shift_n, n_e1, width = self.M.left[1], self.N.right[1], n_leg.e1, self._width
        lefts = [None, None]  # the left step of a free base row (a gatherer), of an N-fixed row (see _block)
        right_blocks: dict = {}  # e(1) -> the right step of an N-fixed row (see _block)
        classes: list[int] = []  # the class range that _block gathers from, filled on first use
        count, lstep, rstep = env.simple_count, [], []
        for n, r in enumerate(n_leg.rung):
            if r > 0:
                continue  # a row of a free N orbit other than its base makes no class
            fixed = r == FIXED
            if lefts[fixed] is None:
                lefts[fixed] = [self._offsets(shift_m, m_leg.e1), None] if fixed else gatherer(shift_m)
            row, target = env.class_row(n), env.class_row(shift_n[n])
            if fixed:
                lstep += _block(lefts[fixed], row[0], classes, count)
                block = right_blocks.get(n_e1[n])
                if block is None:
                    block = right_blocks[n_e1[n]] = [self._offsets(None, (n_e1[n],) * width), None]
                rstep += _block(block, target[0], classes, count)
            else:
                lstep += lefts[fixed](row)
                rstep += target
        return lstep, rstep

    def _offsets(self, shift: Sequence[int] | None, e1: Sequence[int]) -> list[int]:
        """A step block of an N-fixed row into an N-fixed row, counted from the first class of each.

        Per M orbit, in the order of M's leg pattern, with base x and e(1)
        e1[x]: class j of the row, the k-th class of x, goes to the target
        row's class of shift[x] (M's first, see karoubi.leg), plus (k +
        e(1)) mod p on a fixed x, and to that class on a free one.  A shift
        of None is the identity, read by M's pattern gatherer.  Returns
        those offsets, which _block adds to the target row's first class.
        """
        m, p = self.env.m, self.p
        first = m.first
        at = m.get(first) if shift is None else [first[shift[x]] for x in m.pattern]
        chars = []
        for x in m.bases:
            chars += _rotation(p, e1[x]) if m.rung[x] == FIXED else (0,)
        return list(map(add, at, chars))

    # -- mixed associator -----------------------------------------------------

    def mixed_associator(self, g: int, h: int, simple: KarSimple) -> int:
        """Exponent k with (left-g then right-h) = zeta^k (right-h then left-g).

        The index-level _associator on simple's base object index and its
        representative's coefficient dict.  A g or h that is not an int, a
        bool included, is a ValueError.
        """
        if type(g) is not int or type(h) is not int:
            raise ValueError(f"g and h must be integers, got {g!r} and {h!r}")
        return self._associator(g % self.p, h % self.p, self.env._bases[simple.class_index],
                                simple.representative.coeffs)

    def _associator(self, g: int, h: int, i: int, coeffs: dict) -> int:
        """mixed_associator for g and h in 0..p-1, on the idempotent with coeffs on the object of index i, a class base.

        Both witness paths (_witness_path) start from that idempotent.
        Landing on one class from one source, they lie in one
        one-dimensional absorbed Hom space; their dicts' ratio is read by
        proportionality and phase_exponent.  On an orbit fixed by both
        actions the connector gauges cancel in the ratio, so the exponent is
        canonical; the calibration makes the product of the one-object
        bimodule with cocycle q and the invertible X_l come out with
        exponent q*l at (1, 1).
        """
        c2, source, path_rl = self._witness_path("right", h, "left", g, i, coeffs)
        c2b, source_b, path_lr = self._witness_path("left", g, "right", h, i, coeffs)
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
        index i, a class representative.  It lands (KarEnvelope._land: acts
        and checks the acted dict against the stored primitive) on the
        object of index j, re-anchors through a connector u to the landing
        class's representative, of object index r1, lands that, re-anchors
        again through u2, and is the acted u followed by u2, all on indices
        and dicts: KarEnvelope._act acts on u, and _to_rep gives the
        connectors.  When the first landing j is its class's base (r1 ==
        j), the acted u is the acted idempotent, which the second landing
        has found equal to the stored e2 on every rung.  If u2 then lands on
        a base too, it is that e2, and e2 followed by e2 is e2 by the
        idempotent law, checked once per prime where the projectors are
        stored (karoubi._checked_idempotent; a free base's identity is the
        unit of the group algebra): the path is e2's dict, and nothing is
        built.  Every other path is lad.compose of two LadderMorphisms, the
        acted u and u2, on the route's only objects.
        """
        env = self.env
        j, c1, rung1, e1 = env._land(first, a, i, coeffs)
        r1 = env._bases[c1]  # the representative's object; e1 is its idempotent
        j2, c2, rung2, e2 = env._land(second, b, r1, e1)
        if r1 != j:
            source, _, w = env._act(second, b, j, r1, env._to_rep(j, c1, rung1, e1)[1])
        elif env._bases[c2] == j2:
            return c2, j2, e2  # a base: the acted idempotent is its idempotent e2, and e2 followed by e2 is e2
        else:
            source, w = j2, e2  # the acted idempotent, equal to e2
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

    def _stabilizer(self, i: int, size: int) -> int:
        """Stabilizer of simple i, whose orbit has the given size, as its position in _orbit_names.

        The stabilizer of an orbit of the Z_p x Z_p action has order
        p^2 / size, and any size other than 1, p or p^2 is a
        ClassificationError.  Size p^2 means the trivial subgroup and size 1
        the full group.  Size p
        means a line: <(0,1)> fixes i when rstep[i] == i, and <(1,t)> when t
        right steps bring lstep[i] back to i.  Exactly one line must fix i.
        """
        p = self.p  # positions: trivial, <(0,1)>, <(1,0)>, ..., <(1,p-1)>, full
        if size == p * p:
            return 0
        if size == 1:
            return p + 2
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
        return fixing[0]

    def _classified_orbits(self, every_exponent: bool) -> list[tuple]:
        """(simple, size, stabilizer, exponent, label), the OrbitInfo fields, for every orbit.

        The stabilizer and its label are read from _orbit_names at the
        position _stabilizer gives; a full stabilizer's label is F_q with q
        the exponent.  The witness associator (_associator) runs on the base
        index and stored idempotent of the orbit's first class on every
        orbit if every_exponent, where that class's simple is built for the
        OrbitInfo, else only on full-stabilizer orbits, the one place where
        it classifies, and no simple is built; the simple and the exponent
        are None elsewhere.  On any other orbit the witness paths would
        check, beyond the exponent, only that both land on one simple, and
        the commutation check of orbits covers that on every simple.
        """
        env, (subgroups, labels) = self.env, _orbit_names(self.p)
        out = []
        for first, size in self.orbits():
            k = self._stabilizer(first, size)
            label, simple, exponent = labels[k], None, None
            if every_exponent:
                simple = env.simple(first)
                exponent = self._associator(1, 1, env._bases[first], simple.representative.coeffs)
            elif label is None:
                i, _, e = env._base(first)
                exponent = self._associator(1, 1, i, e)
            out.append((simple, size, subgroups[k], exponent, label or BimoduleLabel("F", exponent)))
        return out

    def _decomposition(self, labels) -> Decomposition:
        decomposition = Decomposition.from_pairs((label, 1) for label in labels)
        total, count = decomposition.total_simples(self.p), self.env.simple_count
        if total != count:
            raise ClassificationError(f"decomposition covers {total} simples but the envelope has {count}")
        return decomposition

    def analyze(self) -> ProductAnalysis:
        """Every orbit with its associator exponent, invariant or not, and the decomposition."""
        infos = tuple(map(OrbitInfo._make, self._classified_orbits(every_exponent=True)))
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
    """Fill the worker's catalogue; the worker ignores SIGINT, so on Ctrl-C only the parent reports."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
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


def _fill(table: RingTable, pairs: list, products) -> None:
    """Set each pair's product in table, in order, checking its multiplicities as it lands."""
    p = table.p
    for (a, b), dec in zip(pairs, products):
        for _, mult in dec.summands:
            if mult not in (1, p):
                raise ClassificationError(f"product {a} x {b} produced multiplicity {mult}, expected 0, 1 or {p}")
        table.set_product(a, b, dec)


def build_table(p: int, workers: int | None = None) -> RingTable:
    """Structure constants from the fusion engine over all ordered label pairs.

    Each product is checked as it lands: a multiplicity other than 1 or p is
    a ClassificationError, and a serial run stops at the first such product.
    workers (default: BPRING_THREADS) is capped at os.cpu_count().  A pool
    gets the pairs in chunks of one table row each.  A worker that dies, as
    one killed for memory does, is an EngineError.  On any exception out of
    the loop, the parent starts no further chunk, waits for the running
    ones, at most one row each, and raises it, with no worker left.  The
    workers ignore SIGINT, so this holds on an interrupt too.
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

        try:
            with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(p,)) as pool:
                try:
                    _fill(table, pairs, pool.map(_worker_pair_product, *zip(*pairs), chunksize=len(table.basis)))
                except BaseException:
                    pool.shutdown(cancel_futures=True)  # start no queued chunk
                    raise
        except BrokenProcessPool as exc:
            raise EngineError("a worker process ended unexpectedly") from exc
    else:
        entries = _catalogue_by_label(p)
        _fill(table, pairs, (_pair_product(entries, a, b) for a, b in pairs))
    return table
