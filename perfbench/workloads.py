"""The benchmark workloads: inputs from a seed, one timed pass, and its checks.

Each workload has `setup(seed)` (inputs, reference, warm-up), `run(state)` (the
timed pass; returns its output and the (start, end) perf_counter stamps of
each item) and `check(state, output)` (untimed; returns attempted, failed and
messages).  An item that raises or disagrees with the reference is counted as
failed; the run goes on.  Engine calls go through the `bpring` package
namespace so that the traced run sees them.
"""

from __future__ import annotations

import random
import time
from types import SimpleNamespace

import bpring

# The smallest prime: every warm-up runs the workload's own code path at p=2.
WARM_P = 2


class Table:
    """`build_table(p, workers=1)`: every ordered pair, checked against the closed form.

    An item is one ordered pair; the parent stamps each result as it reaches
    `RingTable.set_product`, and an item's latency is the interval since the
    previous result.
    """

    def __init__(self, name: str, p: int):
        self.name, self.p = name, p

    def describe(self, state) -> str:
        return f"build_table({state.p}, workers=1); the seed is not used"

    def setup(self, seed: int):
        self.run(SimpleNamespace(p=WARM_P))
        return SimpleNamespace(p=self.p, reference=bpring.closed_form_table(self.p))

    def run(self, state):
        stamps = [time.perf_counter()]
        inner = bpring.RingTable.set_product

        def stamped(table, a, b, dec):
            inner(table, a, b, dec)
            stamps.append(time.perf_counter())

        bpring.RingTable.set_product = stamped
        try:
            table = bpring.build_table(state.p, workers=1)
        except Exception as exc:  # counted as failed items by check()
            table = exc
            stamps.append(time.perf_counter())
        finally:
            bpring.RingTable.set_product = inner
        return table, list(zip(stamps, stamps[1:]))

    def check(self, state, table):
        ref = state.reference
        pairs = [(a, b) for a in ref.basis for b in ref.basis]
        if isinstance(table, Exception):
            return len(pairs), len(pairs), [f"build_table raised {table!r}"]
        if tuple(table.basis) != tuple(ref.basis):
            return len(pairs), len(pairs), ["basis differs from the closed form's"]
        bad = [f"{a} x {b}: {table.product(a, b)} != {ref.product(a, b)}"
               for a, b in pairs if table.product(a, b) != ref.product(a, b)]
        return len(pairs), len(bad), bad


class Products:
    """`RelativeTensorProduct(M, N).analyze()` on five products, one item each.

    The seed picks the indices k, q, r, a, b of X_k x T, F_q x F_r and X_a x X_b.
    Each result is checked against `closed_form_product` and against the
    object, simple and orbit counts that the labels predict.
    """

    def __init__(self, name: str, p: int):
        self.name, self.p = name, p

    def describe(self, state) -> str:
        return ", ".join(f"{a} x {b}" for a, b in state.pairs)

    def _state(self, p: int, seed: int):
        rng = random.Random(seed)
        k, q, r, a, b = (rng.randrange(1, p) for _ in range(5))
        pairs = [("R", "L"), (f"X{k}", "T"), ("R", "F0"), (f"F{q}", f"F{r}"), (f"X{a}", f"X{b}")]
        parsed = [(bpring.label_parse(a), bpring.label_parse(b)) for a, b in pairs]
        entries = {lab: bpring.catalogue_entry(p, lab) for pair in parsed for lab in pair}
        reference = {}
        for a, b in parsed:
            dec = bpring.closed_form_product(p, a, b)
            reference[(a, b)] = SimpleNamespace(
                decomposition=dec,
                objects=a.simple_count(p) * b.simple_count(p),
                simples=dec.total_simples(p),
                orbits=sum(mult for _, mult in dec.summands),
            )
        return SimpleNamespace(p=p, pairs=pairs, parsed=parsed, entries=entries,
                               reference=reference)

    def setup(self, seed: int):
        self.run(self._state(WARM_P, seed))
        return self._state(self.p, seed)

    def run(self, state):
        results, items = [], []
        for a, b in state.parsed:
            t0 = time.perf_counter()
            try:
                res = bpring.RelativeTensorProduct(state.entries[a], state.entries[b]).analyze()
            except Exception as exc:  # counted as a failed item by check()
                res = exc
            items.append((t0, time.perf_counter()))
            results.append(res)
        return results, items

    def check(self, state, results):
        bad = []
        for (a, b), res in zip(state.parsed, results):
            ref = state.reference[(a, b)]
            if isinstance(res, Exception):
                bad.append(f"{a} x {b} raised {res!r}")
                continue
            got = (res.decomposition, res.object_count, res.simple_count, len(res.orbits))
            want = (ref.decomposition, ref.objects, ref.simples, ref.orbits)
            if got != want:
                bad.append(f"{a} x {b}: (decomposition, objects, simples, orbits) {got} != {want}")
        return len(state.parsed), len(bad), bad


class Verify:
    """Closed form against the wall oracle, ring axioms, units, JSON round trip.

    The engine is never called.  One item is one whole verification; each of
    its five checks is counted in attempted and failed.  The checks are not
    timed as items of their own: three of the five take 10-30 ms, and the
    median of such short items spread up to 22% between runs.
    """

    def __init__(self, name: str, p: int):
        self.name, self.p = name, p

    def describe(self, state) -> str:
        return f"verify p={state.p}; the seed is not used"

    def _state(self, p: int):
        return SimpleNamespace(p=p, reference={
            "oracle_diff": [], "axioms_ok": True, "units": (2 * (p - 1), True),
            "serialized": True, "roundtrip_diff": [],
        })

    def setup(self, seed: int):
        self.run(self._state(WARM_P))
        return self._state(self.p)

    def run(self, state):
        t0 = time.perf_counter()
        try:
            closed = bpring.closed_form_table(state.p)
            found = {"oracle_diff": bpring.diff_tables(closed, bpring.oracle_table(state.p)),
                     "axioms_ok": bpring.check_axioms(closed).ok()}
            units = bpring.units_group(closed)
            found["units"] = (units.order, units.is_dihedral())
            text = bpring.serialize(closed, "json")
            found["serialized"] = isinstance(text, str) and text.startswith("{")
            found["roundtrip_diff"] = bpring.diff_tables(closed, bpring.parse_json(text))
        except Exception as exc:  # counted as failed checks by check()
            found = exc
        return found, [(t0, time.perf_counter())]

    def check(self, state, found):
        ref = state.reference
        if isinstance(found, Exception):
            return len(ref), len(ref), [f"verification raised {found!r}"]
        bad = [f"{key}: {found[key]!r} != {want!r}" for key, want in ref.items()
               if found[key] != want]
        return len(ref), len(bad), bad


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Table("table-p7", 7),
    Products("products-p11", 11),
    Verify("verify-p17", 17),
)}
