"""Per-layer spans for the traced benchmark run.

`Tracer.install()` replaces the public functions and methods of the engine
modules with timing wrappers, in memory only; `restore()` puts the originals
back.  Nothing under src/bpring is edited.  A span's self time is its duration
minus the time of the spans it called.  Counting hooks run outside every span,
so their cost shows only in the traced pass time, never in a self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# The package modules that are timed; `groups` and `cli` are too thin.
LAYERS = ("cyclotomic", "bimodules", "ladders", "karoubi", "fusion", "ring", "walls")

# Arithmetic dunders are wrapped on top of the public methods.
ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__pow__")

# Leaf helpers run for every scalar built or every action looked up, each for
# well under a microsecond; wrapping them would double the traced pass time.
# Their time stays in the span that calls them.
UNWRAPPED = ("cyclotomic.is_prime", "cyclotomic.require_prime",
             "bimodules.BimoduleData.left", "bimodules.BimoduleData.right")

PACKAGE = "bpring"
ENVELOPE = "karoubi.KarEnvelope.__init__"

# Reported metric prefix -> span name ("<layer>.<function>" or "<layer>.<Class>.<method>").
SPAN_OF = {
    "cyclotomic.mul": "cyclotomic.CyclotomicScalar.__mul__",
    "cyclotomic.inv": "cyclotomic.CyclotomicScalar.inv",
    "ladders.compose": "ladders.LadderCategory.compose",
    "karoubi.envelope": ENVELOPE,
    "karoubi.anchor": "karoubi.KarEnvelope.anchor",
    "fusion.outer_action": "fusion.RelativeTensorProduct.outer_action",
    "fusion.mixed_associator": "fusion.RelativeTensorProduct.mixed_associator",
    "fusion.analyze": "fusion.RelativeTensorProduct.analyze",
    "bimodules.catalogue_entry": "bimodules.catalogue_entry",
    "ring.build_table": "ring.build_table",
    "ring.check_axioms": "ring.check_axioms",
    "ring.serialize": "ring.serialize",
    "ring.parse_json": "ring.parse_json",
    "ring.diff_tables": "ring.diff_tables",
    "ring.units_group": "ring.units_group",
    "walls.oracle_table": "walls.oracle_table",
}
CALLS = ("cyclotomic.mul", "cyclotomic.inv", "ladders.compose", "karoubi.envelope",
         "karoubi.anchor", "fusion.outer_action", "fusion.mixed_associator",
         "bimodules.catalogue_entry")
SELF = ("cyclotomic.mul", "cyclotomic.inv", "ladders.compose", "karoubi.envelope",
        "fusion.outer_action", "fusion.mixed_associator", "fusion.analyze",
        "bimodules.catalogue_entry", "ring.build_table", "ring.check_axioms",
        "ring.serialize", "ring.parse_json", "ring.diff_tables", "ring.units_group",
        "walls.oracle_table")
TOTAL = ("karoubi.envelope",)
# Counts made by the hooks below; with the *.calls metrics these must repeat exactly.
# `karoubi.envelope.compose_calls` counts the `compose` calls made inside envelope
# construction, the denominator of `karoubi.connect_yield`.
COUNTS = ("ladders.objects", "karoubi.simples", "fusion.orbits", "karoubi.envelope.compose_calls")


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for m in CALLS:
        out[f"{m}.calls"] = ("count", "lower")
    for m in SELF:
        out[f"{m}.self_s"] = ("s", "lower")
    for m in TOTAL:
        out[f"{m}.total_s"] = ("s", "lower")
    for m in COUNTS:
        out[m] = ("count", "lower")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


def _in_zp_inv(x, p: int) -> bool:
    """True when every coefficient's denominator is a power of p."""
    for c in x.coeffs:
        d = c.denominator
        if d != 1:
            while d % p == 0:
                d //= p
            if d != 1:
                return False
    return True


def _is_monomial(x) -> bool:
    """True when x == c * zeta^k for a rational c (canonical basis, top coefficient 0)."""
    nonzero = [c for c in x.coeffs if c]
    return len(nonzero) == 1 or (len(nonzero) == x.p - 1 and len(set(nonzero)) == 1)


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self._records: dict = {}  # span -> [calls, self_s, total_s, open depth]
        self._stack = [0.0]  # child time of each open span; the first is a root
        self._undo: list = []
        self._hooks = {
            "cyclotomic.CyclotomicScalar.__mul__": self._on_mul,
            "cyclotomic.CyclotomicScalar.inv": self._on_inv,
            "ladders.LadderCategory.compose": self._on_compose,
            "ladders.LadderCategory.objects": self._on_objects,
            "karoubi.primitive_idempotents": self._on_primitives,
            ENVELOPE: self._on_envelope,
            "fusion.RelativeTensorProduct.analyze": self._on_analyze,
        }

    def _record(self, span: str) -> list:
        return self._records.get(span, [0, 0.0, 0.0, 0])

    def _open(self, span: str) -> bool:
        return self._record(span)[3] > 0

    # -- counting hooks: (args, result) of a finished call ------------------

    def _on_mul(self, args, result):
        kind, p = type(result), result.p
        if all(_in_zp_inv(x, p) for x in (*args, result) if type(x) is kind):
            self.counts["mul.zpinv"] += 1

    def _on_inv(self, args, result):
        if _is_monomial(args[0]):
            self.counts["inv.monomial"] += 1

    def _on_compose(self, args, result):
        if self._open(ENVELOPE):
            self.counts["karoubi.envelope.compose_calls"] += 1

    def _on_objects(self, args, result):
        self.counts["ladders.objects"] += len(result)

    def _on_primitives(self, args, result):
        if self._open(ENVELOPE):
            self.counts["envelope.primitives"] += len(result)

    def _on_envelope(self, args, result):
        self.counts["karoubi.simples"] += len(args[0].simples)

    def _on_analyze(self, args, result):
        self.counts["fusion.orbits"] += len(result.orbits)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        rec = self._records.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock = self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[0] += 1
            rec[3] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[3] -= 1
                rec[1] += dt - stack.pop()
                stack[-1] += dt
                if not rec[3]:
                    rec[2] += dt
            if hook is not None:
                h0 = clock()
                hook(args, result)
                stack[-1] += clock() - h0
            return result

        return wrapper

    def _wanted(self, cls, attr: str) -> bool:
        if attr == "__init__":
            # Structures are timed; value types (dataclasses, slotted scalars) are not.
            return not dataclasses.is_dataclass(cls) and "__slots__" not in vars(cls)
        return attr in ARITHMETIC or not attr.startswith("_")

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if f"{layer}.{attr}" in UNWRAPPED:
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:  # every module that imported the name
                        for key, value in list(vars(m).items()):
                            if value is obj:
                                self._set(m, key, wrapper, obj)
                elif inspect.isclass(obj):
                    for name, raw in list(vars(obj).items()):
                        span = f"{layer}.{obj.__name__}.{name}"
                        if span in UNWRAPPED or not self._wanted(obj, name):
                            continue
                        if isinstance(raw, (classmethod, staticmethod)):
                            self._set(obj, name, type(raw)(self._wrap(span, raw.__func__)), raw)
                        elif inspect.isfunction(raw):
                            self._set(obj, name, self._wrap(span, raw), raw)

    def _set(self, owner, name, new, old) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def reset(self) -> None:
        self.counts.clear()
        for rec in self._records.values():
            rec[:] = [0, 0.0, 0.0, 0]

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        out = {}
        for m in CALLS:
            out[f"{m}.calls"] = self._record(SPAN_OF[m])[0]
        for m in SELF:
            out[f"{m}.self_s"] = self._record(SPAN_OF[m])[1]
        for m in TOTAL:
            out[f"{m}.total_s"] = self._record(SPAN_OF[m])[2]
        for m in COUNTS:
            out[m] = self.counts[m]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                rec[1] for span, rec in self._records.items() if span.startswith(layer + "."))
        return out

    def fractions(self) -> dict[str, tuple[int, int]]:
        """Ratios of hook counts -> (numerator, denominator).

        They are printed, not reported as metrics: on a workload that never
        calls the layer the ratio is 0/0, which has no value to compare.
        """
        # Connections are the primitives that are not the base of their class.
        connections = max(0, self.counts["envelope.primitives"] - self.counts["karoubi.simples"])
        return {
            "cyclotomic.inv.monomial_frac": (self.counts["inv.monomial"],
                                             self._record(SPAN_OF["cyclotomic.inv"])[0]),
            "cyclotomic.zpinv_frac": (self.counts["mul.zpinv"],
                                      self._record(SPAN_OF["cyclotomic.mul"])[0]),
            "karoubi.connect_yield": (connections, self.counts["karoubi.envelope.compose_calls"]),
        }

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly between two traced passes."""
        calls = {span: rec[0] for span, rec in self._records.items() if rec[0]}
        return {"calls": calls, "counts": dict(self.counts)}

    def top_spans(self, n: int = 12) -> list[tuple[str, int, float]]:
        ranked = sorted(self._records.items(), key=lambda kv: -kv[1][1])
        return [(span, rec[0], rec[1]) for span, rec in ranked if rec[0]][:n]
