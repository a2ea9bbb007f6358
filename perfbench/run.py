"""Run one benchmark workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload table-p7 --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; bpring is imported from ./src.  One
caller runs passes back to back until --seconds have gone by (at least one
pass), checks every pass against an independent reference, and prints one
line per metric followed by a JSON result line.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes and
reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
TAIL_MIN_BEYOND = 10  # the tail percentile keeps at least this many samples above it
PROBE_TIMEOUT_S = 120


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    factor: float  # machine-speed factor sampled during the pass (speed.py)
    items_ms: list
    items_adj_ms: list  # each item times the speed factor sampled during it
    attempted: int
    failed: int
    errors: list
    layers: dict = field(default_factory=dict)
    fractions: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)
    top: list = field(default_factory=list)


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child that has ended (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail(samples: list) -> tuple[float, str]:
    """The highest percentile with at least TAIL_MIN_BEYOND samples above it."""
    xs = sorted(samples)
    n = len(xs)
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return xs[rank - 1], f"p{q:g} of {n} samples"
    return xs[-1], f"max of {n} samples (too few for a percentile with {TAIL_MIN_BEYOND} above it)"


def conditions() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "cpu": cpu}


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """(measured, speed-adjusted) seconds of one set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    wall, factor = map(float, out.stdout.split())
    return wall, wall * factor


def timed_pass(workload, state, tracer=None) -> Pass:
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with speed.Sampler() as sampler:
            c0, t0 = cpu_seconds(), time.perf_counter()
            output, items = workload.run(state)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    finally:
        if tracer is not None:
            tracer.restore()
    attempted, failed, errors = workload.check(state, output)
    items_ms = [(b - a) * 1000.0 for a, b in items]
    items_adj_ms = [ms * sampler.factor(a, b) for ms, (a, b) in zip(items_ms, items)]
    done = Pass(wall, cpu, sampler.factor(), items_ms, items_adj_ms, attempted, failed, errors)
    if tracer is not None:
        done.layers, done.fractions = tracer.snapshot(), tracer.fractions()
        done.exact, done.top = tracer.exact_counts(), tracer.top_spans()
    return done


def end_to_end(setups: list, plain: list) -> tuple[dict, list]:
    """Speed-adjusted metrics for the result line; the notes also give measured ones."""
    items = [x for p in plain for x in p.items_adj_ms]
    tail_ms, tail_note = tail(items)
    metrics = {
        "setup_s": (statistics.median(adj for _, adj in setups), "s"),
        "pass_s": (statistics.median(p.wall_s * p.factor for p in plain), "s"),
        "cpu_s": (statistics.median(p.cpu_s * p.factor for p in plain), "s"),
        "item_p50_ms": (statistics.median(items), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw_items = [x for p in plain for x in p.items_ms]
    notes = [
        "times below are speed-adjusted (speed.py); measured values follow here",
        f"measured setup_s     {statistics.median(w for w, _ in setups):.4f} s, median of "
        f"{len(setups)} set-ups in fresh interpreters: " + " ".join(f"{w:.4f}" for w, _ in setups),
        f"measured pass_s      {statistics.median(p.wall_s for p in plain):.4f} s, median of "
        f"{len(plain)} passes: " + " ".join(f"{p.wall_s:.4f}" for p in plain),
        f"measured cpu_s       {statistics.median(p.cpu_s for p in plain):.4f} s",
        f"measured item_p50_ms {statistics.median(raw_items):.4f} ms, median of {len(items)} items",
        f"measured item_tail_ms {tail(raw_items)[0]:.4f} ms, {tail_note}",
        "speed factor per pass: " + " ".join(f"{p.factor:.4f}" for p in plain),
    ]
    return metrics, notes


def per_layer(plain: list, traced: list) -> tuple[dict, list]:
    """Per-layer metrics; times are speed-adjusted with each traced pass's factor."""
    metrics = {}
    for name, (unit, _) in spans.per_layer_units().items():
        if name == "trace.overhead_frac":
            ratio = statistics.median(p.wall_s * p.factor for p in traced) / statistics.median(
                p.wall_s * p.factor for p in plain)
            metrics[name] = (ratio - 1.0, unit)
        else:
            metrics[name] = (statistics.median(
                p.layers[name] * (p.factor if unit == "s" else 1) for p in traced), unit)
    repeat = all(p.exact == traced[0].exact for p in traced)
    notes = [
        f"traced passes {len(traced)}, untraced passes {len(plain)}; "
        f"times are medians over traced passes",
        f"counts repeat exactly across traced passes: {'yes' if repeat else 'NO'}"
        + (" (one traced pass: compare two runs)" if len(traced) == 1 else ""),
    ]
    for name, (num, den) in traced[0].fractions.items():
        notes.append(f"{name:34s} " + (f"{num / den:14.6f} ratio  ({num} / {den})" if den else
                                        f"{'undefined':>14s}        (0 / 0: never called)"))
    notes.append("top spans by measured self time, first traced pass (span, calls, self_s):")
    notes += [f"  {span:55s} {calls:10d} {t:10.4f}" for span, calls, t in traced[0].top]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bpring" / "__init__.py").is_file():
        print(f"error: no bpring sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports bpring from SRC

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    setups = [] if args.trace else [
        probe_setup(workload.name, args.seed) for _ in range(SETUP_REPEATS)]
    state = workload.setup(args.seed)
    tracer = spans.Tracer() if args.trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(timed_pass(workload, state))
        if tracer is not None:
            traced.append(timed_pass(workload, state, tracer))
        if time.perf_counter() >= deadline:
            break
    load_end = os.getloadavg()

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if tracer is not None:
        metrics, notes = per_layer(plain, traced)
    else:
        metrics, notes = end_to_end(setups, plain)

    print(f"workload      {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 caller")
    print(f"inputs        {workload.describe(state)}")
    cond = conditions()
    print(f"conditions    python {cond['python']}  nproc {cond['nproc']}  cpu {cond['cpu']}  "
          f"loadavg start {' '.join(f'{x:.2f}' for x in load_start)}  "
          f"end {' '.join(f'{x:.2f}' for x in load_end)}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(f"{'fail_frac':34s} {failed / attempted:14.6f} ratio  ({failed} of {attempted} items)")
    for err in [e for p in passes for e in p.errors][:10]:
        print(f"mismatch      {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
