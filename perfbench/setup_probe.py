"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

The set-up is the import of bpring, the workload's inputs and reference, and
its warm-up pass at p=2.  Prints the measured seconds and the machine-speed
factor sampled meanwhile (speed.py).  run.py starts this several times and
reports the median, so that work moved into import or set-up shows in setup_s.
"""

import sys
import time
from pathlib import Path

import speed

# A set-up lasts a few tenths of a second: sample the speed more often.
with speed.Sampler(interval_s=0.004) as sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads  # noqa: E402  (imports bpring: part of the timed set-up)

    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    wall = time.perf_counter() - t0
print(repr(wall), repr(sampler.factor()))
