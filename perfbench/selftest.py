"""Self-test of the benchmark's checks and tracing, on small inputs (about 15 s).

    python3 perfbench/selftest.py

1. Every workload passes its checks against the true reference.
2. A deliberately corrupted reference, or an input that makes the engine
   raise, gives fail_frac > 0 and the pass still completes.
3. Two traced passes give identical call counts and hook counts, and
   restoring the tracer puts every original function back.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import bpring  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(("PASS  " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def fail_frac(workload, state) -> float:
    done = run.timed_pass(workload, state)
    return done.failed / done.attempted


def corrupt_table(state):
    ref = state.reference
    a, b = ref.basis[0], ref.basis[1]
    ref.set_product(a, b, bpring.Decomposition.single(ref.basis[2]))


def corrupt_products(state):
    state.reference[state.parsed[1]].objects += 1


def corrupt_verify(state):
    order, dihedral = state.reference["units"]
    state.reference["units"] = (order + 1, dihedral)


SMALL = [
    (workloads.Table("table-p3", 3), corrupt_table),
    (workloads.Products("products-p5", 5), corrupt_products),
    (workloads.Verify("verify-p5", 5), corrupt_verify),
]

for workload, corrupt in SMALL:
    state = workload.setup(seed=7)
    expect(fail_frac(workload, state) == 0, f"{workload.name}: fail_frac is 0 on the true reference")
    corrupt(state)
    expect(fail_frac(workload, state) > 0, f"{workload.name}: corrupted reference gives fail_frac > 0")

products = workloads.Products("products-p5", 5)
state = products.setup(seed=7)
del state.entries[state.parsed[0][0]]
expect(fail_frac(products, state) > 0, "products-p5: an item that raises is counted, the pass completes")
table = workloads.Table("table-p3", 3)
state = table.setup(seed=7)
state.p = 4  # not prime: build_table raises
expect(fail_frac(table, state) == 1, "table: a pass that raises counts every pair as failed")
verify = workloads.Verify("verify-p5", 5)
state = verify.setup(seed=7)
state.p = 4  # not prime: the verification raises
expect(fail_frac(verify, state) == 1, "verify: a verification that raises fails all five checks")

originals = (bpring.build_table, bpring.CyclotomicScalar.__mul__, bpring.KarEnvelope.__init__)
for workload in (workloads.Table("table-p5", 5), workloads.Products("products-p5", 5)):
    state = workload.setup(seed=11)
    tracer = spans.Tracer()
    first = run.timed_pass(workload, state, tracer)
    second = run.timed_pass(workload, state, tracer)
    expect(first.exact == second.exact and first.layers["cyclotomic.mul.calls"] > 0,
           f"{workload.name}: two traced passes give identical counts")
expect(first.layers["karoubi.simples"] > 0 and first.layers["fusion.orbits"] > 0,
       "traced products pass records simples and orbits")
expect((bpring.build_table, bpring.CyclotomicScalar.__mul__, bpring.KarEnvelope.__init__)
       == originals, "restore() puts the original functions back")

expect(run.tail(list(range(256)))[1].startswith("p95 of 256"), "tail of 256 samples is p95")
expect(run.tail([1.0, 2.0, 3.0])[0] == 3.0, "tail of 3 samples is their maximum")

print(f"{len(failures)} failed")
sys.exit(1 if failures else 0)
