"""The dense ring-axiom check, kept as an oracle for the tests.

`bpring.ring.check_axioms` sums only over the nonzero entries of each row.
This is the plain loop over every (i, j, k, q): two full sums of length n
per step, O(n^5) in all.  It must give the same report, violations and
their order included.
"""

from bpring.bimodules import BimoduleLabel, Decomposition
from bpring.ring import AxiomReport, RingTable


def dense_check_axioms(table: RingTable, check_associativity: bool = True) -> AxiomReport:
    violations = []
    unit = BimoduleLabel("X", 1)
    unit_ok = True
    for a in table.basis:
        if table.product(unit, a) != Decomposition.single(a):
            violations.append(f"X1 x {a} != {a}")
            unit_ok = False
        if table.product(a, unit) != Decomposition.single(a):
            violations.append(f"{a} x X1 != {a}")
            unit_ok = False

    associativity_ok = True
    if check_associativity:
        n = len(table.basis)
        N = table.constants
        for i in range(n):
            for j in range(n):
                ij = N[i][j]
                for k in range(n):
                    jk = N[j][k]
                    for q in range(n):
                        lhs = sum(ij[e] * N[e][k][q] for e in range(n) if ij[e])
                        rhs = sum(jk[f] * N[i][f][q] for f in range(n) if jk[f])
                        if lhs != rhs:
                            associativity_ok = False
                            violations.append(
                                f"associativity fails at ({table.basis[i]}, {table.basis[j]}, "
                                f"{table.basis[k]}) -> {table.basis[q]}: {lhs} != {rhs}"
                            )
    return AxiomReport(unit_ok, associativity_ok, violations)
