"""Plain reference versions of the ring-table readers, kept as oracles for the tests.

`bpring.ring` reads the rows of `RingTable.constants` with shortcuts.  The
functions here are the plain loops, and must give the same results:

- `dense_check_axioms` is the plain loop over every (i, j, k, q): two full
  sums of length n per step, O(n^5) in all.  It must give the same report,
  violations and their order included.
- `scan_units_group` finds the units by scanning all n^2 pairs for a and b
  with a x b = b x a = X1, two `product` calls each.
- `product_diff_tables` compares the two tables' `product` on every cell.
"""

from bpring.bimodules import BimoduleLabel, Decomposition
from bpring.ring import AxiomReport, RingTable, TableError, UnitsGroup


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


def scan_units_group(table: RingTable) -> UnitsGroup:
    p = table.p
    unit = BimoduleLabel("X", 1)
    units = []
    for a in table.basis:
        for b in table.basis:
            if (
                table.product(a, b) == Decomposition.single(unit)
                and table.product(b, a) == Decomposition.single(unit)
            ):
                units.append(a)
                break
    mul = {}
    for a in units:
        for b in units:
            dec = table.product(a, b)
            if len(dec.summands) != 1 or dec.summands[0][1] != 1:
                raise TableError(f"unit product {a} x {b} is not a single label")
            mul[(a, b)] = dec.summands[0][0]

    xs = [u for u in units if u.kind == "X"]
    cyclic_ok = len(xs) == p - 1 and all(
        mul[(BimoduleLabel("X", k), BimoduleLabel("X", l))] == BimoduleLabel("X", (k * l) % p)
        for k in range(1, p)
        for l in range(1, p)
    )
    f1 = BimoduleLabel("F", 1)
    involution_ok = f1 in units and mul[(f1, f1)] == unit
    conjugation_ok = f1 in units and all(
        mul[(mul[(f1, x)], f1)] == BimoduleLabel("X", pow(x.index, p - 2, p))
        for x in xs
    )
    return UnitsGroup(tuple(units), len(units), mul, cyclic_ok, involution_ok, conjugation_ok)


def product_diff_tables(t1: RingTable, t2: RingTable) -> list[str]:
    if t1.p != t2.p or t1.basis != t2.basis:
        return [f"incomparable tables (p={t1.p} vs p={t2.p})"]
    out = []
    for a in t1.basis:
        for b in t1.basis:
            d1, d2 = t1.product(a, b), t2.product(a, b)
            if d1 != d2:
                out.append(f"{a} x {b}: {d1} != {d2}")
    return out
