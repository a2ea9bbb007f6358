"""Plain reference versions of the ring-table readers, kept as oracles for the tests.

`bpring.ring` reads the sparse cells of `RingTable.constants` with
shortcuts.  The functions here are the plain loops, and must give the same
results:

- `dense_check_axioms` is the plain loop over every (i, j, k) of a
  densified copy of the table: per triple, both sides as dense rows of n
  multiplicities, summed over the nonzero entries of a_i x a_j and of
  a_j x a_k, then compared entry by entry over q.  It must give the same
  report: both lists of findings, each in the same order.
- `scan_units_group` finds the units by scanning all n^2 pairs for a and b
  with a x b = b x a = X1, two `product` calls each.
- `product_diff_tables` compares the two tables' `product` on every cell.
- `plain_serialize_json` builds the whole payload, one `product` per cell,
  and hands it to `json.dumps(indent=2)`.  `serialize(table, "json")` must
  give the same bytes, and raise the same way where this does.

The tests edit a table through `dense_cell`, which hands out a cell as a
dense row of n multiplicities and writes the edited row back as a cell, so
a perturbed table is given by the same row edits as on a dense store.
"""

import json
from contextlib import contextmanager

from bpring.bimodules import BimoduleLabel, Decomposition
from bpring.ring import AxiomReport, RingTable, TableError, UnitsGroup, check_axioms


def dense_row(table: RingTable, i: int, j: int) -> list[int]:
    """Cell (i, j) as a dense row: the multiplicity of every basis index."""
    row = [0] * len(table.basis)
    for k, mult in table.constants[i][j]:
        row[k] = mult
    return row


@contextmanager
def dense_cell(table: RingTable, i: int, j: int):
    """Yield cell (i, j) as a dense row to edit, then store the row's nonzero entries as the cell."""
    row = dense_row(table, i, j)
    yield row
    table.constants[i][j] = tuple((k, mult) for k, mult in enumerate(row) if mult)


def densified(table: RingTable) -> list:
    """The (2p+2)^3 dense constants N[i][j][k] of a table."""
    n = range(len(table.basis))
    return [[dense_row(table, i, j) for j in n] for i in n]


def dense_check_axioms(table: RingTable) -> AxiomReport:
    unit, associativity = [], []
    one = BimoduleLabel("X", 1)
    for a in table.basis:
        if table.product(one, a) != Decomposition.single(a):
            unit.append(f"X1 x {a} != {a}")
        if table.product(a, one) != Decomposition.single(a):
            unit.append(f"{a} x X1 != {a}")

    n = len(table.basis)
    N = densified(table)
    # the nonzero entries (e, N[i][j][e]) of every product a_i x a_j
    terms = [[[(e, m) for e, m in enumerate(row) if m] for row in rows] for rows in N]
    for i in range(n):
        for j in range(n):
            ij = terms[i][j]
            for k in range(n):
                # (a_i x a_j) x a_k and a_i x (a_j x a_k) as dense rows over q
                lhs, rhs = [0] * n, [0] * n
                for e, m in ij:
                    lhs = [a + m * x for a, x in zip(lhs, N[e][k])]
                for f, m in terms[j][k]:
                    rhs = [a + m * x for a, x in zip(rhs, N[i][f])]
                if lhs == rhs:
                    continue
                for q in range(n):
                    if lhs[q] != rhs[q]:
                        associativity.append(
                            f"associativity fails at ({table.basis[i]}, {table.basis[j]}, "
                            f"{table.basis[k]}) -> {table.basis[q]}: {lhs[q]} != {rhs[q]}"
                        )
    return AxiomReport(unit, associativity)


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

    def conjugate(x):  # F1 x x x F1
        u = mul[(f1, x)]
        if u not in units:
            raise TableError(f"unit product {f1} x {x} is {u}, not a unit")
        return mul[(u, f1)]

    conjugation_ok = f1 in units and all(
        conjugate(x) == BimoduleLabel("X", pow(x.index, p - 2, p)) for x in xs
    )
    return UnitsGroup(tuple(units), cyclic_ok, involution_ok, conjugation_ok)


def product_diff_tables(t1: RingTable, t2: RingTable) -> list[str]:
    if t1.p != t2.p:
        return [f"incomparable tables (p={t1.p} vs p={t2.p})"]
    out = []
    for a in t1.basis:
        for b in t1.basis:
            d1, d2 = t1.product(a, b), t2.product(a, b)
            if d1 != d2:
                out.append(f"{a} x {b}: {d1} != {d2}")
    return out


def plain_serialize_json(table: RingTable) -> str:
    # check_axioms rather than dense_check_axioms, which is dense over n^3
    # triples at n = 36 for p=17; the tests check the two against each other
    report = check_axioms(table)
    products = {
        f"{a},{b}": [
            {"label": str(label), "mult": mult} for label, mult in table.product(a, b).summands
        ]
        for a in table.basis
        for b in table.basis
    }
    units = scan_units_group(table)
    payload = {
        "p": table.p,
        "basis": [str(b) for b in table.basis],
        "products": products,
        "units": {
            "order": units.order,
            "labels": [str(u) for u in units.labels],
            "dihedral": units.is_dihedral(),
        },
        "checks": {"unit": report.unit_ok, "associativity": report.associativity_ok},
    }
    return json.dumps(payload, indent=2) + "\n"
