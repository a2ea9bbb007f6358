"""The Brauer-Picard ring table of Vec(Z_p), shared by the three routes.

RingTable holds the structure constants over the 2p+2 indecomposable labels.
Each route fills one: bpring.fusion.build_table from the ladder/Karoubi
engine, bpring.closed_form.closed_form_table from the hand-written law, and
bpring.walls.oracle_table from wall stacking.  This module holds only what
reads a table: diff_tables, check_axioms, units_group (the dihedral group of
invertible labels), serialize and parse_json.  It imports no route, so the
routes can share it and stay independent; tests/test_import_graph.py checks
this.

The readers work on cell indices, and in one call each distinct cell (a row
of constants) is worked on once: check_axioms turns it into its sparse
(index, mult) pairs once, and serialize(table, "json") writes its JSON text
once.  These per-call tables are dropped when the call returns, so an
in-place edit of constants is seen by the next call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter

from .bimodules import BimoduleLabel, Decomposition, all_labels


class TableError(RuntimeError):
    """A table breaks an invariant that one of its readers relies on."""


@dataclass
class RingTable:
    """Dense structure constants N[i][j][k] over the canonical label basis.

    `constants` is the only store: every reader works on its rows when
    called, so an in-place edit of a row is seen by the next read.
    """

    p: int
    basis: tuple[BimoduleLabel, ...]
    constants: list  # (2p+2)^3 nested lists of nonnegative ints

    def index(self, label: BimoduleLabel) -> int:
        return self._index[label]

    def __post_init__(self):
        self._index = {label: i for i, label in enumerate(self.basis)}

    def product(self, a: BimoduleLabel, b: BimoduleLabel) -> Decomposition:
        row = self.constants[self._index[a]][self._index[b]]
        mults = tuple(compress(row, row))
        if min(mults, default=0) < 0:
            raise ValueError("multiplicities must be positive")
        # the basis is in canonical order, so the nonzero entries already are
        return Decomposition(tuple(zip(compress(self.basis, row), mults)))

    def set_product(self, a: BimoduleLabel, b: BimoduleLabel, dec: Decomposition) -> None:
        index = self._index
        row = [0] * len(self.basis)
        for label, mult in dec.summands:
            row[index[label]] = mult
        self.constants[index[a]][index[b]] = row

    @classmethod
    def from_cells(cls, p: int, rows) -> "RingTable":
        """The table whose cell (i, j) is one label: rows[i][j] = (basis index, multiplicity).

        Each cell gets its own row list, so an edit of one cell moves no other.
        """
        basis = tuple(all_labels(p))
        n = len(basis)
        constants = []
        for row in rows:
            cells = []
            for k, mult in row:
                cell = [0] * n
                cell[k] = mult
                cells.append(cell)
            constants.append(cells)
        return cls(p, basis, constants)

    @classmethod
    def empty(cls, p: int) -> "RingTable":
        basis = tuple(all_labels(p))
        n = len(basis)
        return cls(p, basis, [[[0] * n for _ in range(n)] for _ in range(n)])


def diff_tables(t1: RingTable, t2: RingTable) -> list[str]:
    """Located mismatches between two tables over the same basis."""
    if t1.p != t2.p or t1.basis != t2.basis:
        return [f"incomparable tables (p={t1.p} vs p={t2.p})"]
    out = []
    for a, rows1, rows2 in zip(t1.basis, t1.constants, t2.constants):
        if rows1 == rows2:
            continue
        for b, row1, row2 in zip(t1.basis, rows1, rows2):
            if row1 != row2:
                out.append(f"{a} x {b}: {t1.product(a, b)} != {t2.product(a, b)}")
    return out


# -- ring axioms ---------------------------------------------------------------

@dataclass
class AxiomReport:
    unit_ok: bool
    associativity_ok: bool
    violations: list = field(default_factory=list)

    def ok(self) -> bool:
        return self.unit_ok and self.associativity_ok


def check_axioms(table: RingTable, check_associativity: bool = True) -> AxiomReport:
    """Verify that X_1 is a two-sided unit and that the ring is associative."""
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
        # Each cell is its nonzero (index, mult) pairs, one object per distinct
        # row.  For each (i, j), (a.b).c and a.(b.c) are built as whole rows
        # over k and compared in one step; k and q are walked only when the
        # rows differ.
        cols = range(len(table.basis))
        keys = [list(map(tuple, rows)) for rows in table.constants]
        cell_of = {
            key: tuple(zip(compress(cols, key), compress(key, key)))
            for key in set(chain.from_iterable(keys))
        }
        nz = [tuple(map(cell_of.__getitem__, row_keys)) for row_keys in keys]
        # a.(b.c) reads each single cell f of row j with multiplicity 1 as
        # cell f of row i, and sums the other cells of row j
        gather, rest = [], []
        for nz_j in nz:
            single = [cell[0][0] if len(cell) == 1 and cell[0][1] == 1 else None for cell in nz_j]
            gather.append(itemgetter(*(0 if f is None else f for f in single)))
            rest.append([(k, cell) for k, (f, cell) in enumerate(zip(single, nz_j)) if f is None])
        for i in cols:
            nz_i = nz[i]
            for j in cols:
                ij = nz_i[j]
                if len(ij) == 1 and ij[0][1] == 1:
                    lhs = nz[ij[0][0]]
                else:
                    lhs = tuple(_sparse_sum([(m, nz[e][k]) for e, m in ij]) for k in cols)
                rhs = gather[j](nz_i)
                if rest[j]:
                    rhs = list(rhs)
                    for k, jk in rest[j]:
                        rhs[k] = _sparse_sum([(m, nz_i[f]) for f, m in jk])
                    rhs = tuple(rhs)
                if lhs == rhs:
                    continue
                associativity_ok = False
                for k in cols:
                    if lhs[k] == rhs[k]:
                        continue
                    left, right = dict(lhs[k]), dict(rhs[k])
                    for q in cols:
                        l, r = left.get(q, 0), right.get(q, 0)
                        if l != r:
                            violations.append(
                                f"associativity fails at ({table.basis[i]}, {table.basis[j]}, "
                                f"{table.basis[k]}) -> {table.basis[q]}: {l} != {r}"
                            )
    return AxiomReport(unit_ok, associativity_ok, violations)


def _sparse_sum(terms: list) -> tuple:
    """sum(m * cell) over (m, cell) terms, as sorted nonzero (index, mult) pairs."""
    if len(terms) == 1:
        m, cell = terms[0]
        return cell if m == 1 else tuple((q, m * c) for q, c in cell)
    acc: dict = {}
    for m, cell in terms:
        for q, c in cell:
            acc[q] = acc.get(q, 0) + m * c
    return tuple(sorted((q, c) for q, c in acc.items() if c))


# -- units ----------------------------------------------------------------------

@dataclass
class UnitsGroup:
    labels: tuple[BimoduleLabel, ...]
    order: int
    table: dict  # (label, label) -> label
    cyclic_part_ok: bool
    involution_ok: bool
    conjugation_ok: bool

    def is_dihedral(self) -> bool:
        return self.cyclic_part_ok and self.involution_ok and self.conjugation_ok


def units_group(table: RingTable) -> UnitsGroup:
    """Invertible labels with their product table and the dihedral relations."""
    p = table.p
    basis, N = table.basis, table.constants
    cols = range(len(basis))
    e = table.index(BimoduleLabel("X", 1))
    one = [0] * len(basis)  # the cell X1
    one[e] = 1
    units = [i for i in cols if any(N[i][j] == one and N[j][i] == one for j in cols)]
    mul = {}  # (i, j) -> the index of the unit a_i x a_j
    for i in units:
        rows = N[i]
        for j in units:
            row = rows[j]
            if row.count(0) != len(row) - 1 or 1 not in row:
                raise TableError(f"unit product {basis[i]} x {basis[j]} is not a single label")
            mul[(i, j)] = row.index(1)

    x = {basis[i].index: i for i in units if basis[i].kind == "X"}  # k -> the unit X_k
    cyclic_ok = len(x) == p - 1 and all(
        mul[(x[k], x[l])] == x[k * l % p] for k in range(1, p) for l in range(1, p)
    )
    f1 = table._index.get(BimoduleLabel("F", 1))
    involution_ok = f1 in units and mul[(f1, f1)] == e

    def conjugate(i):  # F1 x a_i x F1
        u = mul[(f1, i)]
        if (u, f1) not in mul:  # F1 x a_i is no unit: the label table has no cell for it
            raise TableError(f"unit product {basis[f1]} x {basis[i]} is {basis[u]}, not a unit")
        return mul[(u, f1)]

    conjugation_ok = f1 in units and all(
        conjugate(i) == table.index(BimoduleLabel("X", pow(k, p - 2, p))) for k, i in x.items()
    )
    labels = tuple(basis[i] for i in units)
    by_label = {(basis[i], basis[j]): basis[k] for (i, j), k in mul.items()}
    return UnitsGroup(labels, len(labels), by_label, cyclic_ok, involution_ok, conjugation_ok)


# -- serialization -----------------------------------------------------------------

def _units_json(table: RingTable) -> dict:
    units = units_group(table)
    return {
        "order": units.order,
        "labels": [str(u) for u in units.labels],
        "dihedral": units.is_dihedral(),
    }


def _products_json(table: RingTable) -> str:
    """The "products" value of serialize(table, "json"), as json.dumps(indent=2) lays it out.

    Each distinct row gets its JSON text once per call; the cells that hold
    an equal row reuse it.
    """
    names = [str(b) for b in table.basis]
    texts: dict = {}
    lines = []
    for a, rows in zip(names, table.constants):
        for b, row in zip(names, rows):
            key = tuple(row)
            text = texts.get(key)
            if text is None:
                mults = tuple(compress(row, row))
                if min(mults, default=0) < 0:
                    raise ValueError("multiplicities must be positive")
                cell = [{"label": name, "mult": mult} for name, mult in zip(compress(names, row), mults)]
                # a cell sits two levels deep in the payload
                text = texts[key] = json.dumps(cell, indent=2).replace("\n", "\n    ")
            lines.append(f'    "{a},{b}": {text}')
    return "{\n" + ",\n".join(lines) + "\n  }"


def serialize(table: RingTable, format: str = "json") -> str:
    if format == "json":
        report = check_axioms(table)
        products = _products_json(table)
        payload = {
            "p": table.p,
            "basis": [str(b) for b in table.basis],
            "products": None,
            "units": _units_json(table),
            "checks": {"unit": report.unit_ok, "associativity": report.associativity_ok},
        }
        text = json.dumps(payload, indent=2).replace('"products": null', '"products": ' + products, 1)
        return text + "\n"
    if format == "markdown" or format == "md":
        names = [str(b) for b in table.basis]
        width = max(4, max(len(str(table.product(a, b))) for a in table.basis for b in table.basis))
        head = "| x | " + " | ".join(names) + " |"
        sep = "|---" * (len(names) + 1) + "|"
        rows = [head, sep]
        for a in table.basis:
            cells = [str(table.product(a, b)).ljust(width) for b in table.basis]
            rows.append(f"| {a} | " + " | ".join(cells) + " |")
        return "\n".join(rows) + "\n"
    if format == "csv":
        names = [str(b) for b in table.basis]
        rows = ["x," + ",".join(names)]
        for a in table.basis:
            cells = [str(table.product(a, b)).replace(" ", "") for b in table.basis]
            rows.append(f"{a}," + ",".join(cells))
        return "\n".join(rows) + "\n"
    raise ValueError(f"unknown serialization format {format!r}")


def parse_json(text: str) -> RingTable:
    """The table that serialize(table, "json") wrote.

    A missing key or cell, a cell outside the basis, a summand label outside
    it, a p or multiplicity that is not an integer, or a multiplicity below 1
    raises ValueError naming it.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("the JSON text is not an object")
    for key in ("p", "basis", "products"):
        if key not in payload:
            raise ValueError(f"the JSON object has no key {key!r}")
    p = payload["p"]
    if type(p) is not int:
        raise ValueError(f"p must be an integer, got {p!r}")
    # the basis is checked against the text before any table is built, and
    # the rows are built as their cells are read, so a short text with a
    # large p fails without building (2p+2)^3 entries
    given = payload["basis"]
    if not isinstance(given, list) or len(given) != 2 * p + 2:
        raise ValueError("basis in JSON does not match the canonical basis order")
    basis = tuple(all_labels(p))
    names = [str(b) for b in basis]
    if names != given:
        raise ValueError("basis in JSON does not match the canonical basis order")
    position = {name: i for i, name in enumerate(names)}
    products = payload["products"]
    if not isinstance(products, dict):
        raise ValueError("products is not an object")
    constants = []
    for a in names:
        rows = []
        constants.append(rows)
        for b in names:
            key = f"{a},{b}"
            row = [0] * len(names)
            rows.append(row)
            summands = products.get(key)
            if summands is None:
                raise ValueError(f"products has no cell {key!r}")
            if not isinstance(summands, list):
                raise ValueError(f"products cell {key!r} is not a list")
            for s in summands:
                try:
                    label, mult = s["label"], s["mult"]
                except (KeyError, TypeError):
                    raise ValueError(
                        f"products cell {key!r} has a summand {s!r} without a 'label' and a 'mult'"
                    ) from None
                i = position.get(label) if isinstance(label, str) else None
                if i is None:
                    raise ValueError(f"products cell {key!r} names {label!r}, which is not in the basis")
                if type(mult) is not int:
                    raise ValueError(f"products cell {key!r} has multiplicity {mult!r}, which is not an integer")
                if mult < 1:
                    raise ValueError(f"products cell {key!r} has multiplicity {mult!r}, below 1")
                row[i] += mult
    if len(products) != len(names) ** 2:
        extra = sorted(set(products) - {f"{a},{b}" for a in names for b in names})
        raise ValueError(f"products has cells outside the basis: {', '.join(map(repr, extra))}")
    return RingTable(p, basis, constants)
