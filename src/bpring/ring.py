"""The Brauer-Picard ring of Vec(Z_p) on the 2p+2 indecomposable labels.

build_table computes every structure constant with the ladder/Karoubi engine;
closed_form_product is the independently written multiplication law used as
the golden reference, and units_group extracts the dihedral group of
invertible labels.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter

from .bimodules import (
    BimoduleData,
    BimoduleLabel,
    Decomposition,
    all_labels,
    catalogue,
    label_parse,
)
from .cyclotomic import require_prime
from .fusion import ClassificationError, RelativeTensorProduct


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
        row = [0] * len(self.basis)
        for label, mult in dec.summands:
            row[self.index(label)] = mult
        self.constants[self.index(a)][self.index(b)] = row

    @classmethod
    def empty(cls, p: int) -> "RingTable":
        basis = tuple(all_labels(p))
        n = len(basis)
        return cls(p, basis, [[[0] * n for _ in range(n)] for _ in range(n)])


def _catalogue_by_label(p: int) -> dict[BimoduleLabel, BimoduleData]:
    return {entry.label: entry for entry in catalogue(p)}


def _pair_product(entries: dict, a: BimoduleLabel, b: BimoduleLabel) -> Decomposition:
    """One structure-constant row, a x b, from the fusion engine."""
    return RelativeTensorProduct(entries[a], entries[b]).decompose()


# A pool worker's catalogue, built once per process by _init_worker.
_worker_entries: dict[BimoduleLabel, BimoduleData] = {}


def _init_worker(p: int) -> None:
    _worker_entries.update(_catalogue_by_label(p))


def _worker_pair_product(a: BimoduleLabel, b: BimoduleLabel) -> Decomposition:
    # top-level so ProcessPoolExecutor can pickle the call
    return _pair_product(_worker_entries, a, b)


def _env_workers() -> int:
    """Worker count from BPRING_THREADS; unset or empty means 1."""
    text = os.environ.get("BPRING_THREADS") or "1"
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"BPRING_THREADS must be a positive integer, got {text!r}")
    return int(text)


def build_table(p: int, workers: int | None = None) -> RingTable:
    """Structure constants from the fusion engine over all ordered label pairs.

    workers (default: BPRING_THREADS) is capped at os.cpu_count().
    """
    require_prime(p)
    table = RingTable.empty(p)
    if workers is None:
        workers = _env_workers()
    # a fork-started pool launches all its workers at once
    workers = min(workers, os.cpu_count() or 1)
    pairs = [(a, b) for a in table.basis for b in table.basis]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(p,)) as pool:
            for (a, b), dec in zip(pairs, pool.map(_worker_pair_product, *zip(*pairs))):
                table.set_product(a, b, dec)
    else:
        entries = _catalogue_by_label(p)
        for a, b in pairs:
            table.set_product(a, b, _pair_product(entries, a, b))
    for a in table.basis:
        for b in table.basis:
            for mult in table.constants[table.index(a)][table.index(b)]:
                if mult not in (0, 1, p):
                    raise ClassificationError(
                        f"product {a} x {b} produced multiplicity {mult}, expected 0, 1 or {p}"
                    )
    return table


# -- golden closed form -------------------------------------------------------

def closed_form_product(p: int, a: BimoduleLabel, b: BimoduleLabel) -> Decomposition:
    """The multiplication law written out by hand, independent of the engine.

    Index arithmetic is mod p with multiplicative inverses mod p.
    """
    require_prime(p)
    inv = lambda x: pow(x, p - 2, p)
    T, L, R, F0 = BimoduleLabel("T"), BimoduleLabel("L"), BimoduleLabel("R"), BimoduleLabel("F", 0)

    def F(q):
        q = q % p
        return BimoduleLabel("F", q)

    def X(k):
        k = k % p
        if k == 0:
            raise ValueError("X index must be nonzero")
        return BimoduleLabel("X", k)

    one = Decomposition.single
    ka, kb = a.kind, b.kind
    if ka == "T":
        return _row_T(p, b)
    if ka == "L":
        return _row_L(p, b)
    if ka == "R":
        return _row_R(p, b)
    if ka == "F" and a.index == 0:
        return _row_F0(p, b)
    if ka == "X":
        k = a.index
        if kb == "T":
            return one(T)
        if kb == "L":
            return one(L)
        if kb == "R":
            return one(R)
        if kb == "F" and b.index == 0:
            return one(F0)
        if kb == "X":
            return one(X(k * b.index))
        return one(F(inv(k) * b.index))
    # a = F_q with q != 0
    q = a.index
    if kb == "T":
        return one(L)
    if kb == "L":
        return one(T)
    if kb == "R":
        return one(F0)
    if kb == "F" and b.index == 0:
        return one(R)
    if kb == "X":
        return one(F(q * b.index))
    return one(X(inv(q) * b.index))


def _row_T(p, b):
    T, R = BimoduleLabel("T"), BimoduleLabel("R")
    one = Decomposition.single
    if b.kind == "T":
        return one(T, p)
    if b.kind == "L":
        return one(T)
    if b.kind == "R":
        return one(R, p)
    if b.kind == "F" and b.index == 0:
        return one(R)
    if b.kind == "X":
        return one(T)
    return one(R)


def _row_L(p, b):
    L, F0 = BimoduleLabel("L"), BimoduleLabel("F", 0)
    one = Decomposition.single
    if b.kind == "T":
        return one(L, p)
    if b.kind == "L":
        return one(L)
    if b.kind == "R":
        return one(F0, p)
    if b.kind == "F" and b.index == 0:
        return one(F0)
    if b.kind == "X":
        return one(L)
    return one(F0)


def _row_R(p, b):
    T, R = BimoduleLabel("T"), BimoduleLabel("R")
    one = Decomposition.single
    if b.kind == "T":
        return one(T)
    if b.kind == "L":
        return one(T, p)
    if b.kind == "R":
        return one(R)
    if b.kind == "F" and b.index == 0:
        return one(R, p)
    if b.kind == "X":
        return one(R)
    return one(T)


def _row_F0(p, b):
    L, F0 = BimoduleLabel("L"), BimoduleLabel("F", 0)
    one = Decomposition.single
    if b.kind == "T":
        return one(L)
    if b.kind == "L":
        return one(L, p)
    if b.kind == "R":
        return one(F0)
    if b.kind == "F" and b.index == 0:
        return one(F0, p)
    if b.kind == "X":
        return one(F0)
    return one(L)


def closed_form_table(p: int) -> RingTable:
    table = RingTable.empty(p)
    for a in table.basis:
        for b in table.basis:
            table.set_product(a, b, closed_form_product(p, a, b))
    return table


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
        # Each cell is its nonzero (index, mult) pairs, interned so that equal
        # cells are one object.  For each (i, j), (a.b).c and a.(b.c) are
        # built as whole rows over k and compared in one step; k and q are
        # walked only when the rows differ.
        cols = range(len(table.basis))
        interned: dict = {}
        nz = [
            tuple(
                interned.setdefault(cell, cell)
                for cell in (tuple(zip(compress(cols, row), compress(row, row))) for row in rows)
            )
            for rows in table.constants
        ]
        # a row j of single labels with multiplicity 1 sends a.(b.c) to a
        # permutation of row i
        permuted = [
            itemgetter(*(cell[0][0] for cell in nz_j))
            if all(len(cell) == 1 and cell[0][1] == 1 for cell in nz_j)
            else None
            for nz_j in nz
        ]
        for i in cols:
            nz_i = nz[i]
            for j in cols:
                ij, nz_j = nz_i[j], nz[j]
                if len(ij) == 1 and ij[0][1] == 1:
                    lhs = nz[ij[0][0]]
                else:
                    lhs = tuple(_sparse_sum([(m, nz[e][k]) for e, m in ij]) for k in cols)
                if permuted[j] is not None:
                    rhs = permuted[j](nz_i)
                else:
                    rhs = tuple(_sparse_sum([(m, nz_i[f]) for f, m in nz_j[k]]) for k in cols)
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
    unit = BimoduleLabel("X", 1)
    N = table.constants
    cols = range(len(table.basis))
    one = [0] * len(table.basis)  # the cell X1
    one[table.index(unit)] = 1
    units = [
        a for i, a in enumerate(table.basis)
        if any(N[i][j] == one and N[j][i] == one for j in cols)
    ]
    mul = {}
    for a in units:
        rows = N[table.index(a)]
        for b in units:
            row = rows[table.index(b)]
            if row.count(0) != len(row) - 1 or 1 not in row:
                raise ClassificationError(f"unit product {a} x {b} is not a single label")
            mul[(a, b)] = table.basis[row.index(1)]

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


# -- serialization -----------------------------------------------------------------

def _units_json(table: RingTable) -> dict:
    units = units_group(table)
    return {
        "order": units.order,
        "labels": [str(u) for u in units.labels],
        "dihedral": units.is_dihedral(),
    }


def serialize(table: RingTable, format: str = "json") -> str:
    if format == "json":
        report = check_axioms(table)
        payload = {
            "p": table.p,
            "basis": [str(b) for b in table.basis],
            "products": {
                f"{a},{b}": [
                    {"label": str(label), "mult": mult}
                    for label, mult in table.product(a, b).summands
                ]
                for a in table.basis
                for b in table.basis
            },
            "units": _units_json(table),
            "checks": {"unit": report.unit_ok, "associativity": report.associativity_ok},
        }
        return json.dumps(payload, indent=2) + "\n"
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
    payload = json.loads(text)
    p = payload["p"]
    table = RingTable.empty(p)
    if [str(b) for b in table.basis] != payload["basis"]:
        raise ValueError("basis in JSON does not match the canonical basis order")
    for key, summands in payload["products"].items():
        a_text, b_text = key.split(",")
        dec = Decomposition.from_pairs(
            (label_parse(s["label"]), s["mult"]) for s in summands
        )
        table.set_product(label_parse(a_text), label_parse(b_text), dec)
    return table
