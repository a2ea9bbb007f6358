"""The Brauer-Picard ring table of Vec(Z_p), shared by the three routes.

RingTable holds the structure constants over the 2p+2 indecomposable labels.
Each route fills one: bpring.fusion.build_table from the ladder/Karoubi
engine, bpring.closed_form.closed_form_table from the hand-written law, and
bpring.walls.oracle_table from wall stacking.  This module holds only what
reads a table (diff_tables, check_axioms, units_group (the dihedral group of
invertible labels), serialize and parse_json) and gatherer, the C-level
gather that the readers and the engine share.  It imports no route, so the
routes can share it and stay independent; tests/test_import_graph.py checks
this.  check_axioms decides associativity exactly by the middle nucleus: X1
joins it uncompared when the unit check passes, the middles read by a gather
alone are compared first, and only the middles that products of already
proven ones do not reach are compared (4 of 36 on the closed form at p=17:
X2, X3, F1 and T).

A table's cell (i, j) is the product a_i x a_j as a sparse cell: a tuple of
(basis index, multiplicity) pairs in increasing index, with no zero entry,
and () for an empty product.  Every route writes cells in this form and every
reader reads them as they are.  Cells are immutable, so equal cells may share
one tuple; an edit replaces a cell.  A reader keeps nothing on the table
between calls (serialize(table, "json") writes each distinct cell's JSON text
once per call), so a replaced cell is seen by the next call.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from operator import itemgetter

from .bimodules import BimoduleLabel, Decomposition, all_labels


class TableError(RuntimeError):
    """A table breaks an invariant that one of its readers relies on."""


def gatherer(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The function seq -> (seq[i] for i in indices), as a tuple, gathered in C.

    operator.itemgetter with one index returns the item itself and with none
    raises TypeError, so those cases are wrapped.  Gathering from a list of
    existing ints is much faster than from a range, which makes each int anew.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    if not indices:
        return lambda seq: ()
    (i,) = indices
    return lambda seq: (seq[i],)


class RingTable(namedtuple("RingTable", "p constants")):
    """Structure constants over the canonical label basis of p, one sparse cell per pair.

    constants is (2p+2) lists of (2p+2) cells, and constants[i][j] is the
    cell of a_i x a_j: ((k, N_ij^k), ...) over the nonzero N_ij^k in
    increasing k.  `constants` is the only store: every reader works on its
    cells when called, so a replaced cell is seen by the next read.  basis
    is all_labels(p), set on construction.
    """

    def __new__(cls, p: int, constants: list):
        self = tuple.__new__(cls, (p, constants))
        self.basis = tuple(all_labels(p))
        self._index = {label: i for i, label in enumerate(self.basis)}
        return self

    # _replace builds through _make, so it sets basis too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def index(self, label: BimoduleLabel) -> int:
        return self._index[label]

    def product(self, a: BimoduleLabel, b: BimoduleLabel) -> Decomposition:
        cell = self.constants[self._index[a]][self._index[b]]
        if any(mult < 0 for _, mult in cell):
            raise ValueError("multiplicities must be positive")
        # the basis is in canonical order, so the cell's labels already are
        basis = self.basis
        return Decomposition(tuple((basis[k], mult) for k, mult in cell))

    def set_product(self, a: BimoduleLabel, b: BimoduleLabel, dec: Decomposition) -> None:
        index = self._index
        self.constants[index[a]][index[b]] = tuple(sorted((index[label], mult) for label, mult in dec.summands))

    @classmethod
    def from_cells(cls, p: int, rows) -> "RingTable":
        """The table whose cell (i, j) is one label: rows[i][j] = (basis index, multiplicity).

        Equal cells share one tuple, and each row is a list of its own, so
        replacing one cell moves no other.
        """
        interned: dict = {}
        constants = [[interned.setdefault(pair, (pair,)) for pair in row] for row in rows]
        return cls(p, constants)

    @classmethod
    def empty(cls, p: int) -> "RingTable":
        return cls(p, [[()] * (2 * p + 2) for _ in range(2 * p + 2)])


def diff_tables(t1: RingTable, t2: RingTable) -> list[str]:
    """Located mismatches between two tables over the same prime."""
    if t1.p != t2.p:
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

class AxiomReport(namedtuple("AxiomReport", "unit associativity")):
    """The findings of check_axioms, filed by check; a check passed when its list is empty.

    unit holds the failed unit products in basis order, and associativity
    the failed triples in (i, j, k, q) order.
    """

    __slots__ = ()

    @property
    def unit_ok(self) -> bool:
        return not self.unit

    @property
    def associativity_ok(self) -> bool:
        return not self.associativity

    def ok(self) -> bool:
        return self.unit_ok and self.associativity_ok


def check_axioms(table: RingTable) -> AxiomReport:
    """Verify that X_1 is a two-sided unit and that the ring is associative.

    Both checks run on every call and file their findings in the report's
    unit and associativity lists, so associativity is always decided, never
    assumed.

    Associativity is exact and complete by the middle nucleus
    N = {z : (x.z).y = x.(z.y) for all x, y} (Light's test): the table is
    associative when every label is in N.  N is a Z-submodule, and s.t is in
    N for s, t in N: (x(st))y = ((xs)t)y = (xs)(ty) = x(s(ty)) = x((st)y),
    each step using only that s or t is in N.  The module is free, so
    torsion-free: a cell s.t = m.a_q with m != 0 (p or negative too) puts
    a_q in N.  When the unit check passes, X1 joins the members uncompared,
    since (x.1).y = x.y = x.(1.y).  The other middles j are walked in the
    order of _walk: first those whose row is all single labels with
    multiplicity 1, then the rest, each group in basis order.  Only one not
    yet proven is compared over every (i, k) (_middle_violations).  One that
    passes joins the members, and a single-label cell s.t or t.s of two
    members proves its label.  One that fails never joins, and no closure
    can prove it, so every violation is found; they are filed in
    (i, j, k, q) order, whatever the walk's order.
    """
    basis, constants = table.basis, table.constants
    one = BimoduleLabel("X", 1)
    e = table.index(one)
    unit = []
    for i, a in enumerate(basis):
        # only a cell other than a_i alone builds its product, which raises
        # ValueError on a negative multiplicity
        if constants[e][i] != ((i, 1),) and table.product(one, a) != Decomposition.single(a):
            unit.append(f"X1 x {a} != {a}")
        if constants[i][e] != ((i, 1),) and table.product(a, one) != Decomposition.single(a):
            unit.append(f"{a} x X1 != {a}")

    n = len(basis)
    nz = [tuple(rows) for rows in constants]
    proven, unproven, members, failed = bytearray(n), n, [], {}
    for j, compare in _walk(nz, proven, None if unit else e):
        if compare:
            found = _middle_violations(table, nz, j)
            if found:
                failed.update(found)
                continue
        proven[j], unproven, queue = 1, unproven - 1, [j]
        while queue and unproven:
            s = queue.pop()
            members.append(s)
            for t in members:
                for cell in (nz[s][t], nz[t][s]):
                    if len(cell) == 1 and cell[0][1] and not proven[cell[0][0]]:
                        proven[cell[0][0]] = 1
                        unproven -= 1
                        queue.append(cell[0][0])
    return AxiomReport(unit, [v for key in sorted(failed) for v in failed[key]])


def _walk(nz: list, proven: bytearray, unit: int | None):
    """(j, compare) for each middle j in the order check_axioms takes them, skipping the proven.

    A two-sided unit comes first, with compare False: it is in N, since
    (x.1).y = x.y = x.(1.y).  Then, each group in basis order, the middles
    whose row is all single labels with multiplicity 1, which
    _middle_violations reads by one gather per row and no sparse sum, and
    then the rest.  Each middle is compared at most once, and proven is read
    as the walk goes, so a middle proven meanwhile is skipped.
    """
    if unit is not None:
        yield unit, False
    singles = {((k, 1),) for k in range(len(nz))}
    compared = bytearray(len(nz))
    for gathered_only in (True, False):
        for j, row in enumerate(nz):
            if not (proven[j] or compared[j]) and (not gathered_only or singles.issuperset(row)):
                compared[j] = 1
                yield j, True


def _middle_violations(table: RingTable, nz: list, j: int) -> dict:
    """{(i, j): violation strings} for every a_i with (a_i.a_j).a_k != a_i.(a_j.a_k) at some k.

    For each i, both sides are built as whole rows of cells over k and
    compared in one step; k and q are walked only when the rows differ.
    """
    cols = range(len(nz))
    # a_i.(a_j.c) reads each single cell f of row j with multiplicity 1 as
    # cell f of row i, and sums the other cells of row j
    single = [cell[0][0] if len(cell) == 1 and cell[0][1] == 1 else None for cell in nz[j]]
    gather = gatherer([0 if f is None else f for f in single])
    rest = [(k, cell) for k, (f, cell) in enumerate(zip(single, nz[j])) if f is None]
    basis, found = table.basis, {}
    for i in cols:
        nz_i = nz[i]
        ij = nz_i[j]
        if len(ij) == 1 and ij[0][1] == 1:
            lhs = nz[ij[0][0]]
        else:
            lhs = tuple(_sparse_sum([(m, nz[e][k]) for e, m in ij]) for k in cols)
        rhs = gather(nz_i)
        if rest:
            rhs = list(rhs)
            for k, jk in rest:
                rhs[k] = _sparse_sum([(m, nz_i[f]) for f, m in jk])
            rhs = tuple(rhs)
        if lhs == rhs:
            continue
        out = found[(i, j)] = []
        for k in cols:
            if lhs[k] == rhs[k]:
                continue
            left, right = dict(lhs[k]), dict(rhs[k])
            for q in cols:
                l, r = left.get(q, 0), right.get(q, 0)
                if l != r:
                    out.append(
                        f"associativity fails at ({basis[i]}, {basis[j]}, "
                        f"{basis[k]}) -> {basis[q]}: {l} != {r}"
                    )
    return found


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

class UnitsGroup(namedtuple("UnitsGroup", "labels cyclic_part_ok involution_ok conjugation_ok")):
    """The invertible labels of a table, and whether each dihedral relation holds among them."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.labels)

    def is_dihedral(self) -> bool:
        return self.cyclic_part_ok and self.involution_ok and self.conjugation_ok


def units_group(table: RingTable) -> UnitsGroup:
    """Invertible labels and the dihedral relations among them.

    The unit products are read a row at a time: each unit's row is gathered
    at the units and its cells mapped to labels in C, a cell that is not a
    single label with multiplicity 1 mapping to None.  The cyclic, involution
    and conjugation relations are read from these rows.
    """
    p = table.p
    basis, N = table.basis, table.constants
    cols = range(len(basis))
    e = table.index(BimoduleLabel("X", 1))
    one = ((e, 1),)  # the cell X1
    units = [i for i in cols if _is_unit(N, i, one)]
    at = {j: n for n, j in enumerate(units)}  # the position of each unit among the units
    label_of = {((k, 1),): k for k in cols}  # a single-label cell -> its label's index
    at_units = gatherer(units)
    rows = {}  # unit i -> [the index of the unit a_i x a_j, for the units j in order]
    for i in units:
        row = list(map(label_of.get, at_units(N[i])))
        if None in row:
            j = units[row.index(None)]
            raise TableError(f"unit product {basis[i]} x {basis[j]} is not a single label")
        rows[i] = row

    x = {basis[i].index: i for i in units if basis[i].kind == "X"}  # k -> the unit X_k
    cyclic_ok = len(x) == p - 1 and _cyclic(rows, at, x, p)
    f1 = table._index.get(BimoduleLabel("F", 1))
    involution_ok = f1 in at and rows[f1][at[f1]] == e

    def conjugate(i):  # F1 x a_i x F1
        u = rows[f1][at[i]]
        if u not in at:  # F1 x a_i is no unit: it has no row
            raise TableError(f"unit product {basis[f1]} x {basis[i]} is {basis[u]}, not a unit")
        return rows[u][at[f1]]

    conjugation_ok = f1 in at and all(
        conjugate(i) == table.index(BimoduleLabel("X", pow(k, p - 2, p))) for k, i in x.items()
    )
    return UnitsGroup(tuple(basis[i] for i in units), cyclic_ok, involution_ok, conjugation_ok)


def _cyclic(rows: dict, at: dict, x: dict, p: int) -> bool:
    """Whether X_k x X_l = X_(kl mod p) for all k, l, with x[k] the unit X_k for every k in 1..p-1.

    Row X_k gathered at X_1..X_(p-1) must be X_k, X_2k, ..., X_(p-1)k,
    which is the slice [k : kp : k] of the X units repeated p times.
    """
    xs = [None] + [x[k] for k in range(1, p)]
    repeated = xs * p  # repeated[m] is X_(m mod p)
    at_xs = gatherer([at[i] for i in xs[1:]])
    return all(at_xs(rows[x[k]]) == tuple(repeated[k:k * p:k]) for k in range(1, p))


def _is_unit(N: list, i: int, one: tuple) -> bool:
    """Whether a_i x a_j = a_j x a_i = X1 for some j; row i is searched in C."""
    row, j = N[i], -1
    try:
        while True:
            j = row.index(one, j + 1)
            if N[j][i] == one:
                return True
    except ValueError:
        return False


# -- serialization -----------------------------------------------------------------

def _products_json(table: RingTable) -> str:
    """The "products" value of serialize(table, "json"), as json.dumps(indent=2) lays it out.

    The value sits two levels deep in the payload.  Each distinct cell's text
    is written once per call, in the layout json.dumps(summands, indent=2)
    gives a list of {"label", "mult"} objects at that depth ([] for an empty
    cell), and equal cells reuse it; each label is quoted once per call.
    tests/test_ring.py compares the whole text with the json encoder's.
    """
    import json

    names = [str(b) for b in table.basis]
    quoted = [json.dumps(name) for name in names]
    ends = [f'{b}": ' for b in names]  # each key is a row's prefix and a column's end
    texts: dict = {}
    lines = []
    for a, rows in zip(names, table.constants):
        prefix = f'    "{a},'
        for end, cell in zip(ends, rows):
            text = texts.get(cell)
            if text is None:
                if any(mult < 0 for _, mult in cell):
                    raise ValueError("multiplicities must be positive")
                summands = ",\n".join(
                    f'      {{\n        "label": {quoted[k]},\n        "mult": {mult}\n      }}' for k, mult in cell
                )
                text = texts[cell] = f"[\n{summands}\n    ]" if cell else "[]"
            lines.append(prefix + end + text)
    return "{\n" + ",\n".join(lines) + "\n  }"


def serialize(table: RingTable, format: str = "json") -> str:
    if format == "json":
        import json  # loaded by the JSON readers and writers only

        report = check_axioms(table)
        products = _products_json(table)
        units = units_group(table)
        payload = {
            "p": table.p,
            "basis": [str(b) for b in table.basis],
            "products": None,
            "units": {"order": units.order, "labels": [str(u) for u in units.labels], "dihedral": units.is_dihedral()},
            "checks": {"unit": report.unit_ok, "associativity": report.associativity_ok},
        }
        text = json.dumps(payload, indent=2).replace('"products": null', '"products": ' + products, 1)
        return text + "\n"
    if format == "md":
        names = [str(b) for b in table.basis]
        # each cell's text is built once: the widest sets the column width
        texts = [[str(table.product(a, b)) for b in table.basis] for a in table.basis]
        width = max(4, max(len(text) for row in texts for text in row))
        head = "| x | " + " | ".join(names) + " |"
        sep = "|---" * (len(names) + 1) + "|"
        rows = [head, sep]
        for a, row in zip(table.basis, texts):
            rows.append(f"| {a} | " + " | ".join(text.ljust(width) for text in row) + " |")
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
    import json

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
    # large p fails without building (2p+2)^2 cells
    given = payload["basis"]
    if not isinstance(given, list) or len(given) != 2 * p + 2:
        raise ValueError("basis in JSON does not match the canonical basis order")
    names = [str(b) for b in all_labels(p)]
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
            summands = products.get(key)
            if summands is None:
                raise ValueError(f"products has no cell {key!r}")
            if not isinstance(summands, list):
                raise ValueError(f"products cell {key!r} is not a list")
            cell = []
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
                cell.append((i, mult))
            if len(cell) > 1:
                # in index order, with the multiplicities of a repeated label added
                merged: dict = {}
                for i, mult in cell:
                    merged[i] = merged.get(i, 0) + mult
                cell = sorted(merged.items())
            rows.append(tuple(cell))
    if len(products) != len(names) ** 2:
        extra = sorted(set(products) - {f"{a},{b}" for a in names for b in names})
        raise ValueError(f"products has cells outside the basis: {', '.join(map(repr, extra))}")
    return RingTable(p, constants)
