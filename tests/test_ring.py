import copy
import json
import os
import random
import re
from pathlib import Path

import pytest

from bpring import fusion
from bpring.bimodules import BimoduleLabel, Decomposition, label_parse
from bpring.closed_form import closed_form_product, closed_form_table
from bpring.fusion import build_table
from bpring.ring import (
    RingTable,
    TableError,
    check_axioms,
    diff_tables,
    parse_json,
    serialize,
    units_group,
)
from ring_oracle import dense_check_axioms, product_diff_tables, scan_units_group


def lab(text):
    return label_parse(text)


def single(text, mult=1):
    return Decomposition.single(label_parse(text), mult)


TABLES = {}


def table(p):
    if p not in TABLES:
        TABLES[p] = build_table(p)
    return TABLES[p]


def test_specific_entries():
    assert table(3).product(lab("L"), lab("R")) == single("F0", 3)
    assert table(5).product(lab("X2"), lab("X3")) == single("X1")
    assert table(5).product(lab("F2"), lab("F3")) == single("X4")
    assert table(5).product(lab("F2"), lab("X3")) == single("F1")
    assert table(5).product(lab("X2"), lab("F3")) == single("F4")  # 2^-1 * 3 = 3*3 = 9 = 4 mod 5


def test_engine_matches_closed_form_small():
    for p in (2, 3):
        assert diff_tables(table(p), closed_form_table(p)) == []


def test_table_is_not_commutative():
    t = table(3)
    assert t.product(lab("T"), lab("L")) == single("T")
    assert t.product(lab("L"), lab("T")) == single("L", 3)
    assert t.product(lab("R"), lab("L")) == single("T", 3)
    assert t.product(lab("L"), lab("R")) == single("F0", 3)


def test_multiplicities_are_one_or_p():
    for p in (2, 3):
        t = table(p)
        for a in t.basis:
            for b in t.basis:
                for mult in t.constants[t.index(a)][t.index(b)]:
                    assert mult in (0, 1, p)


def test_axioms_hold():
    for p in (2, 3):
        report = check_axioms(table(p))
        assert report.unit_ok and report.associativity_ok
        assert report.violations == []


def test_axiom_check_detects_perturbation():
    t = table(2)
    broken = RingTable(t.p, t.basis, copy.deepcopy(t.constants))
    i = broken.index(lab("T"))
    broken.constants[i][i][broken.index(lab("L"))] += 1
    report = check_axioms(broken)
    assert not report.ok()
    assert report.unit_ok and not report.associativity_ok
    # (T x T) x T = 2(2T + L) + 2L but T x (T x T) = 2(2T + L) + T
    assert report.violations[0] == "associativity fails at (T, T, T) -> T: 4 != 5"
    located = diff_tables(t, broken)
    assert len(located) == 1 and located[0].startswith("T x T:")


def _perturbed(p, seed):
    """closed_form_table(p) with a few seeded bumps, zeroed rows and second summands."""
    rng = random.Random(seed)
    t = closed_form_table(p)
    n = len(t.basis)
    for _ in range(rng.randint(1, 3)):
        row = t.constants[rng.randrange(n)][rng.randrange(n)]
        kind = rng.choice(("bump", "zero", "second"))
        if kind == "bump":
            row[rng.randrange(n)] += rng.randint(1, p)
        elif kind == "zero":
            row[:] = [0] * n
        else:
            row[rng.choice([q for q in range(n) if not row[q]])] = rng.randint(1, p)
    return t


def _summary(report):
    return report.unit_ok, report.associativity_ok, report.violations


def test_sparse_axioms_match_dense_oracle():
    clean = [closed_form_table(p) for p in (2, 3, 5, 7, 11)]
    for t in clean:
        assert _summary(check_axioms(t)) == _summary(dense_check_axioms(t)) == (True, True, [])
    broken_assoc = broken_unit = 0
    for p in (2, 3, 5, 7):
        for seed in range(20):
            t = _perturbed(p, 100 * p + seed)
            got = _summary(check_axioms(t))
            assert got == _summary(dense_check_axioms(t)), f"p={p} seed={seed}"
            assert _summary(check_axioms(t, check_associativity=False)) == _summary(
                dense_check_axioms(t, check_associativity=False)
            )
            broken_assoc += not got[1]
            broken_unit += not got[0]
    # the perturbations really exercise both halves of the check
    assert broken_assoc >= 40 and broken_unit >= 5


def _unit_breaks(p):
    """closed_form_table(p) with one cell of a unit broken, once per way.

    The cells are a x a^-1 and a^-1 x a (the X1 cells the unit scan reads)
    and a x a (a product the unit table reads)."""
    base = closed_form_table(p)
    n = len(base.basis)
    one = base.constants[base.index(lab("X1"))][base.index(lab("X1"))]
    for a in base.basis:
        if not a.is_invertible():
            continue
        i = base.index(a)
        j = next(j for j in range(n) if base.constants[i][j] == one)
        for cell in ((i, j), (j, i), (i, i)):
            for kind in ("zero", "bump", "second", "move"):
                t = closed_form_table(p)
                row = t.constants[cell[0]][cell[1]]
                q = row.index(1)
                if kind == "zero":
                    row[q] = 0
                elif kind == "bump":
                    row[q] += 1
                elif kind == "second":
                    row[(q + 1) % n] = 1
                else:
                    row[q], row[(q + 1) % n] = 0, 1
                yield t


def _units_outcome(fn, t):
    try:
        return vars(fn(t))
    except (TableError, KeyError) as exc:
        return type(exc), exc.args


def test_row_readers_match_product_oracles():
    tables = [closed_form_table(p) for p in (2, 3, 5, 7, 11)]
    tables += [_perturbed(p, 100 * p + seed) for p in (2, 3, 5, 7) for seed in range(20)]
    tables += [t for p in (2, 3, 5) for t in _unit_breaks(p)]
    raised = fewer_units = 0
    for t in tables:
        got = _units_outcome(units_group, t)
        assert got == _units_outcome(scan_units_group, t)
        raised += isinstance(got, tuple)
        fewer_units += isinstance(got, dict) and got["order"] < 2 * (t.p - 1)
        clean = closed_form_table(t.p)
        assert diff_tables(clean, t) == product_diff_tables(clean, t)
        assert diff_tables(t, clean) == product_diff_tables(t, clean)
        for a, rows in zip(t.basis, t.constants):
            for b, row in zip(t.basis, rows):
                want = Decomposition.from_pairs((t.basis[k], m) for k, m in enumerate(row) if m)
                assert t.product(a, b).summands == want.summands
    # the perturbations reach both the unit scan and the unit table
    assert raised >= 20 and fewer_units >= 20
    two, three = closed_form_table(2), closed_form_table(3)
    assert diff_tables(two, three) == product_diff_tables(two, three) != []


def test_negative_multiplicities():
    t = closed_form_table(3)
    row = t.constants[t.index(lab("T"))][t.index(lab("L"))]
    # T x L = X1 - X2, so (T x L) x T = T - T sums to zero
    row[:] = [0] * len(row)
    row[t.index(lab("X1"))], row[t.index(lab("X2"))] = 1, -1
    with pytest.raises(ValueError):
        t.product(lab("T"), lab("L"))
    for mult in (0, -1):
        with pytest.raises(ValueError):
            single("T", mult)
    got = _summary(check_axioms(t))
    assert got == _summary(dense_check_axioms(t)) and not got[1]
    # Z[Z_6] on the p=2 basis: X1 = 1, T = g + g^2, L, R, F0, F1 = g^2, g^3,
    # g^4, g^5.  Then g = T - L, so some constants are negative and some
    # sums cancel, yet the ring is associative with unit X1.
    t = RingTable.empty(2)
    powers = [(1, 2), (2,), (3,), (4,), (0,), (5,)]
    where = {e[0]: i for i, e in enumerate(powers) if len(e) == 1}
    for i, xs in enumerate(powers):
        for j, ys in enumerate(powers):
            cell = t.constants[i][j]
            for x in xs:
                for y in ys:
                    e = (x + y) % 6
                    if e == 1:
                        cell[0] += 1
                        cell[where[2]] -= 1
                    else:
                        cell[where[e]] += 1
    assert any(m < 0 for rows in t.constants for row in rows for m in row)
    assert _summary(check_axioms(t)) == _summary(dense_check_axioms(t)) == (True, True, [])


def test_units_group_shapes():
    u2 = units_group(table(2))
    assert u2.order == 2
    assert set(map(str, u2.labels)) == {"X1", "F1"}
    assert u2.is_dihedral()
    u3 = units_group(table(3))
    assert u3.order == 4 and u3.is_dihedral()
    for p in (2, 3):
        u = units_group(table(p))
        assert u.order == 2 * (p - 1)
        f1 = lab("F1")
        assert u.table[(f1, f1)] == lab("X1")
        for k in range(1, p):
            xk = lab(f"X{k}")
            conj = u.table[(u.table[(f1, xk)], f1)]
            assert conj == BimoduleLabel("X", pow(k, p - 2, p))


def test_closed_form_row_samples():
    p = 7
    assert closed_form_product(p, lab("T"), lab("T")) == single("T", 7)
    assert closed_form_product(p, lab("T"), lab("F3")) == single("R")
    assert closed_form_product(p, lab("F0"), lab("L")) == single("L", 7)
    assert closed_form_product(p, lab("X3"), lab("F5")) == single("F4")  # 3^-1 = 5, 5*5 = 25 = 4
    assert closed_form_product(p, lab("F3"), lab("X2")) == single("F6")
    assert closed_form_product(p, lab("F3"), lab("F4")) == single("X6")  # 3^-1*4 = 5*4 = 20 = 6


def test_json_round_trip_is_byte_identical():
    t = table(2)
    text = serialize(t, "json")
    again = serialize(parse_json(text), "json")
    assert text == again


def test_parse_json_rejects_labels_outside_the_basis():
    payload = json.loads(serialize(closed_form_table(3), "json"))
    named = copy.deepcopy(payload)
    named["products"]["T,L"][0]["label"] = "F9"
    with pytest.raises(ValueError, match="'T,L' names 'F9'"):
        parse_json(json.dumps(named))
    keyed = copy.deepcopy(payload)
    keyed["products"]["F9,T"] = [{"label": "T", "mult": 1}]
    with pytest.raises(ValueError, match="outside the basis: 'F9,T'"):
        parse_json(json.dumps(keyed))


def test_parse_json_rejects_a_missing_cell():
    payload = json.loads(serialize(closed_form_table(3), "json"))
    del payload["products"]["T,L"]
    with pytest.raises(ValueError, match="no cell 'T,L'"):
        parse_json(json.dumps(payload))


GOLDEN = Path(__file__).parent / "golden"


def test_serialize_matches_golden_files():
    for p in (2, 3, 5):
        for fmt in ("json", "md", "csv"):
            want = (GOLDEN / f"closed_form_p{p}.{fmt}").read_bytes()
            assert serialize(closed_form_table(p), fmt).encode() == want, (p, fmt)
            if p in (2, 3):  # the engine's table equals the closed form's
                assert serialize(table(p), fmt).encode() == want, (p, fmt)


def test_process_pool_matches_serial(monkeypatch):
    serial = build_table(3, workers=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # keep two workers on a one-core box
    monkeypatch.setenv("BPRING_THREADS", "2")
    pooled = build_table(3)
    for fmt in ("json", "md", "csv"):
        assert serialize(pooled, fmt) == serialize(serial, fmt)


def test_pool_size_capped_at_cpu_count(monkeypatch):
    class SerialPool:
        """Records the pool size it is given and runs every call in-process."""

        sizes = []

        def __init__(self, max_workers, initializer, initargs):
            self.sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(fusion, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(fusion, "_worker_entries", {})
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("BPRING_THREADS", "100000")
    capped = build_table(2)
    assert SerialPool.sizes == [3]
    assert serialize(capped, "json") == serialize(build_table(2, workers=1), "json")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    build_table(2)
    assert SerialPool.sizes == [3]  # a single core runs serially, without a pool


def test_threads_unset_or_empty_means_serial(monkeypatch):
    def no_pool(**kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(fusion, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("BPRING_THREADS", raising=False)
    build_table(2)
    monkeypatch.setenv("BPRING_THREADS", "")
    build_table(2)


def test_markdown_row_count():
    for p in (2, 3):
        text = serialize(table(p), "md")
        rows = [line for line in text.splitlines() if line.startswith("|") and not line.startswith("|---")]
        assert len(rows) == 2 * p + 3


def test_csv_cells():
    t = table(2)
    text = serialize(t, "csv")
    lines = text.strip().splitlines()
    assert len(lines) == 1 + 6
    header = lines[0].split(",")
    assert header == ["x", "T", "L", "R", "F0", "X1", "F1"]
    first = lines[1].split(",")
    assert first[0] == "T"
    assert first[1] == "2*T"
    for line in lines[1:]:
        assert len(line.split(",")) == 7


def test_serialize_rejects_unknown_format():
    with pytest.raises(ValueError):
        serialize(table(2), "xml")


def test_build_table_rejects_composite_p():
    with pytest.raises(ValueError):
        build_table(4)


@pytest.mark.parametrize("workers", [0, -1, 2.5])
def test_build_table_rejects_a_worker_count_that_is_not_a_positive_integer(workers):
    with pytest.raises(ValueError, match=re.escape(f"workers must be a positive integer, got {workers!r}")):
        build_table(2, workers=workers)
