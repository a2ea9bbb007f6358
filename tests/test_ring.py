import concurrent.futures
import copy
import json
import os
import random
import re
from pathlib import Path

import pytest

from bpring import fusion, ring
from bpring.bimodules import BimoduleLabel, Decomposition, label_parse
from bpring.closed_form import closed_form_product, closed_form_table
from bpring.fusion import build_table
from bpring.walls import oracle_table
from bpring.ring import (
    RingTable,
    TableError,
    check_axioms,
    diff_tables,
    parse_json,
    serialize,
    units_group,
)
from ring_oracle import (
    dense_cell,
    dense_check_axioms,
    dense_row,
    densified,
    plain_serialize_json,
    product_diff_tables,
    scan_units_group,
)


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
                for mult in dense_row(t, t.index(a), t.index(b)):
                    assert mult in (0, 1, p)


def test_axioms_hold():
    for p in (2, 3):
        report = check_axioms(table(p))
        assert report.unit_ok and report.associativity_ok
        assert report.unit == report.associativity == []


def test_axiom_check_detects_perturbation():
    t = table(2)
    broken = RingTable(t.p, copy.deepcopy(t.constants))
    i = broken.index(lab("T"))
    with dense_cell(broken, i, i) as row:
        row[broken.index(lab("L"))] += 1
    report = check_axioms(broken)
    assert not report.ok()
    assert report.unit_ok and not report.associativity_ok
    # (T x T) x T = 2(2T + L) + 2L but T x (T x T) = 2(2T + L) + T
    assert report.unit == [] and report.associativity[0] == "associativity fails at (T, T, T) -> T: 4 != 5"
    located = diff_tables(t, broken)
    assert len(located) == 1 and located[0].startswith("T x T:")


def _perturbed(p, seed):
    """closed_form_table(p) with a few seeded bumps, zeroed rows and second summands."""
    rng = random.Random(seed)
    t = closed_form_table(p)
    n = len(t.basis)
    for _ in range(rng.randint(1, 3)):
        with dense_cell(t, rng.randrange(n), rng.randrange(n)) as row:
            kind = rng.choice(("bump", "zero", "second"))
            if kind == "bump":
                row[rng.randrange(n)] += rng.randint(1, p)
            elif kind == "zero":
                row[:] = [0] * n
            else:
                row[rng.choice([q for q in range(n) if not row[q]])] = rng.randint(1, p)
    return t


def _summary(report):
    return report.unit_ok, report.associativity_ok, report.unit, report.associativity


def test_sparse_axioms_match_dense_oracle():
    clean = [closed_form_table(p) for p in (2, 3, 5, 7, 11)]
    for t in clean:
        assert _summary(check_axioms(t)) == _summary(dense_check_axioms(t)) == (True, True, [], [])
    broken_assoc = broken_unit = 0
    for p in (2, 3, 5, 7):
        for seed in range(20):
            t = _perturbed(p, 100 * p + seed)
            got = _summary(check_axioms(t))
            assert got == _summary(dense_check_axioms(t)), f"p={p} seed={seed}"
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
                with dense_cell(t, *cell) as row:
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


def _inverse_not_a_unit():
    """closed_form_table(5) where X2 x X2 = X1 and X3 x X2 = X2 x X3 = X3.

    X2 stays a unit with itself as inverse, X3 is no unit, and F1 x X2 x F1
    is still X3 = X_{2^-1}: the conjugation relation holds for X2 although
    the label it gives is no unit."""
    t = closed_form_table(5)
    x1, x2, x3 = (t.index(lab(s)) for s in ("X1", "X2", "X3"))
    n = len(t.basis)
    for (i, j), k in (((x2, x2), x1), ((x2, x3), x3), ((x3, x2), x3)):
        with dense_cell(t, i, j) as row:
            row[:] = [int(q == k) for q in range(n)]
    return t


def _units_outcome(fn, t):
    try:
        return fn(t)._asdict()
    except TableError as exc:
        return type(exc), exc.args


def test_row_readers_match_product_oracles():
    tables = [closed_form_table(p) for p in (2, 3, 5, 7, 11)]
    tables += [_perturbed(p, 100 * p + seed) for p in (2, 3, 5, 7) for seed in range(20)]
    tables += [t for p in (2, 3, 5) for t in _unit_breaks(p)]
    tables.append(_inverse_not_a_unit())
    tables.append(RingTable.empty(3))  # no unit: units_group gathers at no index
    raised = fewer_units = 0
    for t in tables:
        got = _units_outcome(units_group, t)
        assert got == _units_outcome(scan_units_group, t)
        raised += isinstance(got, tuple)
        fewer_units += isinstance(got, dict) and len(got["labels"]) < 2 * (t.p - 1)
        clean = closed_form_table(t.p)
        assert diff_tables(clean, t) == product_diff_tables(clean, t)
        assert diff_tables(t, clean) == product_diff_tables(t, clean)
        for i, a in enumerate(t.basis):
            for j, b in enumerate(t.basis):
                row = dense_row(t, i, j)
                want = Decomposition.from_pairs((t.basis[k], m) for k, m in enumerate(row) if m)
                assert t.product(a, b).summands == want.summands
    # the perturbations reach both the unit scan and the unit table
    assert raised >= 20 and fewer_units >= 20
    odd = units_group(_inverse_not_a_unit())
    assert lab("X3") not in odd.labels and odd.conjugation_ok and not odd.cyclic_part_ok
    two, three = closed_form_table(2), closed_form_table(3)
    assert diff_tables(two, three) == product_diff_tables(two, three) != []


def test_negative_multiplicities():
    t = closed_form_table(3)
    with dense_cell(t, t.index(lab("T")), t.index(lab("L"))) as row:
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
            with dense_cell(t, i, j) as cell:
                for x in xs:
                    for y in ys:
                        e = (x + y) % 6
                        if e == 1:
                            cell[0] += 1
                            cell[where[2]] -= 1
                        else:
                            cell[where[e]] += 1
    assert any(m < 0 for rows in densified(t) for row in rows for m in row)
    assert _summary(check_axioms(t)) == _summary(dense_check_axioms(t)) == (True, True, [], [])


def _with_cell(t, a, b, summands):
    """t with its cell (a, b) replaced by summands, {label: multiplicity}."""
    t.constants[t.index(lab(a))][t.index(lab(b))] = tuple(sorted((t.index(lab(c)), m) for c, m in summands.items()))
    return t


def _table_of(p, products):
    """The table at p whose cell (a, b) is products[(a, b)], and empty elsewhere."""
    t = RingTable.empty(p)
    for (a, b), summands in products.items():
        _with_cell(t, a, b, summands)
    return t


def _cyclic_table(p, vectors, monomials):
    """Z[Z_n], n = len(monomials), on the basis vectors[name] = {e: c}, the sum of c g^e.

    monomials[e] is g^e in that basis, as {name: c}.
    """
    n, products = len(monomials), {}
    for a, xs in vectors.items():
        for b, ys in vectors.items():
            cell = {}
            for x, c in xs.items():
                for y, d in ys.items():
                    for name, m in monomials[(x + y) % n].items():
                        cell[name] = cell.get(name, 0) + c * d * m
            products[(a, b)] = {name: m for name, m in cell.items() if m}
    return _table_of(p, products)


def _group_table(p, names):
    """Z_n with names[e] = g^e, and every other product 0."""
    return _cyclic_table(p, {name: {e: 1} for e, name in enumerate(names)}, [{name: 1} for name in names])


def _checked_middles(monkeypatch):
    """A list that gets the label of each middle check_axioms compares directly."""
    checked, compare = [], ring._middle_violations

    def recording(table, nz, j):
        checked.append(str(table.basis[j]))
        return compare(table, nz, j)

    monkeypatch.setattr(ring, "_middle_violations", recording)
    return checked


def _failing_middles(report):
    return {v.split(", ")[1] for v in report.associativity}


def _signed_z6():
    """Z[Z_6] on the p=2 basis with R = -g^3: L x R = -F1 is one label with multiplicity -1."""
    vectors = {"T": {1: 1, 2: 1}, "L": {2: 1}, "R": {3: -1}, "F0": {4: 1}, "X1": {0: 1}, "F1": {5: 1}}
    monomials = [{"X1": 1}, {"T": 1, "L": -1}, {"L": 1}, {"R": -1}, {"F0": 1}, {"F1": 1}]
    return _cyclic_table(2, vectors, monomials)


def _nucleus_pair():
    """p=2: T and L in the middle nucleus, T x L = R + F0, and R, F0 not in it.

    X1 is the unit; the other products are R x R = F0 x F0 = R x F1 = F1,
    R x F0 = F0 x R = F0 x F1 = -F1, and 0.
    """
    products = {(a, b): {} for a in ("T", "L", "R", "F0", "F1") for b in ("T", "L", "R", "F0", "F1")}
    products.update({(x, "X1"): {x: 1} for x in ("T", "L", "R", "F0", "X1", "F1")})
    products.update({("X1", x): {x: 1} for x in ("T", "L", "R", "F0", "X1", "F1")})
    products[("T", "L")] = {"R": 1, "F0": 1}
    for a, b, m in (("R", "R", 1), ("F0", "F0", 1), ("R", "F1", 1), ("R", "F0", -1), ("F0", "R", -1), ("F0", "F1", -1)):
        products[(a, b)] = {"F1": m}
    return _table_of(2, products)


def test_nucleus_closure_matches_dense_oracle(monkeypatch):
    checked = _checked_middles(monkeypatch)

    def report(t):
        checked.clear()
        got = _summary(check_axioms(t))
        assert got == _summary(dense_check_axioms(t))
        return got

    # p=5: the first ten labels are Z_10 with T = g^0 and L = g, so T and L
    # prove the other eight by closure; F4 x F3 = F3 is the only other
    # product, and F4 is the one middle that fails
    names = [str(b) for b in RingTable.empty(5).basis]
    block = _group_table(5, names[:10])
    _with_cell(block, "F4", "F3", {"F3": 1})
    unit_ok, assoc_ok, *found = report(block)
    assert checked == ["T", "L", "F3", "F4"] and not assoc_ok and not unit_ok
    assert _failing_middles(check_axioms(block)) == {"F4"}
    # the same with X1 x X1 = 0: the unit fails a second way
    unit_ok, assoc_ok, *more = report(_with_cell(block, "X1", "X1", {}))
    assert not unit_ok and not assoc_ok and sum(map(len, more)) > sum(map(len, found))
    # one-label cells with a negative multiplicity prove their label
    assert report(_signed_z6()) == (True, True, [], [])
    assert checked == ["T", "L", "R"]
    # and with multiplicity p: L x R = p F0 on the closed form
    for p in (2, 3, 5, 7):
        t = closed_form_table(p)
        assert report(t) == (True, True, [], [])
        assert t.constants[t.index(lab("L"))][t.index(lab("R"))] == ((t.index(lab("F0")), p),)
        assert "F0" not in checked and "T" in checked
    # T x L = R + F0 with T and L members proves neither R nor F0
    unit_ok, assoc_ok, *_ = report(_nucleus_pair())
    assert unit_ok and not assoc_ok and {"R", "F0"} <= set(checked)
    assert _failing_middles(check_axioms(_nucleus_pair())) == {"R", "F0"}
    unit_ok, assoc_ok, *_ = report(_with_cell(_nucleus_pair(), "X1", "F1", {}))
    assert not unit_ok and not assoc_ok
    # a failing middle whose products with members are single labels that fail too
    for p in (5, 7):
        unit_ok, assoc_ok, *_ = report(_with_cell(closed_form_table(p), "X2", "X2", {"X1": 1}))
        assert unit_ok and not assoc_ok and "F0" not in checked
    unit_ok, assoc_ok, *_ = report(_with_cell(closed_form_table(5), "X1", "X2", {"X3": 1}))
    assert not unit_ok and not assoc_ok
    # associative with another unit: Z_6 with F1 = g^0 and X1 = g^5
    unit_ok, assoc_ok, unit, assoc = report(_group_table(2, ["F1", "T", "L", "R", "F0", "X1"]))
    assert not unit_ok and assoc_ok and unit and assoc == []


@pytest.mark.parametrize("p", [17, 29, 31, 37, 41])
def test_closed_form_compares_at_most_seven_middles(monkeypatch, p):
    # the unit joins uncompared and the gather-only middles come first: an
    # X generating the units' cyclic part (one or two of them), F1 and T
    checked = _checked_middles(monkeypatch)
    assert check_axioms(closed_form_table(p)).ok()
    assert 0 < len(checked) <= 4, checked


def test_a_unit_that_passes_joins_the_nucleus_uncompared(monkeypatch):
    checked = _checked_middles(monkeypatch)
    tables = [closed_form_table(p) for p in (2, 3, 5, 7, 11)] + [_signed_z6(), _nucleus_pair()]
    tables += [_perturbed(p, 100 * p + seed) for p in (2, 3, 5, 7) for seed in range(20)]
    passed = failed = 0
    for t in tables:
        checked.clear()
        if check_axioms(t).unit_ok:
            assert "X1" not in checked, t.p
            passed += 1
        else:
            failed += 1
    assert passed >= 20 and failed >= 5


def test_units_group_shapes():
    u2 = units_group(table(2))
    assert u2.order == 2
    assert set(map(str, u2.labels)) == {"X1", "F1"}
    assert u2.is_dihedral()
    u3 = units_group(table(3))
    assert u3.order == 4 and u3.is_dihedral()
    for p in (2, 3):
        t = table(p)
        u = units_group(t)
        assert u.order == 2 * (p - 1)

        def unit_product(a, b):  # a unit cell of the table: one label, multiplicity 1
            ((label, mult),) = t.product(a, b).summands
            assert mult == 1
            return label

        f1 = lab("F1")
        assert unit_product(f1, f1) == lab("X1")
        for k in range(1, p):
            xk = lab(f"X{k}")
            conj = unit_product(unit_product(f1, xk), f1)
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


def _assert_sparse_cells(t):
    """Every cell is (basis index, multiplicity) pairs in strictly increasing index, none zero."""
    n = len(t.basis)
    assert len(t.constants) == n
    for i, rows in enumerate(t.constants):
        assert len(rows) == n
        for j, cell in enumerate(rows):
            assert type(cell) is tuple, (t.p, i, j, cell)
            ks = [k for k, _ in cell]
            assert ks == sorted(set(ks)) and all(0 <= k < n for k in ks), (t.p, i, j, cell)
            assert all(type(m) is int and m != 0 for _, m in cell), (t.p, i, j, cell)


def test_every_route_writes_sparse_cells():
    for p in (2, 3, 5):
        filled = RingTable.empty(p)
        for a in filled.basis:
            for b in filled.basis:
                filled.set_product(a, b, closed_form_product(p, a, b))
        # a two-summand product, listed against the basis order
        f1 = filled.index(lab("F1"))
        filled.set_product(lab("T"), lab("F1"), Decomposition(((lab("F1"), 1), (lab("T"), p))))
        assert filled.constants[0][f1] == ((0, p), (f1, 1))
        engine = build_table(p, workers=1)
        for t in (closed_form_table(p), oracle_table(p), engine, filled):
            _assert_sparse_cells(t)
            _assert_sparse_cells(parse_json(serialize(t, "json")))


def test_parse_json_merges_a_label_listed_twice():
    payload = json.loads(serialize(closed_form_table(3), "json"))
    payload["products"]["T,T"] = [{"label": "T", "mult": 1}, {"label": "T", "mult": 2}]
    payload["products"]["T,L"] = [{"label": "L", "mult": 1}, {"label": "T", "mult": 2}, {"label": "L", "mult": 1}]
    t = parse_json(json.dumps(payload))
    assert t.constants[0][0] == ((0, 3),)
    assert t.constants[0][1] == ((0, 2), (1, 2))
    _assert_sparse_cells(t)


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
    # values of the wrong type or shape: each raises ValueError naming its cell or key
    for edit, message in [
        (lambda d: d["products"]["T,T"][0].update(mult=2.5), "'T,T' has multiplicity 2.5, which is not an integer"),
        (lambda d: d["products"]["T,T"][0].update(mult=True), "'T,T' has multiplicity True, which is not an integer"),
        (lambda d: d["products"]["T,T"][0].update(mult="3"), "'T,T' has multiplicity '3', which is not an integer"),
        (lambda d: d.update(p="p"), "p must be an integer, got 'p'"),
        (lambda d: d.update(p=3.0), "p must be an integer, got 3.0"),
        (lambda d: d["products"]["T,R"][0].pop("label"), "'T,R' has a summand {'mult': 3} without a 'label' and a 'mult'"),
        (lambda d: d["products"]["T,R"][0].pop("mult"), "'T,R' has a summand {'label': 'R'} without a 'label' and a 'mult'"),
        (lambda d: d["products"]["T,R"].append("R"), "'T,R' has a summand 'R' without a 'label' and a 'mult'"),
        (lambda d: d["products"]["T,R"][0].update(label=["R"]), "'T,R' names ['R'], which is not in the basis"),
        (lambda d: d["products"].update({"L,L": {"label": "L", "mult": 1}}), "cell 'L,L' is not a list"),
        (lambda d: d.pop("products"), "no key 'products'"),
        (lambda d: d.update(products=[]), "products is not an object"),
    ]:
        bad = copy.deepcopy(payload)
        edit(bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_json(json.dumps(bad))
    with pytest.raises(ValueError, match="not an object"):
        parse_json("[]")
    # a large p is refused from the text alone, before a table of (2p+2)^2 cells is built
    with pytest.raises(ValueError, match="basis in JSON does not match"):
        parse_json(json.dumps({"p": 101, "basis": [], "products": {}}))
    big_basis = [str(b) for b in RingTable.empty(2).basis[:4]] + [f"X{k}" for k in range(1, 101)]
    big_basis += [f"F{k}" for k in range(1, 101)]
    with pytest.raises(ValueError, match="no cell 'T,L'"):
        parse_json(json.dumps({"p": 101, "basis": big_basis, "products": {"T,T": []}}))


def test_parse_json_rejects_a_missing_cell():
    payload = json.loads(serialize(closed_form_table(3), "json"))
    del payload["products"]["T,L"]
    with pytest.raises(ValueError, match="no cell 'T,L'"):
        parse_json(json.dumps(payload))


def _json_outcome(fn, t):
    try:
        return fn(t)
    except (TableError, ValueError) as exc:
        return type(exc), exc.args


def test_serialize_json_matches_plain_encoder():
    tables = [closed_form_table(p) for p in (7, 11, 13, 17)] + [table(7)]
    tables += [_perturbed(p, 100 * p + seed) for p in (2, 3, 5, 7, 17) for seed in range(20)]
    tables += [t for p in (2, 3, 5) for t in _unit_breaks(p)]
    raised = 0
    for t in tables:
        got = _json_outcome(lambda t: serialize(t, "json"), t)
        assert got == _json_outcome(plain_serialize_json, t), t.p
        raised += isinstance(got, tuple)
    # the unit breaks reach the raising path too
    assert raised >= 20
    # the cell writer meets empty cells and cells of several summands with
    # two-digit labels
    two_digit = {i for i, b in enumerate(RingTable.empty(17).basis) if len(str(b)) == 3}
    cells = {cell for t in tables if t.p == 17 for rows in t.constants for cell in rows}
    assert () in cells
    assert any(len(cell) > 1 and two_digit.intersection(k for k, _ in cell) for cell in cells)


def test_readers_see_in_place_edits():
    t = closed_form_table(5)
    x1, x2, x4 = t.index(lab("X1")), t.index(lab("X2")), t.index(lab("X4"))
    assert check_axioms(t).ok() and units_group(t).is_dihedral()
    text = serialize(t, "json")
    with dense_cell(t, x2, x2) as row:  # X2 x X2 = X4
        row[x4], row[x1] = 0, 1  # X2 x X2 = X1 now, a replaced cell
    assert not check_axioms(t).associativity_ok
    units = units_group(t)
    # only the cyclic relation reads X2 x X2
    assert (units.cyclic_part_ok, units.involution_ok, units.conjugation_ok) == (False, True, True)
    edited = serialize(t, "json")
    assert edited != text and edited == plain_serialize_json(t)
    assert '"dihedral": false' in edited and '"associativity": false' in edited
    with dense_cell(t, x2, x2) as row:
        row[x4], row[x1] = 1, 0
    assert check_axioms(t).ok() and units_group(t).is_dihedral()
    assert serialize(t, "json") == text


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

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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
