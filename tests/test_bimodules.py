import pytest

from bpring.bimodules import (
    BimoduleLabel,
    Decomposition,
    LabelParseError,
    STAR,
    all_labels,
    catalogue,
    catalogue_entry,
    label_invariants,
    label_parse,
    validate,
)
from bpring.groups import subgroup_from_generators


def test_catalogue_counts_and_shapes():
    for p in (2, 3, 5, 7):
        cat = catalogue(p)
        assert len(cat) == 2 * p + 2
        by_label = {str(b.label): b for b in cat}
        assert len(by_label["T"].simples) == p * p
        assert len(by_label["L"].simples) == p
        assert len(by_label["R"].simples) == p
        for q in range(p):
            assert len(by_label[f"F{q}"].simples) == 1
        for k in range(1, p):
            assert len(by_label[f"X{k}"].simples) == p


def test_catalogue_p2_labels():
    labels = [str(b.label) for b in catalogue(2)]
    assert labels == ["T", "L", "R", "F0", "X1", "F1"]


def test_invertibility_split():
    for p in (2, 3, 5):
        cat = catalogue(p)
        invertible = [b for b in cat if b.label.is_invertible()]
        assert len(invertible) == 2 * (p - 1)
        assert len(cat) - len(invertible) == 4


def test_catalogue_subgroups():
    for p in (2, 3, 5):
        subgroup = lambda text: label_invariants(p, label_parse(text))[0]
        assert subgroup("T").kind == "trivial"
        assert subgroup("L") == subgroup_from_generators(p, [(1, 0)])
        assert subgroup("R") == subgroup_from_generators(p, [(0, 1)])
        assert subgroup("F0").kind == "full"
        for k in range(1, p):
            sub = subgroup(f"X{k}")
            assert sub == subgroup_from_generators(p, [(-k, 1)])
            assert sub.contains((-k % p, 1))


def test_label_invariants_give_the_cocycle_index_and_validate_checks_them():
    for p in (2, 3, 5):
        for label in all_labels(p):
            q = label_invariants(p, label)[1]
            assert q == (label.index if label.kind == "F" else 0)
        # tables of one entry under another entry's label
        wrong = catalogue_entry(p, label_parse("L"))._replace(label=label_parse("R"))
        assert "stabilizer of 0 differs from the stored subgroup" in validate(wrong)
        wrong = catalogue_entry(p, label_parse("F1"))._replace(label=label_parse("F0"))
        assert any("catalogue entry F0 has wrong mixed associator" in v for v in validate(wrong))
    with pytest.raises(ValueError, match="X index 7 out of range for p=5"):
        label_invariants(5, label_parse("X7"))
    beyond = catalogue_entry(5, label_parse("X2"))._replace(label=label_parse("X7"))
    assert validate(beyond) == ["X index 7 out of range for p=5"]


def act(entry, row, m):
    """The simple that one row of an action table sends the simple m to."""
    return entry.simples[row[entry.index[m]]]


def test_catalogue_action_tables():
    p = 5
    by_label = {str(b.label): b for b in catalogue(p)}
    T = by_label["T"]
    assert act(T, T.left[2], (1, 3)) == (3, 3)
    assert act(T, T.right[4], (1, 3)) == (1, 2)
    L = by_label["L"]
    assert act(L, L.left[2], 1) == 1 and act(L, L.right[2], 1) == 3
    R = by_label["R"]
    assert act(R, R.left[2], 1) == 3 and act(R, R.right[2], 1) == 1
    X3 = by_label["X3"]
    assert act(X3, X3.left[2], 1) == 3 and act(X3, X3.right[2], 1) == (1 + 3 * 2) % p
    F2 = by_label["F2"]
    assert act(F2, F2.left[2], STAR) == STAR and act(F2, F2.right[2], STAR) == STAR


def test_mixed_associator_phase():
    for p in (2, 3, 5):
        for q in range(p):
            entry = catalogue_entry(p, BimoduleLabel("F", q))
            for g in range(p):
                for h in range(p):
                    assert entry.mixed[g][entry.index[STAR]][h] == q * g * h % p


def test_validate_accepts_catalogue():
    for p in (2, 3, 5):
        for entry in catalogue(p):
            assert validate(entry) == []


def test_validate_is_repeatable():
    entry = catalogue_entry(3, BimoduleLabel("T"))
    assert validate(entry) == []
    assert validate(entry) == []


def test_validate_detects_broken_action():
    entry = catalogue_entry(3, BimoduleLabel("T"))
    bad = [list(row) for row in entry.right]
    zero = entry.index[(0, 0)]
    bad[1][zero] = zero  # no longer free, breaks additivity/commutation
    assert validate(entry._replace(right=bad)) != []


def test_validate_detects_nonbilinear_mixed_associator():
    entry = catalogue_entry(3, BimoduleLabel("F", 1))
    violations = validate(entry._replace(mixed=[[[(g + h) % 3 for h in range(3)]] for g in range(3)]))
    assert any("mixed associator" in v for v in violations)


def test_stabilizers_match_stored_subgroup():
    # the subgroup that label_invariants gives each catalogue label
    for p in (2, 3, 5):
        for entry in catalogue(p):
            sub = label_invariants(p, entry.label)[0]
            for i in range(len(entry.simples)):
                assert entry.stabilizer_of(i) == sub


def _lists(table):
    return [_lists(row) for row in table] if isinstance(table, tuple) else table


def _set(table, at, value):
    table = _lists(table)
    row = table
    for k in at[:-1]:
        row = row[k]
    row[at[-1]] = value
    return table


# Hand-built tables that break one shape rule each, on the T entry at p=3
# (9 simples): each must come back as exactly one violation, never raise.
MALFORMED = {
    "left has p-1 rows": lambda e: {"left": _lists(e.left)[:-1]},
    "a right row is one too long": lambda e: {"right": _set(e.right, (1,), e.right[1] + (0,))},
    "mixed lacks a simple": lambda e: {"mixed": _set(e.mixed, (2,), list(e.mixed[2][:-1]))},
    "left sends a simple past the last index": lambda e: {"left": _set(e.left, (1, 4), 9)},
    "right sends a simple to index -1": lambda e: {"right": _set(e.right, (2, 0), -1)},
    "an exponent equals p": lambda e: {"mixed": _set(e.mixed, (1, 3, 2), 3)},
    "an exponent is negative": lambda e: {"mixed": _set(e.mixed, (2, 8, 1), -1)},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_reports_malformed_tables(case):
    entry = catalogue_entry(3, BimoduleLabel("T"))
    for label in (entry.label, None):
        bad = entry._replace(label=label, **MALFORMED[case](entry))
        violations = validate(bad)
        assert len(violations) == 1 and isinstance(violations[0], str), violations


def test_trivial_mixed_is_read_from_the_tables():
    # Set for every catalogue label but F_q with q != 0, at p <= 7.  At
    # p <= 3, one nonzero exponent in any slot (g, i, h) of a zero table,
    # every g and every right-hand h included, clears it on every entry.
    for p in (2, 3, 5, 7):
        for entry in catalogue(p):
            assert entry.trivial_mixed == (entry.label.kind != "F" or entry.label.index == 0), (p, str(entry.label))
    for p in (2, 3):
        for entry in catalogue(p):
            n = len(entry.simples)
            zero = (((0,) * p,) * n,) * p  # _set copies it into lists
            assert entry._replace(mixed=zero).trivial_mixed
            for g in range(p):
                for i in range(n):
                    for h in range(p):
                        mixed = _set(zero, (g, i, h), 1 + (g + i + h) % (p - 1))
                        assert not entry._replace(mixed=mixed).trivial_mixed, (p, str(entry.label), g, i, h)


def test_label_grammar_round_trip():
    for p in (2, 5):
        for label in all_labels(p):
            assert label_parse(str(label)) == label
    assert label_parse("X3") == BimoduleLabel("X", 3)
    assert label_parse("F0") == BimoduleLabel("F", 0)
    assert label_parse("F12") == BimoduleLabel("F", 12)


# an index is ASCII digits with no leading zero, and a label has nothing around
# it: other digits, padded spellings and surrounding whitespace are rejected
@pytest.mark.parametrize(
    "bad",
    ["X0", "T1", "L2", "F", "X", "Q3", "", "x1", "F-1", "X01", "F00", " F03", "X\uff11", "F\u0663", "X1_0", "F+1",
     " T", "X1\n", "F0 ", "\tR"],
)
def test_label_parse_errors(bad):
    with pytest.raises(LabelParseError):
        label_parse(bad)


def test_basis_order():
    labels = [str(l) for l in all_labels(3)]
    assert labels == ["T", "L", "R", "F0", "X1", "X2", "F1", "F2"]


def test_decomposition_formatting_and_aggregation():
    T = BimoduleLabel("T")
    L = BimoduleLabel("L")
    dec = Decomposition.from_pairs([(L, 1), (T, 2), (T, 1)])
    assert str(dec) == "3*T + L"
    assert dec.total_simples(3) == 3 * 9 + 3
    assert str(Decomposition.single(T)) == "T"
