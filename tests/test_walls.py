import itertools

import pytest

from bpring.bimodules import BimoduleLabel, Decomposition, all_labels, label_parse
from bpring.closed_form import closed_form_table
from bpring.ring import diff_tables
from bpring.walls import (
    BoundaryPair,
    BoundaryType,
    InvertibleWall,
    OracleError,
    fuse_walls,
    label_of_wall,
    mutual_braiding,
    oracle_table,
    preserves_braiding,
    wall_of,
)

E = BoundaryType.E_CONDENSING
M = BoundaryType.M_CONDENSING


def lab(text):
    return label_parse(text)


def test_wall_assignments():
    assert wall_of(3, lab("T")) == BoundaryPair(E, E)
    assert wall_of(3, lab("L")) == BoundaryPair(M, E)
    assert wall_of(3, lab("R")) == BoundaryPair(E, M)
    assert wall_of(3, lab("F0")) == BoundaryPair(M, M)
    x2 = wall_of(5, lab("X2"))
    assert x2.apply((1, 0)) == (2, 0)
    assert x2.apply((0, 1)) == (0, 3)  # 2^-1 = 3 mod 5
    f1 = wall_of(5, lab("F1"))
    assert f1.apply((2, 3)) == (3, 2)


def test_wall_label_round_trip():
    for p in (2, 3, 5):
        for label in all_labels(p):
            assert label_of_wall(p, wall_of(p, label)) == label


def test_label_of_wall_rejects_unknown_maps():
    with pytest.raises(OracleError):
        label_of_wall(5, InvertibleWall(5, ((1, 1), (0, 1))))
    with pytest.raises(OracleError):
        label_of_wall(5, InvertibleWall(5, ((2, 0), (0, 2))))


def test_sector_behavior():
    for p in (3, 5):
        for k in range(1, p):
            assert not wall_of(p, lab(f"X{k}")).swaps_sectors()
            assert wall_of(p, lab(f"F{k}")).swaps_sectors()


def test_strip_rule():
    p = 3
    t, l, r = wall_of(p, lab("T")), wall_of(p, lab("L")), wall_of(p, lab("R"))
    assert fuse_walls(t, t, p) == Decomposition.single(lab("T"), p)
    assert fuse_walls(t, l, p) == Decomposition.single(lab("T"), 1)
    assert fuse_walls(l, r, p) == Decomposition.single(lab("F0"), p)


def test_boundary_products_stay_boundaries():
    # a strip of vacuum separates the bulks in every non-invertible product
    p = 3
    pairs = [lab("T"), lab("L"), lab("R"), lab("F0")]
    for a in pairs:
        for b in pairs:
            wa, wb = wall_of(p, a), wall_of(p, b)
            result = fuse_walls(wa, wb, p)
            assert len(result.summands) == 1
            label, _ = result.summands[0]
            assert not label.is_invertible()


def test_invertible_calibration():
    p = 5
    for q in range(1, p):
        for r in range(1, p):
            got = fuse_walls(wall_of(p, lab(f"F{q}")), wall_of(p, lab(f"F{r}")), p)
            expected = BimoduleLabel("X", (pow(q, p - 2, p) * r) % p)
            assert got == Decomposition.single(expected)
        for l in range(1, p):
            got = fuse_walls(wall_of(p, lab(f"F{q}")), wall_of(p, lab(f"X{l}")), p)
            assert got == Decomposition.single(BimoduleLabel("F", (q * l) % p))


def test_invertible_against_boundary():
    p = 3
    f1 = wall_of(p, lab("F1"))
    t = wall_of(p, lab("T"))
    assert fuse_walls(f1, t, p) == Decomposition.single(lab("L"))
    assert fuse_walls(t, f1, p) == Decomposition.single(lab("R"))
    x2 = wall_of(p, lab("X2"))
    assert fuse_walls(x2, t, p) == Decomposition.single(lab("T"))


def test_oracle_matches_closed_form():
    for p in (2, 3, 5):
        assert diff_tables(oracle_table(p), closed_form_table(p)) == []


def test_braiding_pairing_preserved():
    for p in (2, 3, 5):
        for label in all_labels(p):
            if not label.is_invertible():
                continue
            wall = wall_of(p, label)
            assert preserves_braiding(wall)


def test_braiding_pairing_values():
    p = 3
    anyons = list(itertools.product(range(p), repeat=2))
    for x in anyons:
        for y in anyons:
            assert mutual_braiding(p, x, y) == mutual_braiding(p, y, x)
    # a sector-mixing shear is not a catalogue wall and breaks the pairing
    shear = InvertibleWall(p, ((1, 1), (0, 1)))
    assert not preserves_braiding(shear)
