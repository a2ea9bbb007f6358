import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bpring import walls
from bpring.bimodules import BimoduleLabel, Decomposition, all_labels, label_invariants, label_parse
from bpring.closed_form import closed_form_table
from bpring.groups import subgroup_from_generators
from bpring.ring import diff_tables
from bpring.walls import (
    BoundaryPair,
    BoundaryType,
    InvertibleWall,
    OracleError,
    _basis_walls,
    _invariants,
    _stack_row,
    fuse_walls,
    oracle_table,
    wall_of,
)
from ring_oracle import relabellings
from wall_oracle import compose, label_of_wall, lagrangian, lagrangian_subgroups, spin, wall_points

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
    # a wall is named only if it equals the wall of a basis label: an unreduced
    # matrix, a matrix held in lists and faces that are not BoundaryType
    # members are no label's wall
    with pytest.raises(OracleError, match="wall of no basis label at p=5$"):
        label_of_wall(5, InvertibleWall(5, ((6, 0), (0, 1))))
    with pytest.raises(OracleError, match="wall of no basis label at p=3$"):
        label_of_wall(3, BoundaryPair("e", "e"))
    with pytest.raises(OracleError, match="wall of no basis label at p=3$"):
        label_of_wall(3, InvertibleWall(3, [[1, 0], [0, 1]]))


def test_two_labels_with_one_wall_are_an_oracle_fault(monkeypatch):
    from bpring import walls

    real_wall_of = walls.wall_of
    monkeypatch.setattr(walls, "wall_of", lambda p, label: real_wall_of(p, lab("X1") if label == lab("X2") else label))
    message = "^labels X1 and X2 share the wall "
    with pytest.raises(OracleError, match=message):
        oracle_table(3)
    with pytest.raises(OracleError, match=message):
        label_of_wall(3, real_wall_of(3, lab("T")))


def _replace_wall(monkeypatch, replaced, wall):
    """Make walls.wall_of return wall for the label replaced, and the true wall for every other label."""
    from bpring import walls

    real_wall_of = walls.wall_of
    monkeypatch.setattr(walls, "wall_of", lambda p, label: wall if label == lab(replaced) else real_wall_of(p, label))


def test_an_invertible_cell_outside_the_basis_is_an_oracle_fault(monkeypatch):
    # X2 becomes diag(1, 2), which preserves the sectors and is no label's
    # wall, so X2 x X2 = diag(1, 4) is the wall of no label
    _replace_wall(monkeypatch, "X2", InvertibleWall(5, ((1, 0), (0, 2))))
    message = r"^InvertibleWall\(p=5, matrix=\(\(1, 0\), \(0, 4\)\)\) is the wall of no basis label at p=5$"
    with pytest.raises(OracleError, match=message):
        oracle_table(5)


def test_a_boundary_cell_outside_the_basis_is_an_oracle_fault(monkeypatch):
    # F0 becomes diag(2, 2), so no label's wall has two m-condensing faces,
    # and L x R is the wall of no label
    _replace_wall(monkeypatch, "F0", InvertibleWall(5, ((2, 0), (0, 2))))
    message = (r"^BoundaryPair\(left=<BoundaryType.M_CONDENSING: 'm'>, right=<BoundaryType.M_CONDENSING: 'm'>\)"
               r" is the wall of no basis label at p=5$")
    with pytest.raises(OracleError, match=message):
        oracle_table(5)


def test_a_wall_of_another_prime_is_bad_input():
    # X2 x X2 is X1 at p=3, but X4 when the walls are read at p=5
    x2 = wall_of(3, lab("X2"))
    assert fuse_walls(x2, x2, 3) == Decomposition.single(lab("X1"))
    message = "^a wall at p=3 cannot be stacked or named at p=5$"
    for w1, w2 in ((x2, x2), (x2, wall_of(5, lab("X2"))), (wall_of(5, lab("F1")), x2), (wall_of(5, lab("T")), x2)):
        with pytest.raises(ValueError, match=message):
            fuse_walls(w1, w2, 5)
    with pytest.raises(ValueError, match=message):
        label_of_wall(5, x2)


def test_sector_behavior():
    for p in (3, 5):
        for k in range(1, p):
            assert not wall_of(p, lab(f"X{k}")).swaps_sectors()
            assert wall_of(p, lab(f"F{k}")).swaps_sectors()


def test_sector_check_raises_on_every_call():
    # a failed sector check is kept nowhere: it raises on every call
    shear = InvertibleWall(5, ((1, 1), (0, 1)))
    for _ in range(2):
        with pytest.raises(OracleError, match=r"^wall map \(\(1, 1\), \(0, 1\)\) does not preserve"):
            shear.swaps_sectors()


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
    # preserving the spin a*b of e^a m^b is stronger than preserving the
    # mutual braiding a*d + b*c, which is the spin of the sum less the spins
    for p in (2, 3, 5):
        anyons = list(itertools.product(range(p), repeat=2))
        for label in all_labels(p):
            if not label.is_invertible():
                continue
            wall = wall_of(p, label)
            assert all(spin(p, wall.apply(x)) == spin(p, x) for x in anyons), (p, label)


def test_braiding_pairing_values():
    p = 3
    anyons = list(itertools.product(range(p), repeat=2))
    for x in anyons:
        for y in anyons:
            (a, b), (c, d) = x, y
            assert (spin(p, (a + c, b + d)) - spin(p, x) - spin(p, y)) % p == (a * d + b * c) % p
    # a sector-mixing shear is not a catalogue wall and breaks the spin: e^a m^b -> e^(a+b) m^b
    for p in (2, 3, 5):
        shear = InvertibleWall(p, ((1, 1), (0, 1)))
        assert any(spin(p, shear.apply(x)) != spin(p, x) for x in itertools.product(range(p), repeat=2))


def test_fuse_walls_names_both_inputs():
    # an input that label_of_wall refuses is refused before stacking, on either
    # side: an unreduced matrix, the same held in lists, faces that are not
    # BoundaryType members
    x2, f1 = wall_of(3, lab("X2")), wall_of(3, lab("F1"))
    unreduced = InvertibleWall(3, ((4, 0), (0, 1)))
    cases = ((unreduced, x2), (InvertibleWall(3, [[4, 0], [0, 1]]), x2), (BoundaryPair("e", "e"), f1), (x2, unreduced))
    for w1, w2 in cases:
        with pytest.raises(OracleError, match="wall of no basis label at p=3$"):
            fuse_walls(w1, w2, 3)


def test_fuse_walls_builds_the_basis_once(monkeypatch):
    # both inputs are named by the one inverse of wall_of that the stacking reads
    from bpring import walls

    x2, f1 = wall_of(5, lab("X2")), wall_of(5, lab("F1"))
    want = oracle_table(5).product(lab("X2"), lab("F1"))
    builds = []
    basis_walls = walls._basis_walls
    monkeypatch.setattr(walls, "_basis_walls", lambda p: builds.append(p) or basis_walls(p))
    assert fuse_walls(x2, f1, 5) == want
    assert builds == [5]


def test_oracle_invariants_match_the_catalogue_labels():
    # the one place where the oracle's (H, q) table meets bimodules.label_invariants;
    # read through the module, so that a relabelled table is read too
    for p in (2, 3, 5, 7, 11, 13):
        for label in all_labels(p):
            gens, q = walls._invariants(p, label)
            assert (subgroup_from_generators(p, gens), q) == label_invariants(p, label), (p, label)


def test_the_invariants_comparison_pins_the_oracle_labels_against_every_automorphism(monkeypatch):
    # An automorphism sigma of the table, put into the oracle's (H, q) table,
    # leaves oracle_table equal to the closed form: the walls are named by
    # the same relabelled basis they were built from.  The comparison with
    # label_invariants must see it.
    invariants = walls._invariants
    for p in (3, 5):
        for sigma in relabellings(p):
            with monkeypatch.context() as m:
                m.setattr(walls, "_invariants", lambda q, label: invariants(q, sigma[label] if q == p else label))
                assert oracle_table(p).constants == closed_form_table(p).constants
                with pytest.raises(AssertionError):
                    test_oracle_invariants_match_the_catalogue_labels()


def test_wall_of_raises_on_a_subgroup_that_is_not_isotropic(tmp_path):
    # No basis label's (H, q) reaches wall_of's isotropy check; a copy of the
    # package whose basis reads h2 for -h2 does, with X1 at p=3, in wall_of
    # and through verify, in a fresh interpreter each
    package = tmp_path / "bpring"
    shutil.copytree(Path(walls.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    source = (package / "walls.py").read_text()
    assert source.count("-h2 % p") == 1
    (package / "walls.py").write_text(source.replace("-h2 % p", "h2 % p"))
    env = {k: v for k, v in os.environ.items() if k != "BPRING_THREADS"}
    env.update(PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    probe = (
        "from bpring.bimodules import label_parse\n"
        "from bpring.walls import OracleError, wall_of\n"
        "try:\n"
        "    wall_of(3, label_parse('X1'))\n"
        "except OracleError as exc:\n"
        "    print(wall_of.__module__, wall_of.__code__.co_filename, exc, sep='\\n')\n"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    message = "the subgroup L of X1 at p=3 is not isotropic for c1*h1 - c2*h2"
    assert run.stdout == f"bpring.walls\n{package / 'walls.py'}\n{message}\n"
    run = subprocess.run([sys.executable, "-m", "bpring.cli", "verify", "--p", "3"], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (3, "", f"internal error: {message}\n")


def test_each_wall_is_the_lagrangian_subgroup_of_its_label():
    for p in (2, 3, 5, 7):
        for label in all_labels(p):
            assert wall_points(p, wall_of(p, label)) == lagrangian(p, *_invariants(p, label)), (p, label)


def test_stacking_is_relation_composition():
    # _stack_row is the one stacking rule: oracle_table stacks each row with
    # it and fuse_walls each cell
    for p in (2, 3, 5, 7):
        labels, columns, index_of = _basis_walls(p)
        sets = [lagrangian(p, *_invariants(p, label)) for label in labels]
        name = dict(zip(sets, labels))
        table = oracle_table(p)
        for a, l1, row in zip(labels, sets, columns):
            named = list(_stack_row(row, columns, p, index_of))
            assert len(named) == len(labels)
            for b, l2, (k, stacked) in zip(labels, sets, named):
                composite, mult = compose(l1, l2)
                assert (labels[k], stacked) == (name[composite], mult), (p, a, b)
                assert table.product(a, b) == Decomposition.single(name[composite], mult), (p, a, b)


def test_fuse_walls_and_oracle_table_stack_alike():
    for p in (2, 3, 5):
        table = oracle_table(p)
        for a, b in itertools.product(all_labels(p), repeat=2):
            assert fuse_walls(wall_of(p, a), wall_of(p, b), p) == table.product(a, b), (p, a, b)


def test_labels_are_in_bijection_with_the_lagrangian_subgroups():
    for p, count in ((2, 6), (3, 8), (5, 12)):
        subgroups = lagrangian_subgroups(p)
        assert len(subgroups) == len(set(subgroups)) == count
        images = [wall_points(p, wall_of(p, label)) for label in all_labels(p)]
        assert len(set(images)) == len(images)
        assert set(images) == set(subgroups)
