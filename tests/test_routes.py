"""The closed form and the wall oracle: label wrappers, tables and bad labels.

closed_form_product and closed_form_table read one law, and fuse_walls and
oracle_table one stacking rule; these tests pin that the label-level calls
and the tables agree cell by cell, that the two tables agree with each other,
and that every route refuses a label outside the basis at p, or a p that is
not an int, as bad input.  They also count the automorphisms of the table:
the relabellings that no comparison of two routes' tables can see.
"""

import pytest

from bpring.bimodules import BimoduleLabel, Decomposition, catalogue_entry
from bpring.closed_form import closed_form_product, closed_form_table
from bpring.fusion import build_table
from bpring.walls import fuse_walls, oracle_table, wall_of
from ring_oracle import dense_cell, dense_row, relabellings, table_automorphisms

PAIR_PRIMES = (2, 3, 5, 7)


def test_oracle_table_equals_closed_form_table():
    for p in (2, 3, 5, 7, 11, 13):
        assert oracle_table(p).constants == closed_form_table(p).constants, p


def test_the_table_has_2_4_16_and_24_automorphisms_at_p_2_3_5_7():
    # a group of permutations of the basis, the identity first
    for p, count in ((2, 2), (3, 4), (5, 16), (7, 24)):
        found = table_automorphisms(p)
        n = 2 * p + 2
        assert len(found) == len(set(found)) == count, p
        assert found[0] == tuple(range(n))
        assert all(sorted(sigma) == list(range(n)) for sigma in found)
        assert {tuple(s[t[i]] for i in range(n)) for s in found for t in found} == set(found)


def test_each_automorphism_maps_the_table_onto_itself():
    # sigma(a) x sigma(b) = sigma(a x b) for every pair, read label by label
    for p in PAIR_PRIMES:
        table = closed_form_table(p)
        for sigma in relabellings(p):
            for a in table.basis:
                for b in table.basis:
                    moved = Decomposition.from_pairs((sigma[c], m) for c, m in table.product(a, b).summands)
                    assert table.product(sigma[a], sigma[b]) == moved, (p, a, b)


def test_closed_form_product_reads_the_table_law():
    for p in PAIR_PRIMES:
        table = closed_form_table(p)
        for a in table.basis:
            for b in table.basis:
                assert closed_form_product(p, a, b) == table.product(a, b), (p, a, b)


def test_fuse_walls_reads_the_oracle_stacking():
    for p in PAIR_PRIMES:
        table = oracle_table(p)
        for a in table.basis:
            for b in table.basis:
                assert fuse_walls(wall_of(p, a), wall_of(p, b), p) == table.product(a, b), (p, a, b)


def test_each_call_builds_its_own_cells():
    for build in (closed_form_table, oracle_table):
        t = build(3)
        with dense_cell(t, 0, 0) as row:
            row[0] = 99
        assert dense_row(build(3), 0, 0)[0] == 3
        assert [dense_row(t, i, j)[0] for i in range(8) for j in range(8)].count(99) == 1


@pytest.mark.parametrize("build", [closed_form_table, oracle_table, build_table])
def test_a_prime_that_is_no_int_is_bad_input_on_every_route(build):
    # 7.0 equals the prime 7, but range() and pow() inside each route refuse it
    with pytest.raises(ValueError, match="^p must be an integer, got 7.0$"):
        build(7.0)


@pytest.mark.parametrize("p", PAIR_PRIMES)
def test_labels_outside_the_basis_are_bad_input_on_every_route(p):
    x1 = BimoduleLabel("X", 1)
    for label, message in (
        (BimoduleLabel("X", p), f"X index {p} out of range for p={p}"),
        (BimoduleLabel("X", p + 2), f"X index {p + 2} out of range for p={p}"),
        (BimoduleLabel("F", p + 4), f"F index {p + 4} out of range for p={p}"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            catalogue_entry(p, label)
        with pytest.raises(ValueError, match=f"^{message}$"):
            closed_form_product(p, label, x1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            closed_form_product(p, x1, label)
        with pytest.raises(ValueError, match=f"^{message}$"):
            wall_of(p, label)
