import itertools
import random

import pytest

from bpring.cyclotomic import require_prime
from bpring.groups import Subgroup, enumerate_subgroups, subgroup_from_elements, subgroup_from_generators
from group_oracle import CocycleClass, cocycle_phase, cosets, elements, pair_add
from scalar_oracle import is_one, root_of_unity


# Closure by brute force: oracles for enumerate_subgroups and
# subgroup_from_elements, which the library does not need.

def is_closed_subset(p: int, elements) -> bool:
    elts = {(l % p, r % p) for l, r in elements}
    if (0, 0) not in elts:
        return False
    for a in elts:
        if (-a[0] % p, -a[1] % p) not in elts:
            return False
        for b in elts:
            if pair_add(p, a, b) not in elts:
                return False
    return True


def brute_force_subgroups(p: int) -> list[Subgroup]:
    """Independent oracle for enumerate_subgroups.

    At p <= 3 every subset of Z_p x Z_p is tested for closure; beyond that the
    closures of all generator sets of size <= 2 are collected (two generators
    always suffice for Z_p x Z_p).
    """
    require_prime(p)
    all_elts = [(a, b) for a in range(p) for b in range(p)]
    found = set()
    if p <= 3:
        for r in range(len(all_elts) + 1):
            for subset in itertools.combinations(all_elts, r):
                if is_closed_subset(p, subset):
                    found.add(frozenset(subset))
    else:
        for gens in itertools.chain(
            [()], itertools.combinations(all_elts, 1), itertools.combinations(all_elts, 2)
        ):
            closure = {(0, 0)}
            frontier = list(gens)
            while frontier:
                x = frontier.pop()
                for e in list(closure):
                    y = pair_add(p, x, e)
                    if y not in closure:
                        closure.add(y)
                        frontier.append(y)
            found.add(frozenset(closure))
    subs = [subgroup_from_elements(p, elts) for elts in found]
    return sorted(subs, key=lambda s: (s.order, s.generator or (-1, -1)))


def test_subgroup_from_generators():
    line = subgroup_from_generators(3, [(2, 1)])
    assert line.kind == "line" and line.order == 3
    assert line.contains((2, 1))
    assert subgroup_from_generators(5, []).kind == "trivial"
    full = subgroup_from_generators(2, [(1, 0), (0, 1)])
    assert full.kind == "full" and full.order == 4


def test_line_generator_canonical_form():
    assert subgroup_from_generators(5, [(3, 1)]).generator == (1, 2)  # 3^-1 = 2 mod 5
    assert subgroup_from_generators(5, [(0, 4)]).generator == (0, 1)
    assert subgroup_from_generators(7, [(2, 0)]).generator == (1, 0)


def test_subgroup_refuses_an_unknown_kind_and_a_zero_line():
    with pytest.raises(ValueError, match="^unknown subgroup kind 'bogus'$"):
        Subgroup(3, "bogus")
    with pytest.raises(ValueError, match="^line generator must be nonzero$"):
        Subgroup(3, "line", (0, 0))


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(2)) == 5
    assert len(enumerate_subgroups(3)) == 6
    assert len(enumerate_subgroups(5)) == 8


def test_enumerate_matches_brute_force():
    for p in (2, 3, 5):
        enumerated = set(enumerate_subgroups(p))
        brute = set(brute_force_subgroups(p))
        assert enumerated == brute


def test_every_subgroup_is_closed():
    for p in (2, 3, 5):
        for sub in enumerate_subgroups(p):
            assert is_closed_subset(p, elements(sub))


def test_cosets():
    reps = cosets(subgroup_from_generators(3, [(1, 0)]))
    assert reps == [(0, 0), (0, 1), (0, 2)]
    assert len(cosets(Subgroup(3, "full"))) == 1
    assert len(cosets(Subgroup(3, "trivial"))) == 9
    for p in (2, 3, 5):
        for sub in enumerate_subgroups(p):
            assert len(cosets(sub)) * sub.order == p * p


def test_coset_representatives_are_least():
    for p in (2, 3, 5):
        for sub in enumerate_subgroups(p):
            for rep in cosets(sub):
                members = sorted(pair_add(p, rep, h) for h in elements(sub))
                assert rep == members[0]


def test_subgroup_from_elements_rejects_non_subgroups():
    with pytest.raises(ValueError):
        subgroup_from_elements(3, [(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        subgroup_from_elements(3, [(1, 1)])
    # every subset of Z_3 x Z_3 that contains (0, 0), as reduced int pairs and
    # as pairs shifted off 0..p-1
    p = 3
    others = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    accepted = 0
    for mask in range(1 << len(others)):
        subset = [(0, 0)] + [x for i, x in enumerate(others) if mask >> i & 1]
        as_pairs = [(a + p, b - p) for a, b in subset]
        if is_closed_subset(p, subset):
            accepted += 1
            sub = subgroup_from_elements(p, subset)
            assert set(elements(sub)) == set(subset)
            assert subgroup_from_elements(p, as_pairs) == sub
        else:
            for elts in (subset, as_pairs):
                with pytest.raises(ValueError):
                    subgroup_from_elements(p, elts)
    assert accepted == len(enumerate_subgroups(p))


def test_cocycle_trivial_class():
    c = CocycleClass(5, 0)
    for a in range(5):
        for b in range(5):
            assert is_one(cocycle_phase(c, (a, b), (b, a)))


def test_cocycle_representative_value():
    c = CocycleClass(5, 1)
    assert cocycle_phase(c, (0, 1), (1, 0)) == root_of_unity(5, 1)


def test_cocycle_identity_exhaustive_small():
    for p in (2, 3):
        for q in range(p):
            c = CocycleClass(p, q)
            pts = [(a, b) for a in range(p) for b in range(p)]
            for x in pts:
                for y in pts:
                    for z in pts:
                        lhs = cocycle_phase(c, x, y) * cocycle_phase(c, pair_add(p, x, y), z)
                        rhs = cocycle_phase(c, y, z) * cocycle_phase(c, x, pair_add(p, y, z))
                        assert lhs == rhs


def test_cocycle_identity_random_larger():
    rng = random.Random(7)
    for p in (5, 7):
        for q in range(p):
            c = CocycleClass(p, q)
            for _ in range(40):
                x, y, z = (
                    (rng.randrange(p), rng.randrange(p)) for _ in range(3)
                )
                lhs = cocycle_phase(c, x, y) * cocycle_phase(c, pair_add(p, x, y), z)
                rhs = cocycle_phase(c, y, z) * cocycle_phase(c, x, pair_add(p, y, z))
                assert lhs == rhs


def test_antisymmetrized_cocycle_is_bicharacter():
    for p in (3, 5):
        for q in range(p):
            c = CocycleClass(p, q)
            pts = [(a, b) for a in range(p) for b in range(p)]
            for x in pts:
                for y in pts:
                    skew = cocycle_phase(c, x, y) * cocycle_phase(c, y, x).inv()
                    assert skew == root_of_unity(p, q * (x[1] * y[0] - y[1] * x[0]))
            # multiplicativity in the first slot at fixed witnesses
            for x1 in pts:
                for x2 in pts:
                    y = (1, 1)
                    x12 = pair_add(p, x1, x2)
                    s1 = cocycle_phase(c, x1, y) * cocycle_phase(c, y, x1).inv()
                    s2 = cocycle_phase(c, x2, y) * cocycle_phase(c, y, x2).inv()
                    s12 = cocycle_phase(c, x12, y) * cocycle_phase(c, y, x12).inv()
                    assert s12 == s1 * s2
