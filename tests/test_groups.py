import itertools
import random

import pytest

from bpring.cyclotomic import require_prime, root_of_unity
from bpring.groups import (
    CocycleClass,
    PairElt,
    Subgroup,
    _as_pair,
    cocycle_phase,
    cosets,
    enumerate_subgroups,
    subgroup_from_elements,
    subgroup_from_generators,
)


# Closure by brute force: oracles for enumerate_subgroups and
# subgroup_from_elements, which the library does not need.

def is_closed_subset(p: int, elements) -> bool:
    elts = {_as_pair(p, e).as_tuple() for e in elements}
    if (0, 0) not in elts:
        return False
    for a in elts:
        ea = PairElt(p, *a)
        if (-ea).as_tuple() not in elts:
            return False
        for b in elts:
            if (ea + PairElt(p, *b)).as_tuple() not in elts:
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
                    y = (PairElt(p, *x) + PairElt(p, *e)).as_tuple()
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
            assert is_closed_subset(p, sub.elements())


def test_cosets():
    reps = cosets(subgroup_from_generators(3, [(1, 0)]))
    assert [r.as_tuple() for r in reps] == [(0, 0), (0, 1), (0, 2)]
    assert len(cosets(Subgroup(3, "full"))) == 1
    assert len(cosets(Subgroup(3, "trivial"))) == 9
    for p in (2, 3, 5):
        for sub in enumerate_subgroups(p):
            assert len(cosets(sub)) * sub.order == p * p


def test_coset_representatives_are_least():
    for p in (2, 3, 5):
        for sub in enumerate_subgroups(p):
            for rep in cosets(sub):
                members = sorted((rep + h).as_tuple() for h in sub.elements())
                assert rep.as_tuple() == members[0]


def test_subgroup_from_elements_rejects_non_subgroups():
    with pytest.raises(ValueError):
        subgroup_from_elements(3, [(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        subgroup_from_elements(3, [(1, 1)])
    # every subset of Z_3 x Z_3 that contains (0, 0), as int pairs and as PairElts
    p = 3
    others = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    accepted = 0
    for mask in range(1 << len(others)):
        subset = [(0, 0)] + [x for i, x in enumerate(others) if mask >> i & 1]
        as_pairs = [PairElt(p, a, b) for a, b in subset]
        if is_closed_subset(p, subset):
            accepted += 1
            sub = subgroup_from_elements(p, subset)
            assert {x.as_tuple() for x in sub.elements()} == set(subset)
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
            assert cocycle_phase(c, (a, b), (b, a)).is_one()


def test_cocycle_representative_value():
    c = CocycleClass(5, 1)
    assert cocycle_phase(c, (0, 1), (1, 0)) == root_of_unity(5, 1)


def test_cocycle_identity_exhaustive_small():
    for p in (2, 3):
        for q in range(p):
            c = CocycleClass(p, q)
            pts = [PairElt(p, a, b) for a in range(p) for b in range(p)]
            for x in pts:
                for y in pts:
                    for z in pts:
                        lhs = cocycle_phase(c, x, y) * cocycle_phase(c, x + y, z)
                        rhs = cocycle_phase(c, y, z) * cocycle_phase(c, x, y + z)
                        assert lhs == rhs


def test_cocycle_identity_random_larger():
    rng = random.Random(7)
    for p in (5, 7):
        for q in range(p):
            c = CocycleClass(p, q)
            for _ in range(40):
                x, y, z = (
                    PairElt(p, rng.randrange(p), rng.randrange(p)) for _ in range(3)
                )
                lhs = cocycle_phase(c, x, y) * cocycle_phase(c, x + y, z)
                rhs = cocycle_phase(c, y, z) * cocycle_phase(c, x, y + z)
                assert lhs == rhs


def test_antisymmetrized_cocycle_is_bicharacter():
    for p in (3, 5):
        for q in range(p):
            c = CocycleClass(p, q)
            pts = [PairElt(p, a, b) for a in range(p) for b in range(p)]
            for x in pts:
                for y in pts:
                    skew = cocycle_phase(c, x, y) * cocycle_phase(c, y, x).inv()
                    assert skew == root_of_unity(p, q * (x.right * y.left - y.right * x.left))
            # multiplicativity in the first slot at fixed witnesses
            for x1 in pts:
                for x2 in pts:
                    y = PairElt(p, 1, 1)
                    s1 = cocycle_phase(c, x1, y) * cocycle_phase(c, y, x1).inv()
                    s2 = cocycle_phase(c, x2, y) * cocycle_phase(c, y, x2).inv()
                    s12 = cocycle_phase(c, x1 + x2, y) * cocycle_phase(c, y, x1 + x2).inv()
                    assert s12 == s1 * s2
