"""The library's records are named tuples that survive pickle and deepcopy.

A record that validates or derives a value on construction does it in
__new__, which pickle and deepcopy call again when they rebuild it, so every
record kind must come back equal to itself: a line subgroup keeps its
canonical generator, a label its index, and a table its basis.  The worker
pool sends labels and decompositions to its workers by pickle.
"""

import copy
import pickle
from functools import lru_cache

import pytest

from bpring.bimodules import Decomposition, LabelParseError, all_labels, catalogue_entry, label_parse
from bpring.closed_form import closed_form_table
from bpring.fusion import RelativeTensorProduct
from bpring.groups import Subgroup
from bpring.ring import check_axioms, diff_tables, units_group
from bpring.walls import wall_of
from kar_oracle import position

P = 3


@lru_cache(maxsize=None)
def records() -> dict:
    """One record of each of the 13 kinds, by class name."""
    product = RelativeTensorProduct(catalogue_entry(P, label_parse("R")), catalogue_entry(P, label_parse("L")))
    analysis = product.analyze()
    table = closed_form_table(P)
    entry = catalogue_entry(P, label_parse("X2"))
    entry.trivial_mixed  # read once, so its cached value is pickled with it
    wall = wall_of(P, label_parse("F1"))
    wall.swaps_sectors()
    return {
        "BimoduleLabel": label_parse("X2"),
        "Decomposition": Decomposition.from_pairs([(label_parse("F1"), 2), (label_parse("T"), 1)]),
        "BimoduleData": entry,
        "Subgroup": Subgroup(P, "line", (2, 1)),
        "RingTable": table,
        "AxiomReport": check_axioms(table),
        "UnitsGroup": units_group(table),
        "BoundaryPair": wall_of(P, label_parse("L")),
        "InvertibleWall": wall,
        "KarSimple": product.simples[0],
        "ActionMorphism": product.outer_action(1, "left", product.simples[0]),
        "OrbitInfo": analysis.orbits[0],
        "ProductAnalysis": analysis,
    }


KINDS = ["BimoduleLabel", "Decomposition", "BimoduleData", "Subgroup", "RingTable", "AxiomReport", "UnitsGroup",
         "BoundaryPair", "InvertibleWall", "KarSimple", "ActionMorphism", "OrbitInfo", "ProductAnalysis"]


def copies(record) -> list:
    """record through pickle at every protocol from 2, the first that rebuilds through __new__, and copy.deepcopy."""
    return [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)] + [
        copy.deepcopy(record)
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_each_record_kind_survives_pickle_and_deepcopy(kind):
    record = records()[kind]
    assert type(record).__name__ == kind and isinstance(record, tuple) and record._fields
    for clone in copies(record):
        assert type(clone) is type(record) and clone == record and str(clone) == str(record)


def test_rebuilt_records_keep_what_construction_derives():
    for clone in copies(Subgroup(P, "line", (2, 1))):
        assert clone.generator == (1, 2) and clone.contains((2, 1))
    for text in ("F0", "F2", "X1", "X2"):
        for clone in copies(label_parse(text)):
            assert str(clone) == text and clone.is_invertible() == (text != "F0")
    table = records()["RingTable"]
    for clone in copies(table):
        assert clone.basis == tuple(all_labels(P)) and diff_tables(clone, table) == []
        assert clone.index(label_parse("X1")) == table.index(label_parse("X1"))
        assert clone.product(label_parse("T"), label_parse("T")) == table.product(label_parse("T"), label_parse("T"))
    entry = records()["BimoduleData"]
    for clone in copies(entry):
        positions = [{m: position(e, m) for m in e.simples} for e in (clone, entry)]
        assert positions[0] == positions[1] and clone.trivial_mixed
    for clone in copies(records()["InvertibleWall"]):
        assert clone.swaps_sectors()


def test_replace_builds_through_the_constructor():
    # _replace validates a label or subgroup and derives a table's basis,
    # as construction does
    with pytest.raises(LabelParseError, match="nonzero index"):
        label_parse("X2")._replace(index=0)
    with pytest.raises(LabelParseError, match="takes no index"):
        label_parse("T")._replace(index=1)
    assert label_parse("X2")._replace(kind="F") == label_parse("F2")
    line = Subgroup(P, "line", (1, 1))
    assert line._replace(generator=(2, 0)) == Subgroup(P, "line", (1, 0))
    with pytest.raises(ValueError, match="must not have one"):
        line._replace(kind="full")
    table = records()["RingTable"]
    clone = table._replace(constants=[list(row) for row in table.constants])
    assert clone.basis == table.basis and diff_tables(clone, table) == []
    assert clone.product(label_parse("X1"), label_parse("F1")) == table.product(label_parse("X1"), label_parse("F1"))
