"""The package namespace: every exported name, loaded on first use.

bpring's __init__ imports no submodule; a name is imported from its module
when first read.  The export list is written out here, module by module, so
that the lazy namespace must give the very objects the modules define.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bpring

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = {
    "bimodules": ["BimoduleData", "BimoduleLabel", "Decomposition", "LabelParseError", "all_labels",
                  "catalogue", "catalogue_entry", "label_invariants", "label_parse", "validate"],
    "closed_form": ["closed_form_product", "closed_form_table"],
    "cyclotomic": ["CyclotomicScalar", "phase_exponent"],
    "fusion": ["ActionMorphism", "ClassificationError", "ProductAnalysis", "RelativeTensorProduct",
               "build_table"],
    "groups": ["Subgroup", "enumerate_subgroups", "subgroup_from_generators"],
    "karoubi": ["KarEnvelope", "KarSimple"],
    "ladders": ["CompositionError", "EngineError", "LadderCategory", "LadderMorphism", "LadderObject",
                "NonMonomialRung"],
    "ring": ["AxiomReport", "RingTable", "TableError", "UnitsGroup", "check_axioms", "diff_tables",
             "parse_json", "serialize", "units_group"],
    "walls": ["BoundaryPair", "BoundaryType", "InvertibleWall", "OracleError", "WallModel", "fuse_walls",
              "oracle_table", "wall_of"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_each_export_is_the_object_its_module_defines():
    assert len(NAMES) == 47
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"bpring.{module}")
        for name in names:
            assert getattr(bpring, name) is getattr(defining, name), name
    assert bpring.__version__ == "0.1.0"


def test_all_lists_the_exports_and_star_import_binds_them():
    assert sorted(bpring.__all__) == NAMES
    namespace = {}
    exec("from bpring import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert set(NAMES) | set(EXPORTS) <= set(dir(bpring))


def test_a_submodule_resolves_after_a_plain_import():
    code = ("import bpring\nbuild_table = bpring.fusion.build_table\n"
            "import bpring.fusion\nassert build_table is bpring.fusion.build_table\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        bpring.no_such_name
    assert not hasattr(bpring, "no_such_name")
