"""bpring: exact computation of the Brauer-Picard ring of Vec(Z_p).

The engine computes relative tensor products of Vec(Z_p)-Vec(Z_p) bimodules
by building the ladder category of a pair of bimodules, idempotent-completing
it, and classifying the outer Z_p actions on the resulting simples.  A
physical domain-wall model provides an independent oracle for the full
multiplication table.

Names load on first use: `import bpring` imports no submodule, and the first
access to a name such as `bpring.build_table` or `bpring.fusion` imports its
module, so each route loads only itself and the shared modules (cyclotomic,
groups, bimodules, ring).  A caller of the closed form and the wall oracle
never compiles the engine.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Module -> the names the package re-exports from it.
_EXPORTS = {
    "bimodules": (
        "BimoduleData",
        "BimoduleLabel",
        "Decomposition",
        "LabelParseError",
        "all_labels",
        "catalogue",
        "catalogue_entry",
        "label_invariants",
        "label_parse",
        "validate",
    ),
    "closed_form": ("closed_form_product", "closed_form_table"),
    "cyclotomic": ("CyclotomicScalar", "phase_exponent"),
    "fusion": (
        "ActionMorphism",
        "ClassificationError",
        "ProductAnalysis",
        "RelativeTensorProduct",
        "build_table",
    ),
    "groups": ("Subgroup", "enumerate_subgroups", "subgroup_from_generators"),
    "karoubi": ("KarEnvelope", "KarSimple"),
    "ladders": (
        "CompositionError",
        "EngineError",
        "LadderCategory",
        "LadderMorphism",
        "LadderObject",
        "NonMonomialRung",
    ),
    "ring": (
        "AxiomReport",
        "RingTable",
        "TableError",
        "UnitsGroup",
        "check_axioms",
        "diff_tables",
        "parse_json",
        "serialize",
        "units_group",
    ),
    "walls": (
        "BoundaryPair",
        "BoundaryType",
        "InvertibleWall",
        "OracleError",
        "WallModel",
        "fuse_walls",
        "oracle_table",
        "wall_of",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import a re-exported name or a submodule on first access; later accesses find it in globals()."""
    if name in _EXPORTS:  # importing a submodule binds it in the package
        return _import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
