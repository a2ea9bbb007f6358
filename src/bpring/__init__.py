"""bpring: exact computation of the Brauer-Picard ring of Vec(Z_p).

The engine computes relative tensor products of Vec(Z_p)-Vec(Z_p) bimodules
by building the ladder category of a pair of bimodules, idempotent-completing
it, and classifying the outer Z_p actions on the resulting simples.  A
physical domain-wall model provides an independent oracle for the full
multiplication table.
"""

from .bimodules import (
    BimoduleData,
    BimoduleLabel,
    Decomposition,
    LabelParseError,
    all_labels,
    catalogue,
    catalogue_entry,
    label_parse,
    validate,
)
from .closed_form import closed_form_product, closed_form_table
from .cyclotomic import CyclotomicScalar, Rational, phase_exponent, root_of_unity
from .fusion import (
    ActionMorphism,
    ClassificationError,
    ProductAnalysis,
    RelativeTensorProduct,
    analyze,
    build_table,
    decompose,
)
from .groups import (
    CocycleClass,
    PairElt,
    Subgroup,
    cocycle_phase,
    cosets,
    enumerate_subgroups,
    subgroup_from_generators,
)
from .karoubi import KarEnvelope, KarObject, KarSimple
from .ladders import (
    CompositionError,
    EngineError,
    LadderCategory,
    LadderMorphism,
    LadderObject,
)
from .ring import (
    AxiomReport,
    RingTable,
    TableError,
    UnitsGroup,
    check_axioms,
    diff_tables,
    parse_json,
    serialize,
    units_group,
)
from .walls import (
    BoundaryPair,
    BoundaryType,
    InvertibleWall,
    OracleError,
    WallModel,
    fuse_walls,
    label_of_wall,
    mutual_braiding,
    oracle_table,
    preserves_braiding,
    wall_of,
)

__version__ = "0.1.0"
