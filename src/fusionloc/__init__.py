"""fusionloc: exact fusion systems and localities over finite p-groups."""

from .errors import (
    CorpusLoadError,
    FusionlocError,
    InvalidPermutation,
    NotAnObject,
    NotASubgroup,
    NotCentral,
    NotClosed,
    NotFullyKNormalized,
    NotInDomain,
    NotNormal,
    NotPartialNormal,
    NotSaturated,
    NotSylow,
    NotSylowInN,
    OrderBoundExceeded,
    ParseError,
    VerificationFailed,
)
from .groups import (
    FiniteGroup,
    GroupPredicateReport,
    QuotientGroup,
    cores,
    group_from_permutations,
    group_from_table,
    load_group_file,
    load_group_json,
    quotient_group,
)
from .fusion import (
    Classification,
    FClassData,
    FusionSystem,
    SixWay,
    Subsystem,
    abstract_fusion,
    centralizer_in_S_of_subsystem,
    fusion_from_group,
    is_constrained,
    quotient_mod_central,
    subsystem_from_normal_subgroup,
)
from .locality import (
    Locality,
    LocalityAxiomReport,
    QuotientData,
    TransporterCategory,
    is_partial_normal,
    locality_from_group,
    quotient,
    restriction,
    transporter_category,
    transporter_to_dot,
    transporter_to_json,
    verify_locality,
)
from .constructions import (
    DeltaSets,
    ThetaData,
    delta_sets,
    is_characteristic_p_type_fusion,
    theta_quotient,
)
from .verifier import (
    CheckResult,
    CorpusReport,
    run_corpus,
    run_fusion_checks,
    run_locality_checks,
)
from .corpus import BUILTINS, DEFAULT_CORPUS, CorpusEntry, build_instance, builtin_group

__version__ = "0.1.0"
