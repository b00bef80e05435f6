"""Exact-arithmetic plurigenera of (quasi-)elliptic surface fibrations:
numerical types, admissibility, bounded exhaustive verification of the
twelfth-plurigenus growth statements, and the Kodaira decision table.
"""

__version__ = "0.1.0"

from .classifier import (
    KodairaClass,
    SurfaceInvariants,
    classify,
    classify_kod0_subtype,
    torsion_solutions,
)
from .congruence import (
    ConditionUInstance,
    QuasiLinearForm,
    check_all_U,
    check_condition_U,
    check_condition_U_bruteforce,
)
from .errors import (
    InadmissibleTypeError,
    InvalidInputError,
    OracleBoundExceededError,
    PlurigeneraError,
    UnsupportedInputError,
)
from .factory import (
    AbelianGroupData,
    bad_characteristics,
    cover_to_type,
    riemann_hurwitz_genus,
)
from .fibre_local import (
    achievable_torsion_lengths,
    admissible_coefficients,
)
from .model import (
    FibrationNumericalType,
    FibreDatum,
    PlurigenusValue,
    delta_degree,
    plurigenera_series,
    plurigenus,
    slope,
)
from .verifier import (
    AdmissibilityReport,
    EnumerationBounds,
    MainTheoremReport,
    enumerate_types,
    find_sharp_cases,
    is_admissible,
    verify_all,
    verify_main_theorem,
    verify_tail,
)

__all__ = [
    "AbelianGroupData",
    "AdmissibilityReport",
    "ConditionUInstance",
    "EnumerationBounds",
    "FibrationNumericalType",
    "FibreDatum",
    "InadmissibleTypeError",
    "InvalidInputError",
    "KodairaClass",
    "MainTheoremReport",
    "OracleBoundExceededError",
    "PlurigeneraError",
    "PlurigenusValue",
    "QuasiLinearForm",
    "SurfaceInvariants",
    "UnsupportedInputError",
    "achievable_torsion_lengths",
    "admissible_coefficients",
    "bad_characteristics",
    "check_all_U",
    "check_condition_U",
    "check_condition_U_bruteforce",
    "classify",
    "classify_kod0_subtype",
    "cover_to_type",
    "delta_degree",
    "enumerate_types",
    "find_sharp_cases",
    "is_admissible",
    "plurigenera_series",
    "plurigenus",
    "riemann_hurwitz_genus",
    "slope",
    "torsion_solutions",
    "verify_all",
    "verify_main_theorem",
    "verify_tail",
]
