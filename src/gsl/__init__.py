"""Finite gamma-semirings, operator semirings, fuzzy ideals, and exhaustive
verification suites."""

from .core import (
    CapExceeded,
    GammaSemiring,
    PreconditionUnmet,
    Semiring,
    StructuralError,
    ValidationOutcome,
    Violation,
    boolean_gamma,
    boolean_semiring,
    gamma_from_semiring,
    gen_instance,
    gen_semiring,
    is_commutative,
    is_gamma_semifield,
    is_semifield,
    is_zdf,
    recheck_violation,
    validate_gamma_semiring,
    validate_semiring,
    zn_gamma,
    zn_semiring,
)
from .fuzzy import (
    Carrier,
    CrispSubset,
    EnumerationCapExceeded,
    FuzzySubset,
    Grade,
    GradeChain,
    carrier_of,
    characteristic,
    enumerate_crisp_ideals,
    enumerate_fuzzy_ideals,
    fuzzy_intersection,
    fuzzy_sum,
    is_fuzzy_ideal_gamma,
    is_fuzzy_ideal_semiring,
)
from .operators import (
    ActionMap,
    ClosureCapExceeded,
    OperatorSemiring,
    action_of_pair,
    build_operator_semiring,
    find_unity,
    plus_set,
    plusprime_set,
    star_set,
    starprime_set,
)
from .transfer import lift_plusprime, lift_starprime, restrict_plus, restrict_star
from .matrix import (
    MatrixCapExceeded,
    MatrixGammaSemiring,
    build_matrix_gamma,
    check_operator_matrix_iso,
    lift_fuzzy_to_matrix,
    matrix_semiring,
    verify_theorem_3_19,
)
from .report import FAIL, PASS, UNMET, VerificationReport
from .config import RunConfig
from .verify import (
    Workspace,
    run_all,
    verify_lemmas_3_11_3_12,
    verify_prop_3_4,
    verify_semifield_transfer,
    verify_theorem_3_15,
    verify_theorem_3_17,
    verify_theorem_3_18,
    verify_theorem_3_8,
)

__version__ = "0.1.0"
