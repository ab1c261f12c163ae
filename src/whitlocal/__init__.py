"""Exact local computations for Whittaker functions, zeta integrals and
weight factors, with machine-checked verification suites.

Everything is computed over the rationals: Laurent polynomials with
half-integer powers of the residue cardinality, truncated power series,
Schur polynomials, congruence indices and character sums.  No identity
check uses floating point: the ``charsum`` suite checks each character sum
against the same sum computed exactly in the cyclotomic ring Z[zeta_q].  The
``cmath`` root-of-unity sum of ``character_sum_numeric`` only fills the
``numericOracle`` display field of the ``charsum`` command.
"""

from .exactalg import (
    DivisionByZero,
    ExponentOutOfRange,
    InexactDivision,
    InexactSquareRoot,
    LaurentPoly,
    NegativeUnderHalfExponent,
    NotExpandable,
    RESIDUE_CARDINALITY_VAR,
    TruncatedSeries,
    UnboundVariable,
    VariableMismatch,
    qpow,
)
from .localrep import (
    ENUMERATION_LIMIT,
    EnumerationTooLarge,
    RankMismatch,
    UnramifiedRep,
    ZeroSatakeParameter,
    character_sum,
    character_sum_cyclotomic,
    character_sum_numeric,
    congruence_index,
    congruence_index_bruteforce,
    contragredient,
    hecke_eigenvalue,
)
from .reciprocity import (
    ParamPair,
    SymbolicMatrix,
    dual_params,
    swap_last_two,
)
from .report import (
    CheckResult,
    SuiteReport,
    merge_reports,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_check,
    run_checks,
)
from .symfunc import (
    Partition,
    cauchy_schur_side,
    complete_homogeneous,
    homogeneous_list,
    partitions_of,
    partitions_up_to,
    schur,
    schur_bialternant_oracle,
)
from .whittaker import (
    TorusCocharacter,
    contragredient_value,
    delta_half,
    spherical_value,
    twist_constants,
    twisted_value,
)
from .zeta import (
    PaperComparison,
    SymbolCollision,
    WeightResult,
    ZetaResult,
    l_factor_denominator,
    l_factor_denominator_series,
    local_zeta_unramified,
    weight_at_l,
    weight_at_q_structural,
    weight_unramified,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DivisionByZero",
    "ENUMERATION_LIMIT",
    "EnumerationTooLarge",
    "ExponentOutOfRange",
    "InexactDivision",
    "InexactSquareRoot",
    "LaurentPoly",
    "NegativeUnderHalfExponent",
    "NotExpandable",
    "PaperComparison",
    "ParamPair",
    "Partition",
    "RESIDUE_CARDINALITY_VAR",
    "RankMismatch",
    "SuiteReport",
    "SymbolCollision",
    "SymbolicMatrix",
    "TorusCocharacter",
    "TruncatedSeries",
    "UnboundVariable",
    "UnramifiedRep",
    "VariableMismatch",
    "WeightResult",
    "ZeroSatakeParameter",
    "ZetaResult",
    "cauchy_schur_side",
    "character_sum",
    "character_sum_cyclotomic",
    "character_sum_numeric",
    "complete_homogeneous",
    "congruence_index",
    "congruence_index_bruteforce",
    "contragredient",
    "contragredient_value",
    "delta_half",
    "dual_params",
    "hecke_eigenvalue",
    "homogeneous_list",
    "l_factor_denominator",
    "l_factor_denominator_series",
    "local_zeta_unramified",
    "merge_reports",
    "partitions_of",
    "partitions_up_to",
    "qpow",
    "report_to_csv",
    "report_to_json",
    "report_to_text",
    "run_check",
    "run_checks",
    "schur",
    "schur_bialternant_oracle",
    "spherical_value",
    "swap_last_two",
    "twist_constants",
    "twisted_value",
    "weight_at_l",
    "weight_at_q_structural",
    "weight_unramified",
]
