"""Exact local computations for Whittaker functions, zeta integrals and
weight factors, with machine-checked verification suites.

Everything is computed over the rationals: Laurent polynomials with
half-integer powers of the residue cardinality, truncated power series,
Schur polynomials, congruence indices and character sums.  No identity
check uses floating point: the ``charsum`` suite checks each character sum
against the same sum computed exactly in the cyclotomic ring Z[zeta_q].  The
``cmath`` root-of-unity sum of ``character_sum_numeric`` only fills the
``numericOracle`` display field of the ``charsum`` command.

Importing the package loads none of its modules: each name of ``__all__``
is looked up in its module, imported on first use, when it is read (PEP
562), so a command line pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# the names each module exports
_EXPORTS = {
    "exactalg": (
        "DivisionByZero", "ExponentOutOfRange", "InexactDivision", "InexactSquareRoot",
        "LaurentPoly", "NegativeUnderHalfExponent",
        "RESIDUE_CARDINALITY_VAR", "TruncatedSeries", "UnboundVariable",
        "VariableMismatch", "qpow",
    ),
    "localrep": (
        "ENUMERATION_LIMIT", "EnumerationTooLarge", "RankMismatch", "UnramifiedRep",
        "ZeroSatakeParameter", "character_sum", "character_sum_cyclotomic",
        "character_sum_numeric", "congruence_index", "congruence_index_bruteforce",
        "contragredient", "hecke_eigenvalue",
    ),
    "reciprocity": ("ParamPair", "SymbolicMatrix", "dual_params", "swap_last_two"),
    "report": (
        "CheckResult", "SuiteReport", "merge_reports", "report_to_csv", "report_to_json",
        "report_to_text", "run_check", "run_checks",
    ),
    "symfunc": (
        "Partition", "cauchy_schur_side", "complete_homogeneous", "homogeneous_list",
        "partitions_of", "partitions_up_to", "schur", "schur_bialternant_oracle",
    ),
    "whittaker": (
        "TorusCocharacter", "contragredient_value", "delta_half", "spherical_value",
        "twist_constants", "twisted_value",
    ),
    "zeta": (
        "PaperComparison", "SymbolCollision", "WeightResult", "ZetaResult",
        "check_series_var", "l_factor_denominator", "l_factor_denominator_series",
        "local_zeta_unramified", "times_l_denominator", "weight_at_l", "weight_at_q_structural",
        "weight_unramified",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
