"""Truncated series for building test inputs: a polynomial read as a series,
and the L-factor denominator truncated at an order."""

from whitlocal.exactalg import LaurentPoly, TruncatedSeries
from whitlocal.localrep import UnramifiedRep
from whitlocal.zeta import times_l_denominator


def from_poly(p: LaurentPoly, var: str, order: int) -> TruncatedSeries:
    """The series of a polynomial in var with no negative or half powers of it.

    Degrees beyond the order are dropped.
    """
    coeffs = [LaurentPoly.zero()] * (order + 1)
    for e, c in p.coefficients_in(var).items():
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"{var} occurs with exponent {e}, so this is not a power series")
        if e <= order:
            coeffs[e] = c
    return TruncatedSeries(var, coeffs)


def l_denominator_series(rep_a: UnramifiedRep, rep_b: UnramifiedRep,
                         var: str, order: int) -> TruncatedSeries:
    """prod (1 - alpha_i beta_j var), truncated at the order."""
    return times_l_denominator(TruncatedSeries.one(var, order), rep_a, rep_b)
