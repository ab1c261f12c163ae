"""Truncated series for tests: a polynomial read as a series, the L-factor
denominator truncated at an order, and equality of two series."""

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


def same_series(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """The same variable and the same coefficients, hence the same order.

    TruncatedSeries defines no equality of its own, so == would compare
    identity.
    """
    return a.var == b.var and a.coeffs == b.coeffs


def l_denominator_series(rep_a: UnramifiedRep, rep_b: UnramifiedRep,
                         var: str, order: int) -> TruncatedSeries:
    """prod (1 - alpha_i beta_j var), truncated at the order."""
    return times_l_denominator(TruncatedSeries.one(var, order), rep_a, rep_b)
