"""A polynomial read as a truncated series, for building test inputs."""

from whitlocal import LaurentPoly, TruncatedSeries


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
