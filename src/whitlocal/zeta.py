"""Local zeta integrals on the torus lattice and the weight factors they
produce.

Unramified local zeta integrals reduce, by Iwasawa decomposition, to sums
over dominant cocharacter lattices.  One routine sums that lattice, both
for the unramified integral and at a place dividing the twisting level:
over mu of length n with mu_n >= m (m = 0 when unramified), the term is

    W^(m)(pi^mu) q^(-nm) * W(pi^mu) * delta_n^(-1)(mu) * q^(|mu|/2),

built from the level-m vector of the larger representation and the
spherical vector of the smaller one.  An exact runtime check confirms,
value by value, that the half-power bookkeeping collapses each side to a
Schur value,

    W^(m)(pi^mu) q^(-nm) delta_n^(-1/2)(mu) q^(|mu|/2) = s_mu(alpha),
    W(pi^mu) delta_n^(-1/2)(mu) = s_mu(beta),

because delta_(n+1)^(1/2)((mu,0)) * delta_n^(-1/2)(mu) = q^(-|mu|/2).  The
term is the product of the two checked values.  At m = 0 the resulting
series identity

    sum_mu s_mu(alpha) s_mu(beta) X^|mu| = 1 / prod_(i,j) (1 - alpha_i beta_j X)

is the Cauchy identity, so the unramified integral equals the local
L-factor and the unramified weight is exactly 1.

Every L-factor here has numerator 1, so dividing by one is multiplying by
its denominator prod_(i,j) (1 - alpha_i beta_j X): the series times the
denominator, truncated, must be 1.  No series is ever inverted.

At a place dividing the twisting level, the level-m vector restricts the
lattice by mu_(n-1) >= m.  The weight there is the same lattice sum, with
the character-orthogonality constant carried explicitly; the printed
constant of the published form differs, and both are returned together
with their exact ratio.

At a place dividing the auxiliary modulus only the structural shape is
computable: the basis index set, the vanishing verdict when the local
conductor exceeds the level, and the exact volume 1/[K : K_0(m)] at the
boundary, compared against the published approximation p^(-(n-1)m).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exactalg import (
    RESIDUE_CARDINALITY_VAR,
    LaurentPoly,
    TruncatedSeries,
    qpow,
    sum_of_products,
)
from .localrep import (
    RankMismatch,
    UnramifiedRep,
    congruence_index,
    contragredient,
    require_prime_power,
)
from .symfunc import Partition, partitions_of
from .whittaker import delta_half, spherical_value, twist_constants, twisted_value

# a Whittaker value at rank n is a Schur value s_lam with lam = mu - min(mu),
# which has at most C(|lam| + n - 1, n - 1) terms; a lattice series has the
# term count of lattice_terms, which also bounds each L-factor denominator
# series of the same ranks; weight --place q has (d+1)(d+2)/2 index triples.
# The command line checks each of them, and the verify suites' series, against
# this cap before the work starts (README "Scope")
MAX_TERMS = 10_000


def check_terms(what: str, counts) -> None:
    """Refuse once the running total of counts passes MAX_TERMS; counts may be endless."""
    total = 0
    for count in counts:
        total += count
        if total > MAX_TERMS:
            raise ValueError(f"{what} would need more than {MAX_TERMS} terms")


def lattice_terms(order: int, ranks):
    """The terms of rank (r, s) lattice series through the order.

    The X^k coefficient is h_k(alpha_i beta_j), with exactly
    C(k+r-1, r-1) * C(k+s-1, s-1) terms.  The r*s products alpha_i beta_j
    count too, so the ranks are bounded at order 0 as well.
    """
    for r, s in ranks:
        yield r * s
        for k in range(order + 1):
            yield math.comb(k + r - 1, r - 1) * math.comb(k + s - 1, s - 1)


class SymbolCollision(ValueError):
    """Two data sets share a variable name that must stay independent."""


class ZetaResult(namedtuple("ZetaResult", "series lattice_points")):
    """A truncated lattice-sum series and the number of lattice points."""

    __slots__ = ()


class PaperComparison(namedtuple("PaperComparison", "paper_constant computed_constant")):
    """A computed constant next to its published counterpart.

    Both constants are single terms, so ratio = computed * published^(-1)
    is exact.
    """

    __slots__ = ()

    @property
    def ratio(self) -> LaurentPoly:
        return self.computed_constant * self.paper_constant ** -1


class WeightResult(namedtuple(
        "WeightResult",
        "value paper_comparison paper_value index_set vanishes lattice_points",
        defaults=(None,) * 5)):
    """The local weight attached to one place, with provenance of constants.

    value is the exact weight: a polynomial in X and Y at unramified places
    (the constant 1 when the identity holds), a truncated series in Y at
    places dividing the twisting level, an exact rational at the structural
    boundary case, and None when only the index set is determined.
    """

    __slots__ = ()


def check_series_var(var: str) -> None:
    """Refuse q, and a name outside the identifier grammar, as a series variable."""
    if var == RESIDUE_CARDINALITY_VAR:
        raise SymbolCollision(
            f"{var!r} is the residue cardinality and cannot be the series variable"
        )
    LaurentPoly.var(var)  # interning refuses a name outside the identifier grammar


def _check_symbols(rep_a: UnramifiedRep, rep_b: UnramifiedRep, var: str) -> None:
    check_series_var(var)
    va, vb = rep_a.variables(), rep_b.variables()
    shared = va & vb
    if shared:
        raise SymbolCollision(f"representations share symbols {sorted(shared)}")
    for bad in (var, RESIDUE_CARDINALITY_VAR):
        if bad in va or bad in vb:
            raise SymbolCollision(
                f"{bad!r} is reserved and cannot be a Satake symbol here"
            )


def l_factor_denominator(rep_a: UnramifiedRep, rep_b: UnramifiedRep,
                         var: str) -> LaurentPoly:
    """prod (1 - alpha_i beta_j var): the local Rankin-Selberg L-factor is 1 over it.

    The product has degree r*s in var, so it is the series at that order.
    """
    one = TruncatedSeries.one(var, rep_a.rank * rep_b.rank)
    return _as_poly(times_l_denominator(one, rep_a, rep_b))


def times_l_denominator(series: TruncatedSeries, rep_a: UnramifiedRep,
                        rep_b: UnramifiedRep) -> TruncatedSeries:
    """The series times prod (1 - alpha_i beta_j var), truncated at its order.

    The factors of one alpha_i multiply to E(-alpha_i var), where
    E(t) = prod_j (1 + beta_j t) = sum_k e_k(beta) t^k (Macdonald, I.2): one
    pass over the beta_j gives e_0..e_min(order, s), and then the product is
    one series product per alpha_i, each by a factor with at most s + 1
    nonzero coefficients.  Truncated products associate, so this is the
    series times the truncated denominator.  Started from 1, as
    l_factor_denominator is, the var^k coefficient has degree k in
    the alpha and in the beta before and after each product, so it has no
    more terms than the var^k coefficient of the lattice series of the same
    ranks, C(k+r-1, r-1) * C(k+s-1, s-1).
    """
    var, order = series.var, series.order
    _check_symbols(rep_a, rep_b, var)
    e = [LaurentPoly.one()] + [LaurentPoly.zero()] * min(order, rep_b.rank)
    for b in rep_b.satake:
        for k in range(len(e) - 1, 0, -1):
            e[k] = e[k] + e[k - 1] * b
    padding = [LaurentPoly.zero()] * (order + 1 - len(e))
    for a in rep_a.satake:
        series = series * TruncatedSeries(var, [(-a) ** k * e_k for k, e_k in enumerate(e)]
                                          + padding)
    return series


def _lattice_series(rep_a: UnramifiedRep, rep_b: UnramifiedRep, var: str,
                    order: int, m: int) -> ZetaResult:
    """The Whittaker lattice sum over mu of length n = rep_b.rank with mu_n >= m.

    Every lattice sum of this module is computed here, and its inputs are
    checked here: rep_a has rank n + 1, m is nonnegative, and the Satake
    symbols are independent and avoid var and q.  Each side of a term is
    checked exactly against its Schur value, the sum's one oracle, before
    the two are multiplied, so a fault in the modulus bookkeeping of one
    side raises even when the other side would compensate it.

    The order is checked where it enters: zeta, weight and SuiteConfig
    refuse a negative order first.  A library caller's negative order sums
    no lattice point, and the TruncatedSeries constructor refuses the empty
    coefficient list.
    """
    n = rep_b.rank
    if rep_a.rank != n + 1:
        raise RankMismatch(
            f"expected ranks (n+1, n), got ({rep_a.rank}, {rep_b.rank})"
        )
    if m < 0:
        raise ValueError("the level must be nonnegative")
    _check_symbols(rep_a, rep_b, var)

    def sides(k: int, mu: tuple[int, ...]) -> tuple[LaurentPoly, LaurentPoly]:
        inv_delta = delta_half(mu) ** -1
        s_a = twisted_value(rep_a, mu, m) * (qpow(Fraction(k, 2) - n * m) * inv_delta)
        s_b = spherical_value(rep_b, mu) * inv_delta
        parts = Partition(mu)
        for rep, value in ((rep_a, s_a), (rep_b, s_b)):
            expected = rep.schur(parts)
            if value != expected:
                raise ArithmeticError(
                    f"modulus bookkeeping failed to collapse at mu={mu}: "
                    f"{value.to_text()} != {expected.to_text()}"
                )
        return s_a, s_b

    coeffs = [LaurentPoly.zero() for _ in range(order + 1)]
    lattice = 0
    for k in range(n * m, order + 1):
        # the points are drawn in this frame, where bench/tracer.py counts
        # them; the sides of each term are formed as the sum reads them
        mus = [tuple(p + m for p in lam.padded(n)) for lam in partitions_of(k - n * m, n)]
        coeffs[k] = sum_of_products(sides(k, mu) for mu in mus)
        lattice += len(mus)
    return ZetaResult(TruncatedSeries(var, coeffs), lattice)


def local_zeta_unramified(rep_a: UnramifiedRep, rep_b: UnramifiedRep,
                          var: str, order: int) -> ZetaResult:
    """The unramified local zeta integral as a dominant-lattice sum.

    rep_a has rank one more than rep_b.  This is the lattice sum at level
    m = 0, where the level-m value of rep_a is its spherical value at
    (mu, 0): each term is the two spherical values times the inverse
    modulus of the smaller group and the measure factor, and each side is
    asserted exactly to collapse to its Schur value.
    """
    return _lattice_series(rep_a, rep_b, var, order, 0)


def _as_poly(series: TruncatedSeries) -> LaurentPoly:
    """sum_k c_k var^k over the stored coefficients."""
    return sum_of_products((c, LaurentPoly.var(series.var, k)) for k, c in enumerate(series.coeffs))


def weight_unramified(rep_big: UnramifiedRep, rep_mid: UnramifiedRep,
                      rep_small: UnramifiedRep, order: int) -> WeightResult:
    """The weight at an unramified place: the product of both normalized ratios.

    Computes the rank (n+1, n) integral against the contragredient of the
    middle representation and the rank (n, n-1) integral, and divides each
    by its L-factor by multiplying with the truncated denominator.  The value
    is the product of the two ratio series, read as polynomials in X and Y;
    it is exactly 1 when the unramified identity holds.
    """
    n = rep_mid.rank
    if rep_big.rank != n + 1 or rep_small.rank != n - 1:
        raise RankMismatch(
            f"expected ranks (n+1, n, n-1), got "
            f"({rep_big.rank}, {rep_mid.rank}, {rep_small.rank})"
        )
    dual_mid = contragredient(rep_mid)
    z_s = local_zeta_unramified(rep_big, dual_mid, "X", order)
    ratio_s = times_l_denominator(z_s.series, rep_big, dual_mid)
    z_w = local_zeta_unramified(rep_mid, rep_small, "Y", order)
    ratio_w = times_l_denominator(z_w.series, rep_mid, rep_small)
    return WeightResult(
        value=_as_poly(ratio_s) * _as_poly(ratio_w),
        lattice_points=z_s.lattice_points + z_w.lattice_points,
    )


def weight_at_l(rep_mid: UnramifiedRep, rep_small: UnramifiedRep, m: int,
                var: str, order: int) -> WeightResult:
    """The weight at a place dividing the twisting level, to a given order.

    The level-m vector confines the lattice to mu_(n-1) >= m.  The value is

        (1/q^((n-1)m)) * sum_mu q^((n-1)m) s_mu(beta) s_mu(gamma) Y^|mu|
            / L(w, middle x small),

    computed from Whittaker values with every constant carried explicitly;
    the vector normalization and the orthogonality constant cancel exactly.
    The lattice sum is the one of _lattice_series, which also checks the
    inputs.  The published form of this weight carries q^((n-2)m) where
    orthogonality gives q^((n-1)m); paper_value and paper_comparison record
    that variant and the exact ratio.

    Division by the L-factor is exact: the series is multiplied by the
    denominator of L, so no series inversion is involved.
    """
    # the level-m vector normalization q^(-(n-1)m) cancels the
    # orthogonality constant of each twisted value
    z = _lattice_series(rep_mid, rep_small, var, order, m)
    paper_const, computed_const = twist_constants(rep_mid.rank, m)
    value = times_l_denominator(z.series, rep_mid, rep_small)
    paper_value = value * paper_const
    comparison = PaperComparison(paper_constant=paper_const, computed_constant=computed_const)
    return WeightResult(
        value=value,
        paper_comparison=comparison,
        paper_value=paper_value,
        lattice_points=z.lattice_points,
    )


def weight_at_q_structural(n0: int, m: int, n: int, p: int) -> WeightResult:
    """Structural weight data at a place dividing the auxiliary modulus.

    The newform basis indexes the weight by triples (a1, a2, j) with
    a1 + a2 = m and 0 <= j <= a2 - n0, where n0 is the local conductor
    exponent; the lattice bookkeeping pins a1 = min(nu, m).  The set is
    empty exactly when n0 > m (the weight vanishes), and at the boundary
    n0 = m the single surviving term (0, m, 0) contributes the reciprocal
    of the congruence subgroup index.  The published approximation for that
    volume is p^(-(n-1)m); both are returned with their exact ratio.
    Below the boundary (n0 < m) only the index set is determined here.
    p must be a prime power.
    """
    if not isinstance(n0, int) or n0 < 0:
        raise ValueError(f"conductor exponent must be a nonnegative int, got {n0!r}")
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"level exponent must be a nonnegative int, got {m!r}")
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"rank must be an integer >= 2, got {n!r}")
    require_prime_power(p)
    index_set = tuple(
        (a1, m - a1, j)
        for a1 in range(0, m - n0 + 1)
        for j in range(0, (m - a1) - n0 + 1)
    )
    value = comparison = paper_constant = None
    if not index_set:
        value = LaurentPoly.zero()
    elif n0 == m:
        # the index bounds its own size, and p^((n-1)m) is at most the index
        value = LaurentPoly.const(Fraction(1, congruence_index(n, p, m)))
        paper_constant = LaurentPoly.const(Fraction(1, p ** ((n - 1) * m)))
        comparison = PaperComparison(paper_constant=paper_constant, computed_constant=value)
    return WeightResult(
        value=value,
        paper_comparison=comparison,
        paper_value=paper_constant,
        index_set=index_set,
        vanishes=not index_set,
        lattice_points=len(index_set),
    )
