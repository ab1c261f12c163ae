"""Fault injection: every listed suite can fail.

Each case puts a seeded fault into one suite's hot path and runs that
suite at a small configuration.  A check that compares two routes must
report ``fail``; one whose identity is guarded by an internal
``ArithmeticError`` reports ``error``.
"""

from fractions import Fraction

import pytest

from whitlocal import localrep, suites, symfunc, whittaker, zeta
from whitlocal.exactalg import LaurentPoly, TruncatedSeries, qpow
from whitlocal.reciprocity import ParamPair, SymbolicMatrix, dual_params
from whitlocal.suites import SUITES, SuiteConfig

CONFIG = SuiteConfig(n_max=3, order=2, p=2, seed=0)


def _statuses(suite):
    report = SUITES[suite](CONFIG)
    return report, {c.status for c in report.checks}


def _plus(fn, extra):
    """fn with ``extra`` added to every result."""
    return lambda *args, **kwargs: fn(*args, **kwargs) + extra


def _perturbed(pair):
    image = dual_params(pair)
    return ParamPair(image.s + Fraction(1, 7), image.w, pair.n)


def test_involution_fault_reaches_the_folded_checks(monkeypatch):
    monkeypatch.setattr(suites, "dual_params", _perturbed)
    report, statuses = _statuses("involution")
    assert statuses == {"fail"}
    # the folded witness names the first failing sub-identity, as it always has
    assert report.checks[0].id == "n=02"
    assert report.checks[0].witness == "n=02/exponent-balance: 2/7 - s + w != -s + w"


def test_raising_sub_identity_makes_the_folded_check_an_error(monkeypatch):
    def failing(pair):
        raise ArithmeticError("transform did not cancel")

    monkeypatch.setattr(suites, "dual_params", failing)
    report, statuses = _statuses("involution")
    assert statuses == {"error"}
    assert report.checks[0].witness == "ArithmeticError: transform did not cancel"


def test_weyl_identity_swap(monkeypatch):
    monkeypatch.setattr(suites, "swap_last_two", lambda size: SymbolicMatrix.scalar(size, 1))
    report, _ = _statuses("weyl")
    by_id = {c.id: c.status for c in report.checks}
    # the identity still squares to itself, but no longer conjugates
    assert by_id == {"n=02/conjugation": "fail", "n=02/square": "pass",
                     "n=03/conjugation": "fail", "n=03/square": "pass"}


def test_cusp_sign_flip(monkeypatch):
    product = SymbolicMatrix.__mul__

    def flipped(a, b):
        return SymbolicMatrix([[-e for e in row] for row in product(a, b).rows])

    monkeypatch.setattr(SymbolicMatrix, "__mul__", flipped)
    _, statuses = _statuses("cusp")
    assert "fail" in statuses and "error" not in statuses


def test_unramified_shifted_l_factor_coefficient(monkeypatch):
    # the series times the denominator times X
    def shifted(series, rep_a, rep_b):
        coeffs = zeta.times_l_denominator(series, rep_a, rep_b).coeffs
        return TruncatedSeries(series.var, [LaurentPoly.zero(), *coeffs[:-1]])

    monkeypatch.setattr(suites, "times_l_denominator", shifted)
    report, statuses = _statuses("unramified")
    assert statuses == {"fail"}
    assert report.checks[0].witness == (
        "X^0: lattice sum times the L-factor denominator gives 0"
    )


@pytest.mark.parametrize("suite, witness", [
    ("unramified", "4 lattice points, expected 3"),
    ("weight-unramified", "25 lattice points, expected 23"),
])
def test_a_miscounted_lattice_fails(monkeypatch, suite, witness):
    # one point too many per lattice sum; the series itself is right
    original = zeta._lattice_series

    def miscounted(*args):
        result = original(*args)
        return result._replace(lattice_points=result.lattice_points + 1)

    monkeypatch.setattr(zeta, "_lattice_series", miscounted)
    report, statuses = _statuses(suite)
    assert statuses == {"fail"}
    assert report.checks[0].witness == witness


def test_cauchy_schur_plus_one_monomial(monkeypatch):
    monkeypatch.setattr(symfunc, "schur", _plus(symfunc.schur, LaurentPoly.var("a1")))
    _, statuses = _statuses("cauchy")
    assert statuses == {"fail"}


def _truncating_product(a, b):
    """The series product without the top two degrees of each row."""
    n = a.order
    out = [LaurentPoly.zero()] * (n + 1)
    for i, ci in enumerate(a.coeffs):
        for j in range(0, n - i - 1):
            out[i + j] = out[i + j] + ci * b.coeffs[j]
    return TruncatedSeries(a.var, out)


def test_cauchy_truncating_series_product(monkeypatch):
    # every series identity compares a product with 1 + 0*X + ..., so the
    # dropped degrees read as the expected 0; (1 - X)^(nm) at unit
    # parameters is read to full degree
    monkeypatch.setattr(TruncatedSeries, "__mul__", _truncating_product)
    report, statuses = _statuses("cauchy")
    assert statuses == {"fail"}
    witness = {c.id: c.witness for c in report.checks}
    assert witness["n=1,m=1,order=2"] == "X^0: the denominator at unit parameters gives 0, not 1"
    assert witness["n=3,m=3,order=2"] == "X^8: the denominator at unit parameters gives 0, not 9"
    assert all("the denominator at unit parameters" in w for w in witness.values())


def test_schur_plus_one_monomial(monkeypatch):
    monkeypatch.setattr(suites, "schur", _plus(suites.schur, LaurentPoly.var("x1")))
    report, _ = _statuses("schur")
    kinds = {(c.id.split("/")[0], c.status) for c in report.checks}
    # the value at all-ones is no longer a number, so the dimension check raises
    assert kinds == {("oracle", "fail"), ("pieri", "fail"), ("dimension", "error")}
    # the product check names the value that fails it, the first partition's
    oracle = {c.id: c.witness for c in report.checks if c.id.startswith("oracle/")}
    assert oracle == {
        f"oracle/n={n}": "lambda=(): s_lambda * a_delta != a_(lambda+delta) at s_lambda = 1 + x1"
        for n in range(1, 5)
    }


def test_weight_unramified_modulus_fault_errors(monkeypatch):
    # the per-term modulus bookkeeping is an internal identity: it raises
    monkeypatch.setattr(zeta, "qpow", lambda e: qpow(e + Fraction(1, 2)))
    _, statuses = _statuses("weight-unramified")
    assert statuses == {"error"}


def test_weight_unramified_perturbed_denominator_fails(monkeypatch):
    # a denominator off by one variable makes the computed value differ from 1
    original = zeta.times_l_denominator

    def perturbed(series, rep_a, rep_b):
        # the series times (the denominator + X)
        product = original(series, rep_a, rep_b).coeffs
        shifted = (LaurentPoly.zero(), *series.coeffs[:-1])
        return TruncatedSeries(series.var, [p + s for p, s in zip(product, shifted)])

    monkeypatch.setattr(zeta, "times_l_denominator", perturbed)
    report, statuses = _statuses("weight-unramified")
    assert statuses == {"fail"}
    assert all(c.witness.startswith("value ") and c.witness != "value 1" for c in report.checks)


def test_weight_l_published_constant_off_by_q(monkeypatch):
    original = zeta.twist_constants

    def shifted(rank, m):
        paper, computed = original(rank, m)
        return paper * qpow(1), computed

    monkeypatch.setattr(zeta, "twist_constants", shifted)
    report, statuses = _statuses("weight-l")
    assert statuses == {"pass", "fail"}
    failed = {c.id for c in report.checks if c.status == "fail"}
    assert failed == {f"published-route/n={n},m={m}" for n in (2, 3) for m in (1, 2)}


def test_weight_q_index_plus_one(monkeypatch):
    monkeypatch.setattr(zeta, "congruence_index", _plus(localrep.congruence_index, 1))
    report, _ = _statuses("weight-q")
    by_id = {c.id: c.status for c in report.checks}
    assert by_id == {"verdicts": "pass", "boundary-values": "fail", "worked-example": "fail"}


def test_index_plus_one(monkeypatch):
    monkeypatch.setattr(suites, "congruence_index", _plus(localrep.congruence_index, 1))
    _, statuses = _statuses("index")
    assert statuses == {"fail"}


def test_charsum_plus_one(monkeypatch):
    monkeypatch.setattr(suites, "character_sum", _plus(localrep.character_sum, 1))
    _, statuses = _statuses("charsum")
    assert statuses == {"fail"}


def test_contragredient_spherical_value_plus_one(monkeypatch):
    monkeypatch.setattr(suites, "spherical_value", _plus(whittaker.spherical_value, 1))
    _, statuses = _statuses("contragredient")
    assert statuses == {"fail"}


# the other suites do not read n_max or order; the golden bytes cover them
@pytest.mark.parametrize("suite", ["involution", "weyl", "cusp", "unramified", "cauchy", "weight-l"])
def test_unfaulted_suites_pass_at_the_small_configuration(suite):
    _, statuses = _statuses(suite)
    assert statuses == {"pass"}
