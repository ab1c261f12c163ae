"""Fault injection: every listed suite can fail.

Each case puts a seeded fault into one suite's hot path and runs that
suite at a small configuration.  A check that compares two routes must
report ``fail``; one whose identity is guarded by an internal
``ArithmeticError`` reports ``error``.
"""

from fractions import Fraction

import pytest

from whitlocal import exactalg, localrep, reciprocity, suites, symfunc, whittaker, zeta
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


def test_weyl_unipotent_with_twos_on_its_diagonal(monkeypatch):
    def doubled(size, col, names):
        rows = reciprocity.column_unipotent(size, col, names).rows
        return SymbolicMatrix([[e + (i == j) for j, e in enumerate(row)]
                               for i, row in enumerate(rows)])

    monkeypatch.setattr(suites, "column_unipotent", doubled)
    report, _ = _statuses("weyl")
    # both sides of the conjugation carry the same diagonal, so only the
    # comparison of the diagonal with ones sees it
    by_id = {c.id: (c.status, c.witness) for c in report.checks}
    assert by_id == {"n=02/conjugation": ("fail", "diagonal entry 1: 2 != 1"),
                     "n=02/square": ("pass", None),
                     "n=03/conjugation": ("fail", "diagonal entry 1: 2 != 1"),
                     "n=03/square": ("pass", None)}


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
    assert report.checks[0].witness == "X^0: lattice sum times the L-factor denominator: 0 != 1"


@pytest.mark.parametrize("suite, witness", [
    ("unramified", "lattice points: 4 != 3"),
    ("weight-unramified", "lattice points: 25 != 23"),
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
    assert witness["n=1,m=1,order=2"] == "X^0: the denominator at unit parameters: 0 != 1"
    assert witness["n=3,m=3,order=2"] == "X^8: the denominator at unit parameters: 0 != 9"
    assert all("the denominator at unit parameters" in w for w in witness.values())


def test_cauchy_schur_side_short_by_one_coefficient(monkeypatch):
    # the product with the denominator is 1 on every coefficient it holds
    def short(n, m, var, order):
        return symfunc.cauchy_schur_side(n, m, var, order - 1)

    monkeypatch.setattr(suites, "cauchy_schur_side", short)
    report, statuses = _statuses("cauchy")
    assert statuses == {"fail"}
    assert {c.witness for c in report.checks} == {
        "order: schur side times the L-factor denominator: 1 != 2"}


def test_cauchy_l_factor_denominator_truncated_at_r_over_s(monkeypatch):
    # the closed form that lfactor prints, cut at degree r//s instead of r*s
    def truncated(rep_a, rep_b, var):
        one = TruncatedSeries.one(var, rep_a.rank // rep_b.rank)
        return zeta._as_poly(zeta.times_l_denominator(one, rep_a, rep_b))

    monkeypatch.setattr(suites, "l_factor_denominator", truncated)
    report, _ = _statuses("cauchy")
    # r//s = r*s exactly when s = 1
    assert {c.id: c.status for c in report.checks} == {
        f"n={n},m={m},order=2": "pass" if m == 1 else "fail"
        for n in (1, 2, 3) for m in (1, 2, 3)}
    witness = {c.id: c.witness for c in report.checks}
    assert witness["n=2,m=2,order=2"] == (
        "the denominator polynomial at unit parameters: 1 - 4*X != 1 - 4*X + 6*X^2 - 4*X^3 + X^4")


def test_schur_plus_one_monomial(monkeypatch):
    monkeypatch.setattr(suites, "schur", _plus(suites.schur, LaurentPoly.var("x1")))
    report, _ = _statuses("schur")
    kinds = {(c.id.split("/")[0], c.status) for c in report.checks}
    # the value at all-ones is no longer a number, so the dimension check raises
    assert kinds == {("oracle", "fail"), ("pieri", "fail"), ("dimension", "error")}
    # the product check fails at the first partition, (), whose Schur value
    # is now 1 + x1: the witness writes (1 + x1) * a_delta against a_delta
    oracle = {c.id: c.witness for c in report.checks if c.id.startswith("oracle/")}
    assert oracle["oracle/n=1"] == "lambda=(): s_lambda * a_delta: 1 + x1 != 1"
    assert oracle["oracle/n=2"] == (
        "lambda=(): s_lambda * a_delta: x1 - x1*x2 + x1^2 - x2 != x1 - x2"
    )
    for n in range(1, 5):
        a_delta = symfunc.alternant(symfunc.Partition(), [f"x{i}" for i in range(1, n + 1)])
        product = (1 + LaurentPoly.var("x1")) * a_delta
        assert oracle[f"oracle/n={n}"] == f"lambda=(): s_lambda * a_delta: {product} != {a_delta}"


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
    # each value is 1 plus a long tail of terms in X and Y
    assert all(c.witness.startswith("value: 1 + X + X*Y + ") and c.witness.endswith(" != 1")
               for c in report.checks)


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


def test_contragredient_half_powers_of_q_read_as_thirds(monkeypatch):
    # both paths decode through the same _exponent, so only the powers of q
    # that the suite works out itself see the fault
    original = exactalg._exponent

    def thirds(name, f):
        return Fraction(f, 3) if name == "q" and f & 1 else original(name, f)

    monkeypatch.setattr(exactalg, "_exponent", thirds)
    report, _ = _statuses("contragredient")
    by_id = {c.id: c.status for c in report.checks}
    # at rank 3 the power of q, -(m_1 - m_3), is never a half
    assert by_id == {"rank=2": "fail", "rank=3": "pass", "rank=4": "fail"}
    assert all(": powers of q: " in c.witness for c in report.checks if c.status == "fail")


# the other suites do not read n_max or order; the golden bytes cover them
@pytest.mark.parametrize("suite", ["involution", "weyl", "cusp", "unramified", "cauchy", "weight-l"])
def test_unfaulted_suites_pass_at_the_small_configuration(suite):
    _, statuses = _statuses(suite)
    assert statuses == {"pass"}
