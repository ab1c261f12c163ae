"""Local zeta series, L-factors and the three kinds of local weights."""

import json
from fractions import Fraction

import pytest

from series_helpers import from_poly, l_denominator_series, same_series
from whitlocal import symfunc, whittaker, zeta
from whitlocal.cli import main
from whitlocal.exactalg import LaurentPoly, TruncatedSeries, qpow
from whitlocal.localrep import RankMismatch, UnramifiedRep, congruence_index, contragredient
from whitlocal.suites import SUITES, SuiteConfig
from whitlocal.symfunc import Partition, schur
from whitlocal.zeta import (
    SymbolCollision,
    l_factor_denominator,
    lattice_terms,
    local_zeta_unramified,
    weight_at_l,
    weight_at_q_structural,
    weight_unramified,
)


def _reps(n):
    return UnramifiedRep.symbolic(n + 1, "a"), UnramifiedRep.symbolic(n, "b")


def _times_l_denominator_is_one(result, rep_a, rep_b):
    series = result.series
    return (series * l_denominator_series(rep_a, rep_b, series.var, series.order)).is_one()


def _one_factor_at_a_time(rep_a, rep_b, var, order):
    """The reference: the r*s linear factors multiplied in one at a time, truncated."""
    t = LaurentPoly.var(var)
    acc = TruncatedSeries.one(var, order)
    for a in rep_a.satake:
        for b in rep_b.satake:
            acc = acc * from_poly(LaurentPoly.one() - a * b * t, var, order)
    return acc


def _satake_pairs(r, s):
    """Symbolic, rational, inverted and one zero Satake parameter, at ranks (r, s)."""
    rep_a, rep_b = UnramifiedRep.symbolic(r, "a"), UnramifiedRep.symbolic(s, "b")
    yield "symbolic", rep_a, rep_b
    yield ("rational", UnramifiedRep(r, [Fraction(i + 1, i + 3) for i in range(r)]),
           UnramifiedRep(s, [Fraction(-2 * j - 1, 5) for j in range(s)]))
    yield "inverted", contragredient(rep_a), rep_b
    yield "zero", UnramifiedRep(r, (0,) + rep_a.satake[1:]), contragredient(rep_b)


class TestLFactor:
    @pytest.mark.parametrize("r, s", [(r, s) for r in range(1, 5) for s in range(1, 5)])
    def test_denominator_matches_the_factor_by_factor_product(self, r, s):
        for kind, rep_a, rep_b in _satake_pairs(r, s):
            want = _one_factor_at_a_time(rep_a, rep_b, "X", r * s + 1)
            for order in range(r * s + 2):
                got = l_denominator_series(rep_a, rep_b, "X", order)
                assert same_series(got, TruncatedSeries("X", want.coeffs[: order + 1])), (kind, order)
            # the product has degree r*s in X, so order r*s+1 holds all of it
            assert want.coeffs[-1].is_zero()
            assert l_factor_denominator(rep_a, rep_b, "X") == zeta._as_poly(want), kind

    @pytest.mark.parametrize("r, s", [(r, s) for r in range(1, 5) for s in range(1, 5)])
    def test_every_coefficient_is_within_the_lattice_count(self, r, s):
        # the running product after i grouped factors is the series of the
        # first i alpha, so each stage is checked against the bound at (r, s)
        order = r * s + 1
        bound = list(lattice_terms(order, [(r, s)]))[1:]
        rep_a, rep_b = UnramifiedRep.symbolic(r, "a"), UnramifiedRep.symbolic(s, "b")
        for i in range(1, r + 1):
            head = UnramifiedRep(i, rep_a.satake[:i])
            series = l_denominator_series(head, rep_b, "X", order)
            for k, c in enumerate(series.coeffs):
                assert len(c.terms) <= bound[k], (i, k)

    def test_rank_21_denominator(self):
        rep_a, rep_b = _reps(1)
        den = l_factor_denominator(rep_a, rep_b, "X")
        a1, a2, b1, x = (LaurentPoly.var(v) for v in ("a1", "a2", "b1", "X"))
        want = (LaurentPoly.one() - a1 * b1 * x) * (LaurentPoly.one() - a2 * b1 * x)
        assert den == want
        # the truncated series is the same polynomial cut at the order
        assert same_series(l_denominator_series(rep_a, rep_b, "X", 1), from_poly(want, "X", 1))

    def test_symbol_hygiene(self):
        with pytest.raises(SymbolCollision):
            l_factor_denominator(UnramifiedRep.symbolic(2, "a"), UnramifiedRep.symbolic(1, "a"), "X")
        rep_x = UnramifiedRep(2, [LaurentPoly.var("X"), LaurentPoly.var("c1")])
        with pytest.raises(SymbolCollision):
            l_factor_denominator(rep_x, UnramifiedRep.symbolic(1, "b"), var="X")
        with pytest.raises(SymbolCollision):
            l_denominator_series(rep_x, UnramifiedRep.symbolic(1, "b"), "X", 2)


class TestLocalZeta:
    def test_rank_21_coefficients(self):
        rep_a, rep_b = _reps(1)
        result = local_zeta_unramified(rep_a, rep_b, "X", 4)
        b1 = LaurentPoly.var("b1")
        for k in range(5):
            want = schur(Partition((k,)), rep_a.satake) * b1 ** k
            assert result.series.coeffs[k] == want
        assert result.lattice_points == 5
        assert _times_l_denominator_is_one(result, rep_a, rep_b)

    def test_rank_32_matches_l_factor(self):
        rep_a, rep_b = _reps(2)
        result = local_zeta_unramified(rep_a, rep_b, "X", 4)
        assert _times_l_denominator_is_one(result, rep_a, rep_b)
        # dominant lattice points of length 2 and weight <= 4
        assert result.lattice_points == 9

    def test_verify_report(self):
        report = SUITES["unramified"](SuiteConfig(n_max=10, order=5, p=2, seed=0))
        assert report.passed
        assert any(c.id == "ranks=(2,1),order=5" for c in report.checks)

    def test_collision_guard(self):
        with pytest.raises(SymbolCollision):
            local_zeta_unramified(UnramifiedRep.symbolic(2), UnramifiedRep.symbolic(1), "X", 6)

    @pytest.mark.parametrize("compute", [
        lambda a, b, var, order: local_zeta_unramified(a, b, var, order),
        lambda a, b, var, order: weight_at_l(a, b, 1, var, order),
    ], ids=["local_zeta_unramified", "weight_at_l"])
    def test_every_lattice_sum_refuses_the_same_inputs(self, compute):
        # both are callers of the one lattice sum, which checks the inputs
        rep_a, rep_b = _reps(2)
        with pytest.raises(RankMismatch, match=r"expected ranks \(n\+1, n\), got \(2, 3\)"):
            compute(rep_b, rep_a, "X", 2)
        # the commands refuse a negative order first; here the series constructor does
        with pytest.raises(ValueError, match="needs at least the order-0 coefficient"):
            compute(rep_a, rep_b, "X", -1)
        with pytest.raises(SymbolCollision, match="share symbols"):
            compute(rep_a, UnramifiedRep.symbolic(2, "a"), "X", 2)
        with pytest.raises(SymbolCollision, match="'a1' is reserved"):
            compute(rep_a, rep_b, "a1", 2)


def _count_schur(monkeypatch):
    """Record (partition, values as text) for every evaluation of symfunc.schur."""
    seen = []
    original = symfunc.schur

    def counting(lam, xs):
        seen.append((lam, tuple(x.to_text() for x in xs)))
        return original(lam, xs)

    monkeypatch.setattr(symfunc, "schur", counting)
    return seen


class TestSharedSchurValues:
    def test_zeta_evaluates_each_schur_value_once(self, monkeypatch):
        seen = _count_schur(monkeypatch)
        rep_a, rep_b = _reps(1)
        result = local_zeta_unramified(rep_a, rep_b, "X", 3)
        # lattice points (k), k = 0..3, need s_(k)(alpha) and s_(k)(beta);
        # the spherical value of beta at (k) adds nothing new: s_()(beta) * beta^k
        assert result.lattice_points == 4
        assert len(seen) == len(set(seen)) == 8

    def test_weight_at_l_direct_sum_evaluates_each_schur_value_once(self, monkeypatch):
        # the level-m lattice sum is the weight's one route, and both of its
        # Schur checks read the representations' caches
        seen = _count_schur(monkeypatch)
        result = weight_at_l(UnramifiedRep.symbolic(3, "b"), UnramifiedRep.symbolic(2, "g"),
                             1, "Y", 4)
        assert result.lattice_points == 4
        assert seen and len(seen) == len(set(seen))

    def test_a_fresh_representation_evaluates_again(self, monkeypatch):
        seen = _count_schur(monkeypatch)
        rep_a, _ = _reps(1)
        for _ in range(2):
            whittaker.spherical_value(rep_a, (2, 0))
        assert len(seen) == 1
        fresh, _ = _reps(1)
        assert whittaker.spherical_value(fresh, (2, 0)) == whittaker.spherical_value(rep_a, (2, 0))
        assert len(seen) == 2

    def test_the_contragredient_keeps_its_own_values(self, monkeypatch):
        seen = _count_schur(monkeypatch)
        rep, _ = _reps(1)
        dual = contragredient(rep)
        lam = symfunc.Partition((2,))
        rep_value, dual_value = rep.schur(lam), dual.schur(lam)
        assert seen == [(lam, ("a1", "a2")), (lam, ("a2^(-1)", "a1^(-1)"))]
        assert rep_value != dual_value
        assert dual_value == symfunc.schur(lam, dual.satake)

    def test_check_still_tests_the_modulus_bookkeeping(self, monkeypatch):
        monkeypatch.setattr(zeta, "qpow", lambda e: qpow(e + Fraction(1, 2)))
        rep_a, rep_b = _reps(1)
        with pytest.raises(ArithmeticError, match="modulus bookkeeping"):
            local_zeta_unramified(rep_a, rep_b, "X", 2)

    @pytest.mark.parametrize("compute", [
        lambda a, b: local_zeta_unramified(a, b, "X", 2),
        lambda a, b: weight_at_l(a, b, 1, "Y", 3),
    ], ids=["local_zeta_unramified", "weight_at_l"])
    def test_each_side_is_checked_on_its_own(self, monkeypatch, compute):
        # the larger side off by q^(1/2) and the smaller by q^(-1/2): the term
        # keeps its value, so only a check of each side sees the fault
        rep_a, rep_b = _reps(1)
        original = whittaker.spherical_value

        def shifted(rep, mu):
            shift = Fraction(1, 2) if rep.rank == rep_a.rank else Fraction(-1, 2)
            return original(rep, mu) * qpow(shift)

        monkeypatch.setattr(whittaker, "spherical_value", shifted)
        monkeypatch.setattr(zeta, "spherical_value", shifted)
        with pytest.raises(ArithmeticError, match="modulus bookkeeping failed to collapse"):
            compute(rep_a, rep_b)


class TestWeightUnramified:
    def test_is_exactly_one(self):
        big = UnramifiedRep.symbolic(3, "a")
        mid = UnramifiedRep.symbolic(2, "b")
        small = UnramifiedRep.symbolic(1, "g")
        result = weight_unramified(big, mid, small, order=5)
        assert result.value == LaurentPoly.one()
        assert result.lattice_points == 18

    def test_value_is_the_product_of_both_ratios(self, monkeypatch):
        # a w-side denominator off by Y gives the ratio (lattice sum) * (den + Y),
        # which is 1 + Y through Y^1; the value carries it instead of raising
        original = zeta.times_l_denominator

        def perturbed(series, rep_a, rep_b):
            product = original(series, rep_a, rep_b)
            if series.var != "Y":
                return product
            # the series times (the denominator + Y)
            shifted = (LaurentPoly.zero(), *series.coeffs[:-1])
            return TruncatedSeries("Y", [p + s for p, s in zip(product.coeffs, shifted)])

        monkeypatch.setattr(zeta, "times_l_denominator", perturbed)
        result = weight_unramified(UnramifiedRep.symbolic(3, "a"), UnramifiedRep.symbolic(2, "b"),
                                   UnramifiedRep.symbolic(1, "g"), order=1)
        assert result.value == LaurentPoly.one() + LaurentPoly.var("Y")

    def test_rank_validation(self):
        with pytest.raises(RankMismatch):
            weight_unramified(
                UnramifiedRep.symbolic(3, "a"),
                UnramifiedRep.symbolic(2, "b"),
                UnramifiedRep.symbolic(2, "g"),
                6,
            )


class TestWeightAtL:
    def test_level_zero_is_one(self):
        mid = UnramifiedRep.symbolic(2, "b")
        small = UnramifiedRep.symbolic(1, "g")
        assert weight_at_l(mid, small, 0, "Y", 5).value.is_one()

    def test_closed_form_level_one(self):
        mid = UnramifiedRep.symbolic(2, "b")
        small = UnramifiedRep.symbolic(1, "g")
        result = weight_at_l(mid, small, 1, "Y", 6)
        b1, b2, g1 = (LaurentPoly.var(v) for v in ("b1", "b2", "g1"))
        coeffs = result.value.coeffs
        assert coeffs[0] == LaurentPoly.zero()
        assert coeffs[1] == (b1 + b2) * g1
        assert coeffs[2] == -(b1 * b2) * g1 ** 2
        assert all(c.is_zero() for c in coeffs[3:])

    def test_closed_form_level_two(self):
        mid = UnramifiedRep.symbolic(2, "b")
        small = UnramifiedRep.symbolic(1, "g")
        result = weight_at_l(mid, small, 2, "Y", 6)
        b1, b2, g1 = (LaurentPoly.var(v) for v in ("b1", "b2", "g1"))
        h2 = schur(Partition((2,)), [b1, b2])
        coeffs = result.value.coeffs
        assert coeffs[2] == h2 * g1 ** 2
        assert coeffs[3] == -(b1 + b2) * (b1 * b2) * g1 ** 3
        # h4 - e1 h3 + e2 h2 = 0 at two variables, so the series stops at Y^3
        assert all(c.is_zero() for c in list(coeffs[:2]) + list(coeffs[4:]))

    def test_constant_bookkeeping(self):
        mid = UnramifiedRep.symbolic(3, "b")
        small = UnramifiedRep.symbolic(2, "g")
        result = weight_at_l(mid, small, 2, "Y", 4)
        cmp = result.paper_comparison
        assert cmp.computed_constant == qpow(4)
        assert cmp.paper_constant == qpow(2)
        assert cmp.ratio == qpow(2)

    def test_published_value_is_rescaled(self):
        mid = UnramifiedRep.symbolic(2, "b")
        small = UnramifiedRep.symbolic(1, "g")
        result = weight_at_l(mid, small, 1, "Y", 5)
        for k in range(6):
            assert result.paper_value.coeffs[k] == result.value.coeffs[k] * qpow(0)

    def test_validation(self):
        mid = UnramifiedRep.symbolic(2, "b")
        small = UnramifiedRep.symbolic(1, "g")
        with pytest.raises(ValueError):
            weight_at_l(mid, small, -1, "Y", 6)
        with pytest.raises(RankMismatch):
            weight_at_l(small, mid, 1, "Y", 6)


class TestWeightAtQ:
    def test_vanishing_verdicts(self):
        for n0 in range(5):
            for m in range(5):
                result = weight_at_q_structural(n0, m, 2, 2)
                assert result.vanishes == (n0 > m)

    def test_boundary_equals_reciprocal_index(self):
        for n, p, m in ((2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)):
            result = weight_at_q_structural(m, m, n, p)
            assert result.value == LaurentPoly.const(Fraction(1, congruence_index(n, p, m)))
            assert result.index_set == ((0, m, 0),)

    def test_worked_example(self):
        result = weight_at_q_structural(1, 1, 2, 2)
        assert result.value.as_fraction() == Fraction(1, 3)
        cmp = result.paper_comparison
        assert cmp.paper_constant.as_fraction() == Fraction(1, 2)
        assert cmp.ratio == Fraction(2, 3)
        assert result.index_set == ((0, 1, 0),)
        assert result.vanishes is False

    def test_degenerate_level_zero(self):
        result = weight_at_q_structural(0, 0, 3, 5)
        assert result.value == LaurentPoly.one()
        assert not result.vanishes
        assert result.index_set == ((0, 0, 0),)

    def test_below_boundary_gives_index_set_only(self):
        result = weight_at_q_structural(0, 1, 2, 2)
        assert result.value is None
        assert result.index_set == ((0, 1, 0), (0, 1, 1), (1, 0, 0))
        assert result.lattice_points == 3

    def test_index_set_structure(self):
        for n0 in range(4):
            for m in range(4):
                result = weight_at_q_structural(n0, m, 2, 3)
                for a1, a2, j in result.index_set:
                    assert a1 + a2 == m
                    assert 0 <= j <= a2 - n0

    def test_json_shape(self, capsys):
        # the payload of weight_at_q_structural(1, 1, 2, 2), as the cli lays it out
        code = main(["weight", "--place", "q", "--n", "2", "--cond", "1", "--level", "1",
                     "--p", "2"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert list(obj) == ["rank", "conductorExponent", "level", "p", "placeKind", "value",
                             "paperComparison", "paperValue", "indexSet", "vanishes",
                             "latticePoints"]
        assert obj["value"] == "1/3"
        assert obj["paperComparison"]["paperConstant"] == "1/2"
        assert obj["indexSet"] == [[0, 1, 0]]
        assert obj["vanishes"] is False

    def test_validation(self):
        with pytest.raises(ValueError):
            weight_at_q_structural(-1, 1, 2, 2)
        with pytest.raises(ValueError):
            weight_at_q_structural(1, 1, 1, 2)
        with pytest.raises(ValueError):
            weight_at_q_structural(1, 1, 2, 1)
