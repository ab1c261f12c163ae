"""The spectral parameter transform and the supporting matrix identities."""

from fractions import Fraction

import pytest

from whitlocal.exactalg import LaurentPoly
from whitlocal.reciprocity import (
    ParamPair,
    SymbolicMatrix,
    column_unipotent,
    dual_params,
    swap_last_two,
)
from whitlocal.suites import HIDDEN_SUITES, SUITES, SuiteConfig


def _checks_at(suite, n, n_max=None):
    """The checks of one suite whose id names rank parameter n."""
    cfg = SuiteConfig(n_max=n if n_max is None else n_max, order=6, p=2, seed=0)
    report = SUITES[suite](cfg)
    return [c for c in report.checks if c.id.startswith(f"n={n:02d}")]


class TestDualParams:
    def test_rank_two_closed_form(self):
        pair = ParamPair.symbolic(2)
        image = dual_params(pair)
        s, w = LaurentPoly.var("s"), LaurentPoly.var("w")
        one = LaurentPoly.one()
        assert image.s == (one + w - s) / 2
        assert image.w == (3 * s + w - one) / 2

    def test_numeric_example(self):
        image = dual_params(ParamPair(1, 1, 3))
        assert image.s.as_fraction() == Fraction(2, 3)
        assert image.w.as_fraction() == Fraction(4, 3)

    def test_fixed_point(self):
        for n in range(2, 8):
            pair = ParamPair(Fraction(1, 2), Fraction(1, 2), n)
            image = dual_params(pair)
            assert image.s == pair.s and image.w == pair.w

    @pytest.mark.parametrize("n", range(2, 11))
    def test_involution(self, n):
        pair = ParamPair.symbolic(n)
        twice = dual_params(dual_params(pair))
        assert twice.s == pair.s
        assert twice.w == pair.w

    @pytest.mark.parametrize("n", range(2, 11))
    def test_exponent_identities(self, n):
        pair = ParamPair.symbolic(n)
        image = dual_params(pair)
        half = LaurentPoly.const(Fraction(1, 2))
        one = LaurentPoly.one()
        lhs = n * (image.s - half)
        rhs = n * (half - pair.s) + (n - 1) * (pair.s + pair.w - one)
        assert lhs == rhs
        assert image.s + image.w - one == pair.s + pair.w - one

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            ParamPair(1, 1, 1)

    def test_verify_report_passes(self):
        for n in (2, 5, 10):
            checks = _checks_at("involution", n, n_max=10)
            assert len(checks) == 1 and checks[0].passed

    def test_negative_control_fails_with_witness(self):
        # the suite perturbs s' by 1/7 and runs the unfolded rank-2 checks
        report = HIDDEN_SUITES["negative-control"](SuiteConfig(n_max=10, order=6, p=2, seed=0))
        assert not report.passed
        failed = [c for c in report.checks if not c.passed]
        assert failed
        assert all(c.witness for c in failed)


class TestSymbolicMatrix:
    def test_identity_multiplication(self):
        m = column_unipotent(3, 2, ["u1"])
        eye = SymbolicMatrix.identity(3)
        assert m * eye == m
        assert eye * m == m

    def test_block_diag_and_scalar(self):
        h = SymbolicMatrix([[LaurentPoly.var("h")]])
        top = SymbolicMatrix.block_diag(h, LaurentPoly.one())
        assert top.size == 2
        assert top.rows[0][0] == LaurentPoly.var("h")
        assert top.rows[1][1] == LaurentPoly.one()
        double = SymbolicMatrix.scalar(2, 2) * top
        assert double.rows[0][0] == LaurentPoly.var("h") * 2

    def test_substitute(self):
        m = column_unipotent(3, 3, ["u1", "u2"])
        collapsed = m.substitute("u1", LaurentPoly.zero())
        assert collapsed.rows[0][2] == LaurentPoly.zero()
        assert collapsed.rows[1][2] == LaurentPoly.var("u2")

    def test_swap_squares_to_identity(self):
        for size in (2, 3, 5):
            w = swap_last_two(size)
            assert w * w == SymbolicMatrix.identity(size)

    def test_swap_size_validation(self):
        with pytest.raises(ValueError):
            swap_last_two(1)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SymbolicMatrix.identity(2))


class TestMatrixIdentities:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_weyl_conjugation(self, n):
        checks = _checks_at("weyl", n)
        assert len(checks) == 2 and all(c.passed for c in checks)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_cusp_factorization(self, n):
        checks = _checks_at("cusp", n)
        assert len(checks) == 4 and all(c.passed for c in checks)

    def test_conjugation_by_hand_at_rank_two(self):
        # w * U_mid(b) * w = U_last(b) at size 3
        w = swap_last_two(3)
        mid = column_unipotent(3, 2, ["b1"])
        last = column_unipotent(3, 3, ["b1"])
        assert w * mid * w == last
