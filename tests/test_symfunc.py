"""Schur polynomials against independent oracles and classical identities."""

import pickle
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from whitlocal.exactalg import LaurentPoly, TruncatedSeries
from whitlocal.localrep import UnramifiedRep
from whitlocal.suites import SUITES, SuiteConfig
from whitlocal.symfunc import (
    Partition,
    _weights,
    alternant,
    cauchy_schur_side,
    partitions_of,
    partitions_up_to,
    schur,
)

from series_helpers import from_poly, l_denominator_series


def _vars(n, prefix="x"):
    return [LaurentPoly.var(f"{prefix}{i}") for i in range(1, n + 1)]


def _bialternant_holds(lam, names):
    """s_lam * a_delta == a_(lam+delta): the bialternant formula multiplied through."""
    value = schur(lam, [LaurentPoly.var(v) for v in names])
    return value * alternant(Partition(), names) == alternant(lam, names)


def weyl_dimension(lam: Partition, n: int) -> Fraction:
    padded = lam.padded(n)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(padded[i] - padded[j] + j - i, j - i)
    return dim


class TestPartition:
    def test_trailing_zeros_dropped(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert len(Partition(())) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_accessors(self):
        lam = Partition((4, 2, 1))
        assert len(lam) == 3
        assert lam.padded(5) == (4, 2, 1, 0, 0)

    def test_is_the_tuple_of_its_parts(self):
        lam = Partition([2, 1, 0])
        assert isinstance(lam, tuple) and lam == (2, 1) and lam[0] == 2
        assert hash(lam) == hash((2, 1))
        assert str(lam) == "(2,1)"
        back = pickle.loads(pickle.dumps(lam))
        assert type(back) is Partition and back == lam


class TestEnumeration:
    def test_lex_descending_order(self):
        got = [tuple(p) for p in partitions_of(4, 4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_length_cap(self):
        assert [tuple(p) for p in partitions_of(4, 2)] == [(4,), (3, 1), (2, 2)]
        assert list(partitions_of(3, 0)) == []
        assert [tuple(p) for p in partitions_of(0, 0)] == [()]

    def test_known_counts(self):
        # partition numbers p(0..8) with unrestricted length
        counts = [sum(1 for _ in partitions_of(w, w or 1)) for w in range(9)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_up_to_matches_union(self):
        got = list(partitions_up_to(4, 2))
        want = [p for w in range(5) for p in partitions_of(w, 2)]
        assert got == want


def _row(k, xs):
    # h_k = s_(k)
    return schur(Partition((k,)), xs)


class TestHomogeneous:
    def test_small_values(self):
        x, y = _vars(2)
        hs = [_row(k, [x, y]) for k in range(4)]
        assert hs[0] == LaurentPoly.one()
        assert hs[1] == x + y
        assert hs[2] == x ** 2 + x * y + y ** 2
        assert hs[3] == x ** 3 + x ** 2 * y + x * y ** 2 + y ** 3

    def test_generating_function(self):
        # sum_k h_k t^k = prod_i 1/(1 - x_i t): times the product it is 1
        xs = _vars(3)
        den = LaurentPoly.one()
        for x in xs:
            den = den * (LaurentPoly.one() - x * LaurentPoly.var("t"))
        series = TruncatedSeries("t", [_row(k, xs) for k in range(6)])
        assert (series * from_poly(den, "t", 5)).is_one()


class TestSchur:
    def test_empty_partition_is_one(self):
        assert schur(Partition(()), _vars(3)) == LaurentPoly.one()

    def test_too_long_partition_is_zero(self):
        assert schur(Partition((1, 1, 1)), _vars(2)) == LaurentPoly.zero()

    def test_single_row_is_homogeneous(self):
        xs = _vars(3)
        for k in range(5):
            # h_k is the sum of all monomials of degree k
            want = LaurentPoly.zero()
            for factors in combinations_with_replacement(xs, k):
                term = LaurentPoly.one()
                for x in factors:
                    term = term * x
                want = want + term
            assert _row(k, xs) == want

    def test_single_column_is_elementary(self):
        x, y, z = _vars(3)
        assert schur(Partition((1, 1)), [x, y, z]) == x * y + x * z + y * z
        assert schur(Partition((1, 1, 1)), [x, y, z]) == x * y * z

    def test_worked_value(self):
        x, y = _vars(2)
        # s_(2,1)(x, y) = x^2 y + x y^2
        assert schur(Partition((2, 1)), [x, y]) == x ** 2 * y + x * y ** 2

    def test_accepts_numbers(self):
        # a nonzero number is a single-term value
        assert schur(Partition((2,)), [1, 1]).as_fraction() == 3
        assert schur(Partition((1, 1)), [Fraction(1, 2), 2]).as_fraction() == 1

    def test_refuses_a_value_of_several_terms(self):
        x, y = _vars(2)
        with pytest.raises(ValueError, match="single-term"):
            schur(Partition((1,)), [x + y, y])

    def test_makes_no_polynomial_product(self, monkeypatch):
        calls = []
        mul = LaurentPoly.__mul__
        monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
        lam, names = Partition((4, 3, 2, 1)), [f"x{i}" for i in range(1, 6)]
        value = schur(lam, [LaurentPoly.var(v) for v in names])
        assert calls == []
        monkeypatch.undo()
        assert value * alternant(Partition(), names) == alternant(lam, names)

    def test_patterns_are_counted_by_weight(self):
        # s_(2,1)(x, y, z) has each permutation of x^2 y once and x y z twice
        want = dict.fromkeys(permutations((2, 1, 0)), 1)
        want[(1, 1, 1)] = 2
        assert _weights((2, 1, 0)) == want
        # the recursion stops at one part: a single row is cached alone
        _weights.cache_clear()
        assert _weights((3,)) == {(3,): 1}
        assert _weights.cache_info().currsize == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bialternant_oracle(self, n):
        names = [f"x{i}" for i in range(1, n + 1)]
        for lam in partitions_up_to(6, n):
            assert _bialternant_holds(lam, names)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetry_under_all_permutations(self, n):
        values = _vars(n)
        for lam in partitions_up_to(5 if n < 4 else 4, n):
            base = schur(lam, values)
            for perm in permutations(values):
                assert schur(lam, list(perm)) == base

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dimension_formula_at_all_ones(self, n):
        ones = [LaurentPoly.one()] * n
        for lam in partitions_up_to(6, n):
            assert schur(lam, ones).as_fraction() == weyl_dimension(lam, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pieri_rule(self, n):
        values = _vars(n)
        h1 = sum(values, LaurentPoly.zero())
        for lam in partitions_up_to(4, n):
            rhs = LaurentPoly.zero()
            for i in range(min(len(lam) + 1, n)):
                grown = list(lam.padded(min(len(lam) + 1, n)))
                grown[i] += 1
                if all(a >= b for a, b in zip(grown, grown[1:])):
                    rhs = rhs + schur(Partition(grown), values)
            assert schur(lam, values) * h1 == rhs

    def test_homogeneity_degree(self):
        lam = Partition((3, 2))
        poly = schur(lam, _vars(3))
        for exps, _ in poly.sorted_terms():
            assert sum(e for _, e in exps) == sum(lam)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inversion_duality(self, n):
        # s_lam(1/x) = (x_1...x_n)^(-lam_1) s_lam*(x), lam*_i = lam_1 - lam_(n+1-i)
        values = _vars(n)
        inverted = [x ** -1 for x in values]
        det = LaurentPoly.one()
        for x in values:
            det = det * x
        for lam in partitions_up_to(6, n):
            padded = lam.padded(n)
            top = padded[0]
            dual = Partition(top - part for part in reversed(padded))
            assert schur(lam, inverted) == det ** -top * schur(dual, values)

    def test_zero_and_rational_values(self):
        # a zero value is dropped, s_lam(x, 0) = s_lam(x); a rational is a single term
        y = LaurentPoly.var("y")
        want = y * Fraction(1, 4) + y ** 2 * Fraction(1, 2)
        assert schur(Partition((2, 1)), [0, y, Fraction(1, 2)]) == want
        assert schur(Partition((1, 1)), [0, y]) == LaurentPoly.zero()
        assert schur(Partition((3,)), [0, 0]) == LaurentPoly.zero()
        assert schur(Partition((2,)), [Fraction(1, 2), Fraction(1, 3)]).as_fraction() == Fraction(19, 36)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from(list(partitions_up_to(6, n))))))
    def test_matches_bialternant_oracle_property(self, case):
        n, lam = case
        assert _bialternant_holds(lam, [f"x{i}" for i in range(1, n + 1)])

    def test_alternant_needs_distinct_names(self):
        # both alternants would vanish, and the product check would pass on anything
        with pytest.raises(ValueError, match="distinct"):
            alternant(Partition((1,)), ["x", "x"])

    def test_alternant_refuses_a_longer_partition(self):
        with pytest.raises(ValueError, match="more parts"):
            alternant(Partition((1, 1, 1)), ["x", "y"])

    def test_alternant_is_the_determinant(self):
        # a_delta(x, y, z) = (x - y)(x - z)(y - z); a_(2)+delta(x, y) = x^3 y^0 - x^0 y^3
        x, y, z = _vars(3, "v")
        assert alternant(Partition(), ["v1", "v2", "v3"]) == (x - y) * (x - z) * (y - z)
        assert alternant(Partition((2,)), ["v1", "v2"]) == x ** 3 - y ** 3
        assert alternant(Partition(), []) == LaurentPoly.one()


class TestCauchy:
    def test_schur_side_first_coefficients(self):
        s = cauchy_schur_side(2, 1, "X", 2)
        a1, a2, b1 = (LaurentPoly.var(v) for v in ("a1", "a2", "b1"))
        assert s.coeffs[0] == LaurentPoly.one()
        assert s.coeffs[1] == (a1 + a2) * b1
        assert s.coeffs[2] == (a1 ** 2 + a1 * a2 + a2 ** 2) * b1 ** 2

    def test_sides_agree(self):
        lhs = cauchy_schur_side(2, 2, "X", 5)
        den = l_denominator_series(
            UnramifiedRep.symbolic(2, "a"), UnramifiedRep.symbolic(2, "b"), "X", 5
        )
        assert (lhs * den).is_one()

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 3)])
    def test_check_passes(self, n, m):
        report = SUITES["cauchy"](SuiteConfig(n_max=10, order=4, p=2, seed=0))
        checks = [c for c in report.checks if c.id == f"n={n},m={m},order=4"]
        assert len(checks) == 1 and checks[0].passed

    def test_check_rejects_bad_arguments(self):
        # the suite's variable counts are fixed; a negative order is refused
        # when its configuration is built
        with pytest.raises(ValueError, match="order"):
            SuiteConfig(n_max=10, order=-1, p=2, seed=0)


class TestSchurProducts:
    @given(st.integers(0, 3), st.integers(0, 3))
    def test_row_times_row_expands_by_pieri_chain(self, a, b):
        # h_a * h_b = sum of s_mu over two-row mu = (mu1, a+b-mu1), mu1 >= max(a,b)
        xs = _vars(3)
        lhs = _row(a, xs) * _row(b, xs)
        rhs = LaurentPoly.zero()
        for mu1 in range(max(a, b), a + b + 1):
            rhs = rhs + schur(Partition((mu1, a + b - mu1)), xs)
        assert lhs == rhs
