"""Torus values of spherical, twisted and contragredient Whittaker vectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitlocal.exactalg import LaurentPoly, qpow
from whitlocal.localrep import UnramifiedRep, contragredient
from whitlocal.symfunc import Partition, schur
from whitlocal.whittaker import (
    contragredient_value,
    delta_half,
    spherical_value,
    twist_constants,
    twisted_value,
)

dominant_cochars = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestDeltaHalf:
    def test_rank_two(self):
        assert delta_half((1, 0)) == qpow(Fraction(-1, 2))
        assert delta_half((1, 1)) == LaurentPoly.one()

    def test_rank_three(self):
        assert delta_half((1, 0, 0)) == qpow(-1)
        assert delta_half((1, 1, 0)) == qpow(-1)
        assert delta_half((2, 1, 0)) == qpow(-2)

    @given(dominant_cochars)
    def test_collapse_identity(self, mu):
        # delta_(n+1)^(1/2) at (mu, 0) times delta_n^(-1/2) at mu is q^(-|mu|/2)
        lhs = delta_half(mu + (0,)) * delta_half(mu) ** -1
        assert lhs == qpow(Fraction(-sum(mu), 2))


class TestSphericalValue:
    def test_identity_cocharacter(self):
        rep = UnramifiedRep.symbolic(3)
        assert spherical_value(rep, (0, 0, 0)) == LaurentPoly.one()

    def test_rank_two_worked_values(self):
        rep = UnramifiedRep.symbolic(2)
        a1, a2 = (LaurentPoly.var(v) for v in ("a1", "a2"))
        assert spherical_value(rep, (1, 0)) == qpow(Fraction(-1, 2)) * (a1 + a2)
        assert spherical_value(rep, (2, 0)) == qpow(-1) * (a1 ** 2 + a1 * a2 + a2 ** 2)
        assert spherical_value(rep, (1, 1)) == a1 * a2

    def test_vanishes_off_dominant_cone(self):
        rep = UnramifiedRep.symbolic(2)
        assert spherical_value(rep, (0, 1)) == LaurentPoly.zero()
        assert spherical_value(rep, (-1, 0)) == LaurentPoly.zero()

    def test_negative_dominant_points(self):
        rep = UnramifiedRep.symbolic(2)
        got = spherical_value(rep, (0, -1))
        prod_inv = rep.satake_product() ** -1
        a1, a2 = (LaurentPoly.var(v) for v in ("a1", "a2"))
        assert got == qpow(Fraction(-1, 2)) * (a1 + a2) * prod_inv

    @settings(deadline=None, max_examples=50)
    @given(dominant_cochars)
    def test_casselman_shalika_shape(self, mu):
        # delta^(1/2) times a Schur value at the shift-normalized partition
        rep = UnramifiedRep.symbolic(len(mu))
        got = spherical_value(rep, mu)
        last = mu[-1]
        lam = Partition(tuple(e - last for e in mu))
        want = delta_half(mu) * schur(lam, rep.satake) * rep.satake_product() ** last
        assert got == want

    def test_numeric_parameters(self):
        rep = UnramifiedRep(2, [2, Fraction(1, 2)])
        got = spherical_value(rep, (1, 0))
        assert got == qpow(Fraction(-1, 2)) * Fraction(5, 2)


class TestContragredientValue:
    def test_matches_dual_parameters(self):
        rep = UnramifiedRep.symbolic(3)
        dual = contragredient(rep)
        for mu in ((1, 0, 0), (2, 1, 0), (1, 1, -1), (0, 0, 0), (3, 1, 1)):
            assert contragredient_value(rep, mu) == spherical_value(dual, mu)

    def test_support_is_still_dominant(self):
        rep = UnramifiedRep.symbolic(2)
        assert contragredient_value(rep, (0, 1)) == LaurentPoly.zero()

    def test_double_dual(self):
        rep = UnramifiedRep.symbolic(2)
        dd = contragredient(contragredient(rep))
        mu = (2, -1)
        assert spherical_value(dd, mu) == spherical_value(rep, mu)

    def test_numeric_consistency(self):
        rep = UnramifiedRep(3, [2, 1, Fraction(1, 2)])
        dual = contragredient(rep)
        mu = (2, 0, -1)
        assert contragredient_value(rep, mu) == spherical_value(dual, mu)


class TestTwistConstants:
    def test_values(self):
        published, computed = twist_constants(3, 2)
        assert published == qpow(2)
        assert computed == qpow(4)

    def test_level_zero(self):
        published, computed = twist_constants(4, 0)
        assert published == LaurentPoly.one()
        assert computed == LaurentPoly.one()


class TestTwistedValue:
    def test_level_zero_is_spherical(self):
        rep = UnramifiedRep.symbolic(3)
        for mu in ((1, 0), (2, 2), (0, -1)):
            assert twisted_value(rep, mu, 0) == spherical_value(rep, mu + (0,))

    def test_support_needs_level_depth(self):
        rep = UnramifiedRep.symbolic(2)
        assert twisted_value(rep, (0,), 1) == LaurentPoly.zero()
        assert twisted_value(rep, (1,), 2) == LaurentPoly.zero()
        assert twisted_value(rep, (2,), 2) != LaurentPoly.zero()

    def test_constant_factor(self):
        # the orthogonality constant q^((n-1)m) scales the padded spherical value
        rep = UnramifiedRep.symbolic(3)
        mu = (2, 1)
        got = twisted_value(rep, mu, 1)
        assert got == qpow(2) * spherical_value(rep, mu + (0,))

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_constant_and_support_come_from_character_sums(self, n, m):
        """The twist scaling and the support cutoff are character-sum facts.

        The scaling constant is the full orthogonality value over the
        (n-1)-coordinate residue box, and the vanishing verdict at depth k
        tracks the one visible coordinate of valuation k.  Both sides are
        computed through the independently tested character-sum routine.
        """
        from whitlocal.localrep import character_sum

        rep = UnramifiedRep.symbolic(n)
        _, computed = twist_constants(n, m)
        assert computed == character_sum("q", m, (m,) * (n - 1))
        for k in range(0, m + 2):
            mu = (m + 1,) * (n - 2) + (k,)
            value = twisted_value(rep, mu, m)
            visible = character_sum("q", m, (k,))
            assert value.is_zero() == visible.is_zero()
