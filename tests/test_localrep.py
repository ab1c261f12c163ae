"""Unramified representation data, congruence indices, character sums."""

import cmath
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitlocal import localrep
from whitlocal.cli import main
from whitlocal.exactalg import DivisionByZero, LaurentPoly, qpow
from whitlocal.localrep import (
    ENUMERATION_LIMIT,
    EnumerationTooLarge,
    MAX_RESIDUE_CARDINALITY,
    RankMismatch,
    UnramifiedRep,
    character_sum,
    character_sum_cyclotomic,
    character_sum_numeric,
    congruence_index,
    congruence_index_bruteforce,
    contragredient,
)
from whitlocal.symfunc import Partition, schur


class TestUnramifiedRep:
    def test_symbolic_construction(self):
        rep = UnramifiedRep.symbolic(3, "b")
        assert rep.rank == 3
        assert rep.variables() == frozenset({"b1", "b2", "b3"})
        assert rep.satake_product() == LaurentPoly({(("b1", 1), ("b2", 1), ("b3", 1)): 1})

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            UnramifiedRep(2, [LaurentPoly.var("a1")])

    def test_multi_term_parameter_rejected(self):
        with pytest.raises(ValueError):
            UnramifiedRep(1, [LaurentPoly.var("a1") + LaurentPoly.one()])



def _hecke_eigenvalue(rep, k):
    # at the k-th elementary torus coset, in the unitary normalization:
    # h_k = s_(k) of the Satake parameters
    return schur(Partition((k,)), rep.satake)


class TestHeckeEigenvalue:
    def test_rank_two_values(self):
        rep = UnramifiedRep.symbolic(2)
        a1, a2 = (LaurentPoly.var(v) for v in ("a1", "a2"))
        assert _hecke_eigenvalue(rep, 0) == LaurentPoly.one()
        assert _hecke_eigenvalue(rep, 1) == a1 + a2
        assert _hecke_eigenvalue(rep, 2) == a1 ** 2 + a1 * a2 + a2 ** 2

    def test_rank_two_recursion(self):
        # lambda_k = lambda_1 lambda_(k-1) - (a1 a2) lambda_(k-2)
        rep = UnramifiedRep.symbolic(2)
        e2 = rep.satake_product()
        for k in range(2, 7):
            assert _hecke_eigenvalue(rep, k) == (
                _hecke_eigenvalue(rep, 1) * _hecke_eigenvalue(rep, k - 1)
                - e2 * _hecke_eigenvalue(rep, k - 2)
            )


class TestContragredient:
    def test_parameters_reversed_and_inverted(self):
        rep = UnramifiedRep(2, [2, Fraction(1, 3)])
        dual = contragredient(rep)
        assert [p.as_fraction() for p in dual.satake] == [3, Fraction(1, 2)]

    def test_is_an_involution(self):
        rep = UnramifiedRep.symbolic(3)
        assert contragredient(contragredient(rep)).satake == rep.satake

    def test_zero_parameter_rejected(self):
        rep = UnramifiedRep(2, [LaurentPoly.var("a1"), LaurentPoly.zero()])
        with pytest.raises(DivisionByZero):
            contragredient(rep)


class TestCongruenceIndex:
    def test_level_zero_is_trivial(self):
        for n, p in product((2, 3, 5), (2, 3, 7)):
            assert congruence_index(n, p, 0) == 1

    def test_known_values(self):
        assert congruence_index(2, 2, 1) == 3
        assert congruence_index(3, 2, 1) == 7
        assert congruence_index(2, 3, 1) == 4
        assert congruence_index(2, 2, 2) == 6
        assert congruence_index(2, 3, 2) == 12

    def test_projective_line_count(self):
        # at m=1 the quotient is the projective space P^(n-1)(F_p)
        for n, p in product((2, 3, 4), (2, 3, 5)):
            want = sum(p ** k for k in range(n))
            assert congruence_index(n, p, 1) == want

    @pytest.mark.parametrize("n,p,m", [
        (2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2),
        (2, 5, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1),
        # refused while the brute force enumerated p^(m*n^2) matrices
        (3, 3, 2), (4, 2, 2), (5, 3, 1), (2, 7, 3), (4, 3, 2), (6, 2, 2),
    ])
    def test_against_bruteforce(self, n, p, m):
        assert congruence_index(n, p, m) == congruence_index_bruteforce(n, p, m)

    def test_enumeration_bound(self, monkeypatch):
        # the bound is on the p^(m*n) vectors, checked before any is enumerated
        assert 2 ** 24 == ENUMERATION_LIMIT
        message = r"^p\^\(m\*n\) = 2\^25 exceeds the bound 16777216$"
        with pytest.raises(EnumerationTooLarge, match=message):
            congruence_index_bruteforce(5, 2, 5)
        with pytest.raises(EnumerationTooLarge):
            congruence_index_bruteforce(2, 2, 10 ** 30)
        with pytest.raises(EnumerationTooLarge):
            congruence_index_bruteforce(10 ** 30, 2, 1)
        # the edge, at a lower bound so that it enumerates quickly
        monkeypatch.setattr(localrep, "ENUMERATION_LIMIT", 2 ** 12)
        for n, p, m in ((2, 2, 6), (3, 2, 4), (4, 2, 3), (12, 2, 1), (2, 61, 1)):
            assert congruence_index_bruteforce(n, p, m) == congruence_index(n, p, m)
        for n, p, m in ((2, 2, 7), (13, 2, 1), (2, 67, 1), (3, 3, 3)):
            with pytest.raises(EnumerationTooLarge):
                congruence_index_bruteforce(n, p, m)

    def test_validation(self):
        with pytest.raises(ValueError):
            congruence_index(0, 2, 1)
        with pytest.raises(ValueError):
            congruence_index(2, 1, 1)
        with pytest.raises(ValueError):
            congruence_index(2, 2, -1)

    @pytest.mark.parametrize("p", [4, 8, 9, 25, 27])
    def test_prime_powers_accepted(self, p):
        assert congruence_index(2, p, 1) == p + 1

    @pytest.mark.parametrize("p", [6, 10, 12, 15])
    def test_not_a_prime_power_refused(self, p):
        with pytest.raises(ValueError, match="prime power"):
            congruence_index(2, p, 1)

    @pytest.mark.parametrize("p,m", [(4, 1), (6, 1), (8, 0), (9, 1)])
    def test_bruteforce_refuses_non_prime(self, p, m):
        with pytest.raises(ValueError, match="prime"):
            congruence_index_bruteforce(2, p, m)

    def test_residue_cardinality_bound(self):
        assert congruence_index(2, 1099511627689, 0) == 1  # the largest prime below 2^40
        with pytest.raises(ValueError, match="exceeds the bound"):
            congruence_index(2, MAX_RESIDUE_CARDINALITY + 15, 1)

    def test_the_bound_itself_is_admitted(self):
        # 2^40 is a prime power, so the bound is the largest value admitted
        localrep.require_prime_power(MAX_RESIDUE_CARDINALITY)
        with pytest.raises(ValueError, match="exceeds the bound"):
            localrep.require_prime_power(MAX_RESIDUE_CARDINALITY + 1)

    def test_trial_division_runs_once_per_value(self, capsys):
        # weight-q re-checks p in each of its 65 weight and index calls; at the
        # largest prime below 2^40 each check was up to 2^20 trial divisions
        localrep._smallest_prime_factor.cache_clear()
        assert main(["verify", "--suite", "weight-q", "--p", "1099511627689"]) == 0
        # one miss for the configured p, one for the worked example's p = 2
        assert localrep._smallest_prime_factor.cache_info().misses == 2

    def test_a_float_equal_to_a_checked_prime_is_refused(self):
        assert congruence_index(2, 3, 1) == 4
        with pytest.raises(ValueError, match="integer >= 2, got 3.0"):
            congruence_index(2, 3.0, 1)


class TestCharacterSum:
    def test_symbolic_orthogonality(self):
        assert character_sum("q", 2, (2, 3)) == qpow(4)
        assert character_sum("q", 2, (2, 1)) == LaurentPoly.zero()
        assert character_sum("q", 0, (0, 0)) == LaurentPoly.one()

    def test_numeric_value(self):
        assert character_sum(3, 1, (1, 1, 5)).as_fraction() == 27
        assert character_sum(3, 1, (0, 1, 5)).as_fraction() == 0

    def test_nonnegative_valuations_required(self):
        with pytest.raises(ValueError):
            character_sum(3, 1, (-1,))

    @settings(max_examples=60)
    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(0, 2),
        st.lists(st.integers(0, 3), min_size=1, max_size=3),
    )
    def test_matches_numeric_oracle(self, p, m, vals):
        exact = complex(int(character_sum(p, m, vals).as_fraction()))
        numeric = character_sum_numeric(p, m, vals)
        assert abs(exact - numeric) <= 1e-9

    @settings(max_examples=80)
    @given(
        st.sampled_from([2, 3, 4, 5, 8, 9]),
        st.integers(0, 3),
        st.lists(st.integers(0, 4), max_size=3),
    )
    # the empty box sums to the element 1, with all phi(q) coordinates
    @example(9, 1, [])
    def test_equals_the_cyclotomic_sum(self, p, m, vals):
        oracle = character_sum_cyclotomic(p, m, vals)
        q = p ** m
        ell = {2: 2, 3: 3, 4: 2, 5: 5, 8: 2, 9: 3}[p]
        assert len(oracle) == (q - q // ell if m else 1)
        assert LaurentPoly.const(oracle[0]) == character_sum(p, m, vals)
        assert not any(oracle[1:])

    @pytest.mark.parametrize("q,ell", [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (27, 3), (25, 5), (7, 7)])
    def test_reduction_of_the_top_power(self, q, ell):
        # x^(q/l*(l-1)) = -sum_{j<l-1} x^(j*q/l) modulo Phi_q
        step = q // ell
        coords = [0] * (q - step)
        localrep._add_root_of_unity(coords, step * (ell - 1), 1, step)
        assert coords == [-1 if i % step == 0 else 0 for i in range(q - step)]

    def test_reduction_sums_to_zero_over_all_powers(self):
        # 1 + zeta + ... + zeta^(q-1) = 0 for q > 1
        for q, ell in ((16, 2), (27, 3), (25, 5)):
            coords = [0] * (q - q // ell)
            for e in range(q):
                localrep._add_root_of_unity(coords, e, 1, q // ell)
            assert coords == [0] * (q - q // ell)

    def test_irrational_sum_keeps_its_coordinates(self):
        # one term, zeta_9^4: not rational, so a non-constant coordinate survives
        coords = [0] * 6
        localrep._add_root_of_unity(coords, 4, 1, 3)
        assert coords == [0, 0, 0, 0, 1, 0]
        coords = [0] * 6
        localrep._add_root_of_unity(coords, 7, 1, 3)
        assert coords == [0, -1, 0, 0, -1, 0]

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("vals", [(), (0,), (2,), (1, 3), (0, 2), (2, 2, 1), (3, 0, 1)])
    def test_numeric_sum_adds_the_product_terms_in_order(self, p, m, vals):
        # the terms of the sum over product(range(q), repeat=r), in its order,
        # so the float is the same to the last bit
        q = p ** m
        units = [pow(p, v, q) for v in vals]
        expected = 0j
        for b in product(range(q), repeat=len(vals)):
            phase = sum(bi * u for bi, u in zip(b, units)) % q
            expected += cmath.exp(2j * cmath.pi * phase / q)
        assert repr(character_sum_numeric(p, m, vals)) == repr(expected)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no VmHWM to read")
    def test_numeric_sum_memory_does_not_grow_with_q(self):
        # product(range(q), repeat=1) stored 2^18 ints, about 10 MB, at level 18.
        # The peak is the child's VmHWM: ru_maxrss of a child also counts the
        # memory of the process that started it, before the exec.
        code = ("import sys; from whitlocal.localrep import character_sum_numeric; "
                "character_sum_numeric(2, int(sys.argv[1]), [0]); "
                "print(next(line.split()[1] for line in open('/proc/self/status') "
                "if line.startswith('VmHWM:')))")
        peak_kb = {}
        for level in (12, 18):
            proc = subprocess.run([sys.executable, "-c", code, str(level)],
                                  capture_output=True, text=True, check=True)
            peak_kb[level] = int(proc.stdout)
        assert peak_kb[18] - peak_kb[12] < 4 * 1024

    def test_cyclotomic_ring_of_level_zero_is_z(self):
        assert character_sum_cyclotomic(5, 0, (0, 1, 2)) == (1,)
        assert character_sum_cyclotomic(4096, 1, (0,)) == (0,) * 2048

    def test_cyclotomic_bound_edge(self, monkeypatch):
        # q = p^m is bounded, checked before any power of p is formed
        for p, m in ((2, 25), (4096, 3), (3, 10 ** 30)):
            with pytest.raises(EnumerationTooLarge):
                character_sum_cyclotomic(p, m, (0,))
        # the edge, at a lower bound so that it enumerates quickly
        monkeypatch.setattr(localrep, "ENUMERATION_LIMIT", 2 ** 12)
        for p, m, phi in ((2, 12, 2048), (4, 6, 2048), (64, 2, 2048), (4096, 1, 2048),
                          (3, 7, 1458), (4093, 1, 4092)):
            assert character_sum_cyclotomic(p, m, (0, m)) == (0,) * phi
        for p, m in ((2, 13), (4, 7), (64, 3), (8192, 1), (3, 8), (4099, 1)):
            with pytest.raises(EnumerationTooLarge):
                character_sum_cyclotomic(p, m, (m,))

    def test_cyclotomic_needs_a_numeric_prime_power(self):
        with pytest.raises(ValueError):
            character_sum_cyclotomic("q", 1, (0,))
        with pytest.raises(ValueError, match="prime power"):
            character_sum_cyclotomic(6, 1, (0,))
        with pytest.raises(ValueError):
            character_sum_cyclotomic(3, 1, (-1,))
