"""Acceptance battery: thirteen criteria, one test and one verdict line each.

Every identity here is checked in exact arithmetic; the only tolerance in
the whole file is the 1e-9 gate on the floating-point character-sum
oracle, and the wall-clock budgets on the timed criteria.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations, product

from whitlocal import localrep
from whitlocal.exactalg import LaurentPoly, qpow
from whitlocal.localrep import (
    UnramifiedRep,
    character_sum,
    character_sum_cyclotomic,
    character_sum_numeric,
    congruence_index,
    congruence_index_bruteforce,
    contragredient,
)
from whitlocal.reciprocity import ParamPair, dual_params
from whitlocal.suites import SUITES, SuiteConfig
from whitlocal.symfunc import (
    Partition,
    partitions_up_to,
    schur,
    schur_bialternant_oracle,
)
from whitlocal.whittaker import contragredient_value, spherical_value
from whitlocal.zeta import weight_at_l, weight_at_q_structural, weight_unramified
from series_helpers import from_poly


def _verdict(number: int, ok: bool, description: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number:02d} failed: {description}"


def test_criterion_01_parameter_involution():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 11):
        pair = ParamPair.symbolic(n)
        twice = dual_params(dual_params(pair))
        ok = ok and twice.s == pair.s and twice.w == pair.w
        fixed = dual_params(ParamPair(Fraction(1, 2), Fraction(1, 2), n))
        ok = ok and fixed.s.as_fraction() == Fraction(1, 2)
        ok = ok and fixed.w.as_fraction() == Fraction(1, 2)
    image = dual_params(ParamPair.symbolic(2))
    s, w = LaurentPoly.var("s"), LaurentPoly.var("w")
    ok = ok and image.s == (LaurentPoly.one() + w - s) / 2
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(1, ok, f"involution, fixed point and rank-2 closed form, n=2..10 ({elapsed:.3f}s)")


def test_criterion_02_exponent_identities():
    t0 = time.perf_counter()
    ok = True
    one = LaurentPoly.one()
    half = LaurentPoly.const(Fraction(1, 2))
    for n in range(2, 11):
        pair = ParamPair.symbolic(n)
        image = dual_params(pair)
        first = n * (image.s - half) == n * (half - pair.s) + (n - 1) * (pair.s + pair.w - one)
        second = image.s + image.w - one == pair.s + pair.w - one
        ok = ok and first and second
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(2, ok, f"both proof exponent identities, symbolic, n=2..10 ({elapsed:.3f}s)")


def test_criterion_03_matrix_identities():
    t0 = time.perf_counter()
    weyl = SUITES["weyl"](SuiteConfig(n_max=6, order=6, p=2, seed=0))  # n = 2..6
    cusp = SUITES["cusp"](SuiteConfig(n_max=4, order=6, p=2, seed=0))  # n = 2..4
    ok = weyl.passed and len(weyl.checks) == 10 and cusp.passed and len(cusp.checks) == 12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(3, ok, f"Weyl conjugation n=2..6 and cusp factorization n=2..4 ({elapsed:.3f}s)")


def test_criterion_04_unramified_local_identity():
    t0 = time.perf_counter()
    report = SUITES["unramified"](SuiteConfig(n_max=10, order=6, p=2, seed=0))
    ok = report.passed and [c.id for c in report.checks] == [
        "ranks=(2,1),order=6", "ranks=(3,2),order=6", "ranks=(4,3),order=5"
    ]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(4, ok, f"lattice sum equals L-factor at ranks (2,1),(3,2),(4,3) ({elapsed:.1f}s)")


def test_criterion_05_cauchy_identity():
    report = SUITES["cauchy"](SuiteConfig(n_max=10, order=6, p=2, seed=0))
    ok = report.passed and [c.id for c in report.checks] == [
        f"n={n},m={m},order=6" for n, m in product((1, 2, 3), repeat=2)
    ]
    _verdict(5, ok, "Cauchy identity for all (n,m) in {1,2,3}^2 at order 6")


def test_criterion_06_schur_oracles():
    ok = True
    for n in range(1, 5):
        names = [f"x{i}" for i in range(1, n + 1)]
        values = [LaurentPoly.var(v) for v in names]
        ones = [LaurentPoly.one()] * n
        for lam in partitions_up_to(6, n):
            ok = ok and schur(lam, values) == schur_bialternant_oracle(lam, names)
            padded = lam.padded(n)
            dim = Fraction(1)
            for i in range(n):
                for j in range(i + 1, n):
                    dim *= Fraction(padded[i] - padded[j] + j - i, j - i)
            ok = ok and schur(lam, ones).as_fraction() == dim
        h1 = sum(values, LaurentPoly.zero())
        for lam in partitions_up_to(4, n):
            rhs = LaurentPoly.zero()
            for i in range(min(len(lam) + 1, n)):
                grown = list(lam.padded(min(len(lam) + 1, n)))
                grown[i] += 1
                if all(a >= b for a, b in zip(grown, grown[1:])):
                    rhs = rhs + schur(Partition(grown), values)
            ok = ok and schur(lam, values) * h1 == rhs
    _verdict(6, ok, "branching rule vs bialternant, dimension formula, Pieri rule")


def test_criterion_07_unramified_weight_is_one():
    ok = True
    for n, order in ((2, 6), (3, 5), (4, 4)):
        big = UnramifiedRep.symbolic(n + 1, "a")
        mid = UnramifiedRep.symbolic(n, "b")
        small = UnramifiedRep.symbolic(n - 1, "g")
        result = weight_unramified(big, mid, small, order=order)
        ok = ok and result.value == LaurentPoly.one()
    _verdict(7, ok, "weight equals 1 symbolically at ranks (3,2,1),(4,3,2),(5,4,3)")


def test_criterion_08_weight_at_twisting_level():
    mid = UnramifiedRep.symbolic(2, "b")
    small = UnramifiedRep.symbolic(1, "g")

    ok = weight_at_l(mid, small, 0, "Y", 6).value.is_one()
    ok = ok and weight_at_l(UnramifiedRep.symbolic(3, "b"),
                            UnramifiedRep.symbolic(2, "g"), 0, "Y", 4).value.is_one()

    # path one: the library's direct tail enumeration
    direct = weight_at_l(mid, small, 1, "Y", 6).value

    # path two, independently: 1 - L^(-1) * (partial sum below the level)
    y = LaurentPoly.var("Y")
    g1 = LaurentPoly.var("g1")
    inverse_l = LaurentPoly.one()
    for b in mid.satake:
        inverse_l = inverse_l * (LaurentPoly.one() - b * g1 * y)
    partial = LaurentPoly.one()  # only the weight-zero lattice point lies below m=1
    second_path = from_poly(
        LaurentPoly.one() - inverse_l * partial, "Y", 6
    )
    ok = ok and all(direct.coeffs[k] == second_path.coeffs[k] for k in range(7))

    # the explicit published form: lambda(pi) gamma Y - (alpha1 alpha2) gamma^2 Y^2
    lam1 = schur(Partition((1,)), mid.satake)
    ok = ok and direct.coeffs[1] == lam1 * g1
    ok = ok and direct.coeffs[2] == -mid.satake_product() * g1 ** 2
    ok = ok and all(direct.coeffs[k].is_zero() for k in (0, 3, 4, 5, 6))

    # rationality: after cross-multiplication the series is a polynomial
    # of degree at most n*m
    for n, m in product((2, 3), (1, 2)):
        result = weight_at_l(
            UnramifiedRep.symbolic(n, "b"), UnramifiedRep.symbolic(n - 1, "g"),
            m, "Y", 8,
        )
        ok = ok and all(result.value.coeffs[k].is_zero() for k in range(n * m + 1, 9))
    _verdict(8, ok, "two-path level weight, explicit rank-2 form, degree bound")


def test_criterion_09_weight_at_auxiliary_place():
    ok = True
    for n0, m in product(range(5), repeat=2):
        result = weight_at_q_structural(n0, m, 2, 2)
        ok = ok and result.vanishes == (n0 > m)
    for n, p, m in ((2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 2)):
        result = weight_at_q_structural(m, m, n, p)
        ok = ok and result.value == LaurentPoly.const(Fraction(1, congruence_index(n, p, m)))
        cmp = result.paper_comparison
        ok = ok and cmp.paper_constant == LaurentPoly.const(Fraction(1, p ** ((n - 1) * m)))
        want_ratio = Fraction(p ** ((n - 1) * m), congruence_index(n, p, m))
        ok = ok and cmp.ratio == want_ratio
    _verdict(9, ok, "vanishing verdicts and boundary value with documented constant gap")


def test_criterion_10_congruence_index_bruteforce():
    t0 = time.perf_counter()
    ok = congruence_index(2, 2, 1) == 3 and congruence_index(3, 2, 1) == 7
    for n, p, m in product((2, 3), (2, 3), (0, 1, 2)):
        # the brute force counts p^(m*n) vectors and refuses more than its bound
        if p ** (m * n) > localrep.ENUMERATION_LIMIT:
            continue
        ok = ok and congruence_index(n, p, m) == congruence_index_bruteforce(n, p, m)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(10, ok, f"closed form equals coset count, n<=3, p in {{2,3}}, m<=2 ({elapsed:.1f}s)")


def test_criterion_11_character_sums():
    ok = True
    for p, m, r in product((2, 3, 5), (0, 1, 2), (1, 2, 3)):
        for vals in product(range(4), repeat=r):
            exact = character_sum(p, m, vals)
            oracle = character_sum_cyclotomic(p, m, vals)
            ok = ok and not any(oracle[1:]) and exact == LaurentPoly.const(oracle[0])
            numeric = complex(int(exact.constant_coefficient()))
            ok = ok and abs(numeric - character_sum_numeric(p, m, vals)) <= 1e-9
    _verdict(11, ok, "orthogonality values equal the sums in Z[zeta_q] and match "
                     "the numeric oracle to 1e-9")


def test_criterion_12_contragredient_consistency():
    rng = random.Random(0)
    ok = True
    for rank in (2, 3, 4):
        rep = UnramifiedRep.symbolic(rank)
        dual = contragredient(rep)
        for _ in range(20):
            mu = tuple(sorted((rng.randint(-4, 4) for _ in range(rank)), reverse=True))
            ok = ok and contragredient_value(rep, mu) == spherical_value(dual, mu)
    _verdict(12, ok, "matrix path equals parameter-inversion path, 20 points per rank")


def test_criterion_13_verify_determinism():
    outputs = []
    for jobs in ("1", "8"):
        proc = subprocess.run(
            [sys.executable, "-m", "whitlocal", "verify", "--suite", "all",
             "--jobs", jobs],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _verdict(13, ok, "verify --suite all is byte-identical for --jobs 1 and --jobs 8")
