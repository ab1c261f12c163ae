"""Named verification suites behind the command line ``verify`` command.

This module is the only place that declares checks.  A check is an
``(id, description, body)`` entry: the body is a generator that yields one
``(where, got, want)`` comparison per equality its identity needs, and
compares nothing and writes no witness itself; ``report.run_check`` does
both.  A count, a verdict, a value that must be zero and the canonical
order of a polynomial's terms are each written as such a comparison.  A
``where`` names ints, tuples and partitions only, never a polynomial, so
the text of a polynomial is formed only when its comparison fails.  Each
suite builds its list of entries and hands it to ``report.run_checks``,
which runs them in order.

Building an entry does no arithmetic.  Every polynomial or matrix
operation runs inside a body, so its time lands in that check's
``millis`` and its exception in that check's status.  A value that several
bodies share comes from ``functools.cache`` on a small function defined
inside the suite call; a call that raises stores nothing, so every body
that needs the value reports the error.

Suites are deterministic for a fixed configuration: randomized checks draw
from a seeded generator, and check ids are stable strings, so repeated
runs emit identical reports.

``run`` is the one entry of ``verify``: only this module knows which
suites exist, what ``all`` means, which work bounds apply and how the
suites are spread over forked processes.  The command line calls it once
and writes the report it returns.
"""

from __future__ import annotations

import os
import random
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

from .exactalg import DivisionByZero, LaurentPoly, TruncatedSeries, qpow
from .localrep import (
    UnramifiedRep,
    character_sum,
    character_sum_cyclotomic,
    congruence_index,
    congruence_index_bruteforce,
    contragredient,
    require_prime_power,
)
from .reciprocity import ParamPair, SymbolicMatrix, column_unipotent, dual_params, swap_last_two
from .report import Body, Check, SuiteReport, merge_reports, run_checks
from .symfunc import (
    Partition,
    alternant,
    cauchy_schur_side,
    partitions_up_to,
    schur,
)
from .whittaker import contragredient_value, spherical_value
from .zeta import (
    MAX_TERMS,
    check_terms,
    lattice_terms,
    local_zeta_unramified,
    times_l_denominator,
    weight_at_l,
    weight_at_q_structural,
    weight_unramified,
)


class SuiteConfig(namedtuple("SuiteConfig", "n_max order p seed")):
    """Knobs shared by the suites; the verify parser declares their defaults."""

    __slots__ = ()

    def __new__(cls, n_max: int, order: int, p: int, seed: int):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        # weight-q feeds p to the congruence index, which needs a prime power
        require_prime_power(p)
        return super().__new__(cls, n_max, order, p, seed)


def _all_pass(checks: list[Check]) -> Body:
    """One body for a list of entries, run in order.

    It yields each entry's comparisons in turn, each ``where`` prefixed by
    the entry's id, so the folded check fails at the first comparison that
    does.  An exception propagates, so the folded check reports ``error``.
    """

    def body():
        for check_id, _, fn in checks:
            for where, got, want in fn():
                yield f"{check_id}: {where}" if where else check_id, got, want

    return body


def _coefficients(name: str, series, *want):
    """Compare each coefficient of series with want, padded with 0s.

    Each ``where`` reads ``X^k: name``, for the series variable X.
    """
    for k, c in enumerate(series.coeffs):
        yield f"{series.var}^{k}: {name}", c, want[k] if k < len(want) else 0


def _lattice_points(order: int, *lengths: int) -> int:
    """The dominant mu >= 0 with |mu| <= order, counted at each length and summed.

    A point of weight w and length k is a partition of w into at most k
    parts, counted by p(w, k) = p(w, k-1) + p(w-k, k): fewer than k parts,
    or k parts with one box taken from each.
    """
    total = 0
    for length in lengths:
        p = [1] + [0] * order  # p(w, 0)
        for k in range(1, length + 1):
            for w in range(k, order + 1):
                p[w] += p[w - k]
        total += sum(p)
    return total


def _all_partitions(lams: list[Partition], weight: int, n: int):
    """Compare the number of lams with that of the partitions _lattice_points counts."""
    return "partitions checked", len(lams), _lattice_points(weight, n)


def _term_order(where: str, terms):
    """Compare the monomials of a polynomial's sorted_terms() with the same sorted, once each.

    The two are equal when the monomials strictly increase under plain
    tuple comparison of their (name, exponent) pairs, an order that does
    not rest on the packed sort key of exactalg._ordered.  dict.fromkeys,
    unlike set, keeps their order, and sorting a list in order is one pass:
    for the 4,279 monomials of a contragredient run this took 2.2 ms, against
    4.0 ms through a set (best of 5, Python 3.11 on a 2-vCPU host).
    """
    monomials = [exps for exps, _ in terms]
    return where, monomials, sorted(dict.fromkeys(monomials))


def _text(terms) -> str:
    """The text form of a polynomial, written out again from its sorted_terms().

    A term is its coefficient and its factors joined by "*": a factor is
    name, name^e or name^(e), the last for a negative or a half exponent, and
    a coefficient of magnitude 1 is left out when a factor follows.  The
    terms are joined by " + " and " - ", the first carries a leading "-"
    when negative, and no terms read "0".
    """
    out = ""
    for exps, c in terms:
        factors = [name if e == 1 else f"{name}^{e}" if isinstance(e, int) and e > 0
                   else f"{name}^({e})" for name, e in exps]
        term = "*".join(factors if abs(c) == 1 and factors else [str(abs(c)), *factors])
        out += (" - " if c < 0 else " + ") + term if out else ("-" if c < 0 else "") + term
    return out or "0"


def _involution_checks(n: int, dual) -> list[Check]:
    # The transform at rank parameter n, over the symbols s, w: the two
    # exponent identities, the involution property, the fixed point
    # (1/2, 1/2), and for n = 2 the classical closed form.
    half = Fraction(1, 2)

    @cache
    def image():
        pair = ParamPair.symbolic(n)
        return pair.s, pair.w, dual(pair)

    def exponent_balance():
        s, w, im = image()
        yield "", n * (im.s - half), n * (half - s) + (n - 1) * (s + w - 1)

    def exponent_sum():
        s, w, im = image()
        yield "", im.s + im.w - 1, s + w - 1

    def involution():
        s, w, im = image()
        twice = dual(im)
        yield "double image s", twice.s, s
        yield "double image w", twice.w, w
        yield _term_order("image s term order", im.s.sorted_terms())
        yield _term_order("image w term order", im.w.sorted_terms())

    def fixed_point():
        fp = dual(ParamPair(half, half, n))
        yield "image s", fp.s, half
        yield "image w", fp.w, half

    def rank2_form():
        s, w, im = image()
        yield "image s", im.s, (1 + w - s) / 2
        yield "image w", im.w, (3 * s + w - 1) / 2

    checks = [
        (f"n={n:02d}/exponent-balance",
         "first exponent identity n(s'-1/2) = n(1/2-s) + (n-1)(s+w-1)", exponent_balance),
        (f"n={n:02d}/exponent-sum", "second exponent identity s'+w'-1 = s+w-1", exponent_sum),
        (f"n={n:02d}/involution", "applying the transform twice is the identity", involution),
        (f"n={n:02d}/fixed-point", "(1/2, 1/2) is fixed", fixed_point),
    ]
    if n == 2:
        checks.append(("n=02/rank2-closed-form",
                       "n = 2 reproduces s' = (1+w-s)/2, w' = (3s+w-1)/2", rank2_form))
    return checks


def suite_involution(cfg: SuiteConfig) -> SuiteReport:
    return run_checks("involution", [
        (f"n={n:02d}", f"parameter transform identities at n={n}",
         _all_pass(_involution_checks(n, dual_params)))
        for n in range(2, cfg.n_max + 1)
    ])


def _involution_bound(cfg: SuiteConfig) -> None:
    if cfg.n_max - 1 > MAX_TERMS:
        raise ValueError(
            f"the involution suite would run {cfg.n_max - 1} ranks, over the cap {MAX_TERMS}"
        )


def _weyl_checks(n: int) -> list[Check]:
    # The swap element of size n+1 conjugates the column of n-1 unipotent
    # symbols above coordinate n into the same column above coordinate n+1,
    # and squares to the identity.
    size = n + 1

    def conjugation():
        names = [f"u{i}" for i in range(1, n)]
        w = swap_last_two(size)
        yield "", w * column_unipotent(size, n, names) * w, column_unipotent(size, n + 1, names)

    def square():
        w = swap_last_two(size)
        yield "", w * w, SymbolicMatrix.scalar(size, 1)

    return [
        (f"n={n:02d}/conjugation",
         "swap element conjugates the middle-column unipotent to the last column", conjugation),
        (f"n={n:02d}/square", "the swap element squares to the identity", square),
    ]


def suite_weyl(cfg: SuiteConfig) -> SuiteReport:
    ranks = range(2, min(cfg.n_max, 6) + 1)
    return run_checks("weyl", [check for n in ranks for check in _weyl_checks(n)])


def _cusp_checks(n: int) -> list[Check]:
    # With H a generic (n-1) x (n-1) symbolic block and u an invertible
    # scalar, the factorization that moves a central scaling past the swap,
    #     diag(u*H, u, 1) = (u * Id) * swap * diag(H, u^(-1), 1) * swap,
    # checked entrywise, with the two intermediate regroupings, u = 1 and u = 0.
    size = n + 1

    @cache
    def parts():
        u, u_inv = LaurentPoly.var("u"), LaurentPoly.var("u", -1)
        h = SymbolicMatrix([
            [LaurentPoly.var(f"h{i}_{j}") for j in range(1, n)] for i in range(1, n)
        ])
        scaled_h = SymbolicMatrix([[u * e for e in row] for row in h.rows])
        lhs = SymbolicMatrix.block_diag(scaled_h, u, 1)
        return h, u_inv, lhs, SymbolicMatrix.scalar(size, u), swap_last_two(size)

    @cache
    def rhs():
        h, u_inv, _, central, w = parts()
        return central * w * SymbolicMatrix.block_diag(h, u_inv, 1) * w

    def regroup_scaling():
        h, u_inv, lhs, central, _ = parts()
        yield "", lhs, central * SymbolicMatrix.block_diag(h, 1, u_inv)

    def swap_conjugation():
        h, u_inv, _, _, w = parts()
        got = w * SymbolicMatrix.block_diag(h, u_inv, 1) * w
        yield "", got, SymbolicMatrix.block_diag(h, 1, u_inv)

    def full_factorization():
        yield "", parts()[2], rhs()

    def unit_specialization():
        h, u_inv, lhs, _, _ = parts()
        plain = SymbolicMatrix.block_diag(h, 1, 1)
        yield "u=1, left side", lhs.substitute("u", LaurentPoly.one()), plain
        yield "u=1, right side", rhs().substitute("u", LaurentPoly.one()), plain
        # u is not invertible at 0: the left side, of u^1 and u^0 entries,
        # still has a value there, and diag(H, u^(-1), 1) has none
        zero = SymbolicMatrix.block_diag(SymbolicMatrix.scalar(n - 1, 0), 0, 1)
        yield "u=0, left side", lhs.substitute("u", 0), zero
        try:
            inner0 = SymbolicMatrix.block_diag(h, u_inv, 1).substitute("u", 0)
        except DivisionByZero:
            inner0 = None
        yield "u=0, diag(H, u^(-1), 1)", inner0, None

    return [
        (f"n={n:02d}/regroup-scaling", "diag(u*H, u, 1) equals u * diag(H, 1, u^(-1))",
         regroup_scaling),
        (f"n={n:02d}/swap-conjugation",
         "conjugation by the swap exchanges the last two diagonal entries", swap_conjugation),
        (f"n={n:02d}/full-factorization",
         "diag(u*H, u, 1) = (u*Id) * swap * diag(H, u^(-1), 1) * swap", full_factorization),
        (f"n={n:02d}/unit-specialization", "both sides collapse to diag(H, 1, 1) at u = 1",
         unit_specialization),
    ]


def suite_cusp(cfg: SuiteConfig) -> SuiteReport:
    ranks = range(2, min(cfg.n_max, 4) + 1)
    return run_checks("cusp", [check for n in ranks for check in _cusp_checks(n)])


def _unramified_cases(order: int) -> tuple[tuple[int, int], ...]:
    # (n, order) of each rank (n+1, n) case; the rank (4, 3) case stops at order 5
    return (1, order), (2, order), (3, min(order, 5))


def suite_unramified(cfg: SuiteConfig) -> SuiteReport:
    # the rank (n+1, n) lattice sum at symbolic Satake parameters times the
    # denominator of the L-factor is 1
    checks = []
    for n, order in _unramified_cases(cfg.order):
        def body(n=n, order=order):
            rep_a = UnramifiedRep.symbolic(n + 1, "a")
            rep_b = UnramifiedRep.symbolic(n, "b")
            result = local_zeta_unramified(rep_a, rep_b, "X", order)
            yield "lattice points", result.lattice_points, _lattice_points(order, n)
            yield from _coefficients("lattice sum times the L-factor denominator",
                                     times_l_denominator(result.series, rep_a, rep_b), 1)

        checks.append((
            f"ranks=({n + 1},{n}),order={order}",
            f"unramified integral equals the L-factor for ranks ({n + 1},{n}) through X^{order}",
            body,
        ))
    return run_checks("unramified", checks)


def _unramified_bound(cfg: SuiteConfig) -> None:
    check_terms("the unramified suite's lattice series",
                (count for n, order in _unramified_cases(cfg.order)
                 for count in lattice_terms(order, [(n + 1, n)])))


_CAUCHY_RANKS = tuple(product((1, 2, 3), repeat=2))


def suite_cauchy(cfg: SuiteConfig) -> SuiteReport:
    # at unit parameters the denominator is (1 - X)^(nm), read to full degree:
    # this sees a series product that drops top coefficients, which the
    # identity below reads as its expected 0s; then
    # sum_lam s_lam(a) s_lam(b) X^|lam| times prod_(i,j) (1 - a_i b_j X) is 1
    checks = []
    for n, m in _CAUCHY_RANKS:
        def body(n=n, m=m):
            units = times_l_denominator(TruncatedSeries.one("X", n * m),
                                        UnramifiedRep(n, [1] * n), UnramifiedRep(m, [1] * m))
            yield from _coefficients("the denominator at unit parameters", units,
                                     *((-1) ** k * comb(n * m, k) for k in range(n * m + 1)))
            series = cauchy_schur_side(n, m, "X", cfg.order)
            product = times_l_denominator(
                series, UnramifiedRep.symbolic(n, "a"), UnramifiedRep.symbolic(m, "b")
            )
            yield from _coefficients("schur side times the L-factor denominator", product, 1)

        checks.append((
            f"n={n},m={m},order={cfg.order}",
            f"Cauchy identity at {n}x{m} variables through X^{cfg.order}",
            body,
        ))
    return run_checks("cauchy", checks)


def _cauchy_bound(cfg: SuiteConfig) -> None:
    check_terms("the cauchy suite's lattice series", lattice_terms(cfg.order, _CAUCHY_RANKS))


def _weyl_dimension(lam: Partition, n: int) -> Fraction:
    padded = lam.padded(n)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(padded[i] - padded[j] + j - i, j - i)
    return dim


def _pieri_add_one_box(lam: Partition, n: int) -> list[Partition]:
    out = []
    parts = list(lam.padded(min(len(lam) + 1, n)))
    for i in range(len(parts)):
        grown = parts.copy()
        grown[i] += 1
        if all(a >= b for a, b in zip(grown, grown[1:])):
            out.append(Partition(grown))
    return out


def suite_schur(cfg: SuiteConfig) -> SuiteReport:
    checks = []
    for n in range(1, 5):
        def check_oracle(n=n):
            names = [f"x{i}" for i in range(1, n + 1)]
            values = [LaurentPoly.var(v) for v in names]
            vandermonde = alternant(Partition(), names)
            lams = list(partitions_up_to(6, n))
            total = LaurentPoly.zero()
            for lam in lams:
                got = schur(lam, values)
                # the bialternant formula s_lam = a_(lam+delta) / a_delta, multiplied through
                yield f"lambda={lam}: s_lambda * a_delta", got * vandermonde, alternant(lam, names)
                terms = got.sorted_terms()
                yield _term_order(f"lambda={lam}: term order", terms)
                # the JSON layout, written out again here, so that a fault in to_json_obj shows
                yield f"lambda={lam}: JSON terms", got.to_json_obj(), [
                    {"coeff": str(c), "exps": {name: str(e) for name, e in exps}}
                    for exps, c in terms]
                total += got
            yield _all_partitions(lams, 6, n)
            # every term of every value, with 1 and terms of each degree: the
            # text form every payload prints, joined again from the terms,
            # their order, and the terms loaded back through the constructor
            # in reverse, so that no order is left to the order of insertion
            terms = total.sorted_terms()
            yield "sum of the values: text", total.to_text(), _text(terms)
            yield _term_order("sum of the values: term order", terms)
            yield ("sum of the values: terms loaded back in reverse",
                   LaurentPoly(dict(reversed(terms))).sorted_terms(), terms)

        def check_dimension(n=n):
            # s_lam(c,...,c) = c^|lam| * dim: the value 2 weighs each pattern
            lams = list(partitions_up_to(6, n))
            for lam in lams:
                for c in (1, 2):
                    yield (f"lambda={lam} at {c}", schur(lam, [c] * n).as_fraction(),
                           c ** sum(lam) * _weyl_dimension(lam, n))
            yield _all_partitions(lams, 6, n)

        checks.append((
            f"oracle/n={n}",
            f"determinant and alternant Schur routes agree at {n} variables",
            check_oracle,
        ))
        checks.append((
            f"dimension/n={n}",
            f"value at all-ones matches the dimension product formula, n={n}",
            check_dimension,
        ))
    for n in range(1, 4):
        def check_pieri(n=n):
            values = [LaurentPoly.var(f"x{i}") for i in range(1, n + 1)]
            h1 = sum(values, LaurentPoly.zero())
            lams = list(partitions_up_to(4, n))
            for lam in lams:
                rhs = LaurentPoly.zero()
                for mu in _pieri_add_one_box(lam, n):
                    rhs = rhs + schur(mu, values)
                yield f"lambda={lam}", schur(lam, values) * h1, rhs
            yield _all_partitions(lams, 4, n)

        checks.append((
            f"pieri/n={n}",
            f"multiplying by h_1 adds one box in all ways, n={n}",
            check_pieri,
        ))
    return run_checks("schur", checks)


def suite_weight_unramified(cfg: SuiteConfig) -> SuiteReport:
    checks = []
    for n, order in ((2, 6), (3, 5), (4, 4)):
        def body(n=n, order=order):
            big = UnramifiedRep.symbolic(n + 1, "a")
            mid = UnramifiedRep.symbolic(n, "b")
            small = UnramifiedRep.symbolic(n - 1, "g")
            result = weight_unramified(big, mid, small, order)
            yield "lattice points", result.lattice_points, _lattice_points(order, n, n - 1)
            yield "value", result.value, 1

        checks.append((
            f"ranks=({n + 1},{n},{n - 1})",
            f"unramified weight is exactly 1 at ranks ({n + 1},{n},{n - 1}), order {order}",
            body,
        ))
    return run_checks("weight-unramified", checks)


# the middle ranks of the weight-l checks at cfg.order; the rest run at orders 6 and 8
_WEIGHT_L_LEVEL0_RANKS = (2, 3)


def suite_weight_l(cfg: SuiteConfig) -> SuiteReport:
    def reps(n):
        return UnramifiedRep.symbolic(n, "b"), UnramifiedRep.symbolic(n - 1, "g")

    # the rationality and published-route checks share one order-8 weight per (n, m)
    @cache
    def weight_order8(n, m):
        return weight_at_l(*reps(n), m, "Y", 8)

    checks = []
    for n in _WEIGHT_L_LEVEL0_RANKS:
        def check_m0(n=n):
            yield from _coefficients("weight", weight_at_l(*reps(n), 0, "Y", cfg.order).value, 1)

        checks.append((
            f"level0/n={n}",
            f"level-0 weight is exactly 1 at rank {n}",
            check_m0,
        ))

    def check_closed_form_m1():
        result = weight_at_l(*reps(2), 1, "Y", 6)
        b1, b2, g1 = (LaurentPoly.var(v) for v in ("b1", "b2", "g1"))
        yield from _coefficients("weight", result.value, 0, (b1 + b2) * g1, -(b1 * b2) * g1 ** 2)

    checks.append((
        "closed-form/n=2,m=1",
        "rank-2 level-1 weight matches its two-term closed form",
        check_closed_form_m1,
    ))

    for n, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
        def check_rationality(n=n, m=m):
            coeffs = weight_order8(n, m).value.coeffs
            for k in range(n * m + 1, 9):
                yield f"Y^{k}", coeffs[k], 0

        def check_published_route(n=n, m=m):
            yield "constant ratio", weight_order8(n, m).paper_comparison.ratio, qpow(m)

        checks.append((
            f"rationality/n={n},m={m}",
            f"weight series vanishes beyond degree {n * m} at rank {n}, level {m}",
            check_rationality,
        ))
        checks.append((
            f"published-route/n={n},m={m}",
            "regrouped published-constant route differs by exactly the constant ratio",
            check_published_route,
        ))
    return run_checks("weight-l", checks)


def _weight_l_bound(cfg: SuiteConfig) -> None:
    check_terms("the weight-l suite's lattice series",
                lattice_terms(cfg.order, [(n, n - 1) for n in _WEIGHT_L_LEVEL0_RANKS]))


def suite_weight_q(cfg: SuiteConfig) -> SuiteReport:
    def check_verdicts():
        for n0 in range(5):
            for m in range(5):
                result = weight_at_q_structural(n0, m, 2, cfg.p)
                yield f"n0={n0}, m={m}: vanishes", result.vanishes, n0 > m
                # at n0 = m this is the one triple (0, m, 0)
                yield f"n0={n0}, m={m}: index set", result.index_set, tuple(
                    (a1, m - a1, j)
                    for a1 in range(m + 1)
                    for j in range(m - a1 - n0 + 1)
                )

    def check_boundary_values():
        for n in (2, 3):
            for m in range(4):
                result = weight_at_q_structural(m, m, n, cfg.p)
                index = congruence_index(n, cfg.p, m)
                yield f"n={n}, m={m}: value", result.value, Fraction(1, index)
                yield (f"n={n}, m={m}: published constant",
                       result.paper_comparison.paper_constant, Fraction(1, cfg.p ** ((n - 1) * m)))
                yield (f"n={n}, m={m}: ratio", result.paper_comparison.ratio,
                       Fraction(cfg.p ** ((n - 1) * m), index))

    def check_worked_example():
        result = weight_at_q_structural(1, 1, 2, 2)
        yield "value", result.value, Fraction(1, 3)
        yield "published constant", result.paper_comparison.paper_constant, Fraction(1, 2)
        yield "ratio", result.paper_comparison.ratio, Fraction(2, 3)

    return run_checks("weight-q", [
        ("verdicts",
         "weight vanishes exactly when the conductor exceeds the level (grid to 4)",
         check_verdicts),
        ("boundary-values",
         "boundary weight is 1/[K:K_0(m)], compared against the published constant",
         check_boundary_values),
        ("worked-example",
         "conductor=level=1, rank 2, p=2: exact 1/3 against published 1/2, ratio 2/3",
         check_worked_example),
    ])


def suite_index(cfg: SuiteConfig) -> SuiteReport:
    checks = []
    for n in (2, 3):
        for p in (2, 3):
            for m in (0, 1, 2):
                # the case list is pinned by the golden report
                if (n, p, m) == (3, 3, 2):
                    continue

                def body(n=n, p=p, m=m):
                    yield ("closed form vs brute force", congruence_index(n, p, m),
                           congruence_index_bruteforce(n, p, m))

                checks.append((
                    f"n={n},p={p},m={m}",
                    f"closed-form index equals the brute-force count at n={n}, p={p}, m={m}",
                    body,
                ))
    return run_checks("index", checks)


def suite_charsum(cfg: SuiteConfig) -> SuiteReport:
    checks = []
    for p in (2, 3, 5):
        for m in (0, 1, 2):
            for r in (1, 2, 3):
                def body(p=p, m=m, r=r):
                    for vals in product(range(4), repeat=r):
                        at = f"vals={vals}: "
                        exact = character_sum(p, m, vals)
                        oracle = character_sum_cyclotomic(p, m, vals)
                        # the root-of-unity sum is rational: its other coordinates are 0
                        yield f"{at}cyclotomic past 1", oracle[1:], (0,) * (len(oracle) - 1)
                        yield f"{at}exact vs cyclotomic", exact, oracle[0]
                        yield (f"{at}symbolic at q={p} vs exact",
                               character_sum("q", m, vals).substitute("q", p), exact)

                checks.append((
                    f"p={p},m={m},r={r}",
                    f"orthogonality value matches the root-of-unity sum, p={p}, m={m}, {r} coordinates",
                    body,
                ))
    return run_checks("charsum", checks)


def suite_contragredient(cfg: SuiteConfig) -> SuiteReport:
    rng = random.Random(cfg.seed)
    checks = []
    for rank in (2, 3, 4):
        samples = [
            tuple(sorted((rng.randint(-4, 4) for _ in range(rank)), reverse=True))
            for _ in range(20)
        ]

        def body(rank=rank, samples=samples):
            rep = UnramifiedRep.symbolic(rank)
            dual = contragredient(rep)
            for mu in samples:
                via_matrix = contragredient_value(rep, mu)
                via_dual = spherical_value(dual, mu)
                yield f"mu={mu}: matrix path vs dual path", via_matrix, via_dual
                yield _term_order(f"mu={mu}: term order", via_dual.sorted_terms())
                if mu[0] != mu[-1]:
                    # off the dominant cone
                    yield f"mu={mu[::-1]}", spherical_value(rep, mu[::-1]), 0

        checks.append((
            f"rank={rank}",
            f"dual-model and contragredient Whittaker values agree, rank {rank}, 20 points",
            body,
        ))
    return run_checks("contragredient", checks)


def suite_negative_control(cfg: SuiteConfig) -> SuiteReport:
    """A deliberately failing battery, kept so the failure path stays honest."""

    def perturbed(pair):
        image = dual_params(pair)
        return ParamPair(image.s + Fraction(1, 7), image.w, pair.n)

    return run_checks("negative-control", _involution_checks(2, perturbed))


# the suites of "all", in the order the processes of verify take them; the order
# changes no output, since merge_reports sorts the checks by id.  By the
# summed check millis of ``verify --suite all --timings --jobs 1``,
# contragredient, schur and weight-unramified cost most, then weight-l,
# unramified, charsum and cauchy a quarter to a third as much each, and
# the rest next to nothing, so the costly suites lead.  Taking
# contragredient first did not make ``verify --suite all --jobs 2``
# faster: its median was higher in each of 4 sets of 12 to 20 alternating
# pairs, and it was faster in 25 of 72 pairs, so the first four keep this
# order.
SUITES = {
    "weight-unramified": suite_weight_unramified,
    "contragredient": suite_contragredient,
    "weight-l": suite_weight_l,
    "schur": suite_schur,
    "cauchy": suite_cauchy,
    "unramified": suite_unramified,
    "charsum": suite_charsum,
    "involution": suite_involution,
    "weyl": suite_weyl,
    "cusp": suite_cusp,
    "weight-q": suite_weight_q,
    "index": suite_index,
}

# negative-control is selectable but intentionally not part of "all"
HIDDEN_SUITES = {"negative-control": suite_negative_control}

# the suites whose work grows with cfg.order or cfg.n_max, each with the
# bound that refuses it; the other suites fix or cap their ranks and orders
WORK_BOUNDS = {
    "involution": _involution_bound,
    "unramified": _unramified_bound,
    "cauchy": _cauchy_bound,
    "weight-l": _weight_l_bound,
}


def _run_share(queue: int, suites: list, cfg: SuiteConfig, cpus: list[int]) -> list[SuiteReport]:
    """Pin to cpus, if any; run the suite of each index read from queue until it is empty."""
    if cpus:
        os.sched_setaffinity(0, cpus)
    return [suites[index[0]](cfg) for index in iter(lambda: os.read(queue, 1), b"")]


def _run_forked(suites: list, cfg: SuiteConfig, jobs: int | None) -> list[SuiteReport]:
    """Run the suites in this process and in forked children, one process per CPU at most.

    The processes number min(jobs or CPUs, CPUs, suites), counting this one,
    where CPUs is the number this process may use: one per allowed CPU by
    default, and jobs can only lower it.  With one process nothing forks, and
    this process runs every suite in order.  The suite indices wait in one
    pipe, a byte each, and every process runs the suite of each index it
    reads until the pipe is empty, so a process that ends a cheap suite takes
    the next.  A child pickles its reports, or the exception that escaped a
    suite, into a pipe of its own and ends with os._exit; a blocking pipe
    write returns only once all of it is written, unless a signal with a
    handler (^C) comes first.  Fork is kept over spawn because forked
    children share the parent's pages (spawned workers measured a higher
    peak RSS than the serial run), and it is safe because verify starts no
    thread.  An exception re-raised from a child carries the parent's
    traceback, not the child's.

    An OSError from the pipe or the fork of a child starts no more
    children; the processes already running drain the queue, so the report
    is the same as with one process.

    Left alone, the scheduler of a two-CPU virtual machine was seen to keep
    both processes on one CPU for their whole run in most runs, and more
    processes than CPUs measured slower, so child k is pinned to every
    workers-th allowed CPU from the k-th, this process to the allowed CPUs
    that no started child holds (all of them when no fork succeeded), and it
    gets all of them back afterwards.  Without the affinity call (not Linux)
    CPUs is os.cpu_count() and nothing is pinned.  Every child is killed and
    reaped before this returns or raises: once its report is read, a child is
    past its last statement, so the kill only ends one that still runs
    because this process raised.
    """
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    cpus = len(allowed) or os.cpu_count() or 1
    workers = min(jobs or cpus, cpus, len(suites))
    if workers > 1:
        # only forked children need these; one process runs everything here
        import pickle
        import signal

    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(suites))))
    os.close(feed)
    pipes, pids = [], []  # the read end of each report pipe, and the child that writes it
    try:
        for k in range(1, workers):
            # an OSError from the pipe or the fork starts no more children
            try:
                out, into = os.pipe()
                pipes.append(open(out, "rb"))
                try:
                    if (pid := os.fork()) == 0:
                        # the child never returns into the caller, nor runs a finally
                        try:
                            os.write(into, pickle.dumps(
                                _run_share(queue, suites, cfg, allowed[k::workers])))
                        except Exception as exc:
                            os.write(into, pickle.dumps(exc))
                        finally:
                            os._exit(0)
                finally:
                    os.close(into)
            except OSError:
                break
            pids.append(pid)
        # child k holds allowed[k::workers]; this process takes the CPUs no started child holds
        mine = [c for i, c in enumerate(allowed) if not 0 < i % workers <= len(pids)]
        reports = _run_share(queue, suites, cfg, mine)
        for pid, pipe in zip(pids, pipes):
            got = pipe.read()
            got = pickle.loads(got) if got else ArithmeticError(f"worker {pid} sent no report")
            if isinstance(got, Exception):
                raise got
            reports += got
        return reports
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)
        os.close(queue)
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run(suite: str, jobs: int | None, n_max: int, order: int, p: int, seed: int) -> SuiteReport:
    """The report of one suite, or of every suite of SUITES merged under "all".

    Every input is refused with a ValueError before any suite runs: jobs,
    then the SuiteConfig, then the suite name, then each bound of WORK_BOUNDS
    that the run would meet.  The suites run in min(jobs or CPUs, CPUs, their
    number) processes, one pinned per allowed CPU when jobs is None, so one
    suite, jobs = 1 or one allowed CPU forks nothing.
    """
    if jobs is not None and jobs < 1:
        raise ValueError("--jobs must be positive")
    cfg = SuiteConfig(n_max=n_max, order=order, p=p, seed=seed)
    runnable = {**SUITES, **HIDDEN_SUITES}
    if suite != "all" and suite not in runnable:
        known = ", ".join([*runnable, "all"])
        raise ValueError(f"unknown suite {suite!r}; known suites: {known}")
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name in WORK_BOUNDS:
            WORK_BOUNDS[name](cfg)
    reports = _run_forked([runnable[name] for name in names], cfg, jobs)
    return merge_reports("all", reports) if suite == "all" else reports[0]
