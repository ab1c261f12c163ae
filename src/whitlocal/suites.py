"""Named verification suites behind the command line ``verify`` command.

This module is the only place that declares checks.  A check is an
``(id, description, body)`` entry: the body takes no arguments and returns
``(ok, witness)``.  Each suite builds its list of entries and hands it to
``report.run_checks``, which runs them in order.

Building an entry does no arithmetic.  Every polynomial or matrix
operation runs inside a body, so its time lands in that check's
``millis`` and its exception in that check's status.  A value that several
bodies share comes from ``functools.cache`` on a small function defined
inside the suite call; a call that raises stores nothing, so every body
that needs the value reports the error.

Suites are deterministic for a fixed configuration: randomized checks draw
from a seeded generator, and check ids are stable strings, so repeated
runs emit identical reports.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import product

from .exactalg import LaurentPoly, qpow
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
from .report import Body, Check, SuiteReport, run_checks
from .symfunc import (
    Partition,
    cauchy_schur_side,
    partitions_up_to,
    schur,
    schur_bialternant_oracle,
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

    Its witness is ``"{id}: {witness}"`` of the first entry that fails.  An
    exception propagates, so the folded check reports ``error``.
    """

    def body():
        for check_id, _, fn in checks:
            ok, witness = fn()
            if not ok:
                return False, f"{check_id}: {witness}"
        return True, None

    return body


def _times_denominator(name: str, product) -> tuple[bool, str | None]:
    """Whether a series in X times an L-factor denominator, the product, is 1.

    The witness names the first coefficient of the product that is not 1
    (at X^0) or 0 (beyond).
    """
    for k, c in enumerate(product.coeffs):
        if c != (1 if k == 0 else 0):
            return False, f"X^{k}: {name} times the L-factor denominator gives {c.to_text()}"
    return True, None


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


def _all_partitions(lams: list[Partition], weight: int, n: int) -> tuple[bool, str | None]:
    """Pass when lams are as many as the partitions _lattice_points counts."""
    want = _lattice_points(weight, n)
    return len(lams) == want, f"checked {len(lams)} partitions, expected {want}"


def _out_of_order(*polys) -> str | None:
    """A witness when some polynomial's terms are not in canonical order.

    The monomials of sorted_terms() must strictly increase under plain
    tuple comparison of their (name, exponent) pairs, an order that does not
    rest on the packed sort key of exactalg._ordered.
    """
    for p in polys:
        monomials = [exps for exps, _ in p.sorted_terms()]
        for a, b in zip(monomials, monomials[1:]):
            if not a < b:
                return f"terms out of order in {p.to_text()}: {a} before {b}"
    return None


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
        lhs = n * (im.s - half)
        rhs = n * (half - s) + (n - 1) * (s + w - 1)
        return lhs == rhs, f"{lhs.to_text()} != {rhs.to_text()}"

    def exponent_sum():
        s, w, im = image()
        lhs = im.s + im.w - 1
        rhs = s + w - 1
        return lhs == rhs, f"{lhs.to_text()} != {rhs.to_text()}"

    def involution():
        s, w, im = image()
        twice = dual(im)
        if twice.s != s or twice.w != w:
            return False, f"double image is {twice}"
        witness = _out_of_order(im.s, im.w)
        return witness is None, witness

    def fixed_point():
        fp = dual(ParamPair(half, half, n))
        ok = fp.s == LaurentPoly.const(half) and fp.w == LaurentPoly.const(half)
        return ok, f"image of (1/2, 1/2) is {fp}"

    def rank2_form():
        s, w, im = image()
        return im.s == (1 + w - s) / 2 and im.w == (3 * s + w - 1) / 2, f"got {im}"

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
        got = w * column_unipotent(size, n, names) * w
        want = column_unipotent(size, n + 1, names)
        return got == want, f"{got} != {want}"

    def square():
        w = swap_last_two(size)
        got = w * w
        return got == SymbolicMatrix.identity(size), f"{got}"

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
    # checked entrywise, with the two intermediate regroupings and u = 1.
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
        want = central * SymbolicMatrix.block_diag(h, 1, u_inv)
        return lhs == want, f"{lhs} != {want}"

    def swap_conjugation():
        h, u_inv, _, _, w = parts()
        got = w * SymbolicMatrix.block_diag(h, u_inv, 1) * w
        return SymbolicMatrix.block_diag(h, 1, u_inv) == got, f"{got}"

    def full_factorization():
        lhs = parts()[2]
        return lhs == rhs(), f"{lhs} != {rhs()}"

    def unit_specialization():
        h, _, lhs, _, _ = parts()
        lhs1 = lhs.substitute("u", LaurentPoly.one())
        rhs1 = rhs().substitute("u", LaurentPoly.one())
        plain = SymbolicMatrix.block_diag(h, 1, 1)
        return lhs1 == plain and rhs1 == plain, f"u=1 gives {lhs1} and {rhs1}"

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
            if result.lattice_points != (want := _lattice_points(order, n)):
                return False, f"{result.lattice_points} lattice points, expected {want}"
            product = times_l_denominator(result.series, rep_a, rep_b)
            return _times_denominator("lattice sum", product)

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
    # sum_lam s_lam(a) s_lam(b) X^|lam| times prod_(i,j) (1 - a_i b_j X) is 1
    checks = []
    for n, m in _CAUCHY_RANKS:
        def body(n=n, m=m):
            series = cauchy_schur_side(n, m, "X", cfg.order)
            product = times_l_denominator(
                series, UnramifiedRep.symbolic(n, "a"), UnramifiedRep.symbolic(m, "b")
            )
            return _times_denominator("schur side", product)

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
            lams = list(partitions_up_to(6, n))
            for lam in lams:
                got = schur(lam, values)
                bi = schur_bialternant_oracle(lam, names)
                if got != bi:
                    return False, f"lambda={lam}: {got.to_text()} != {bi.to_text()}"
                if witness := _out_of_order(got):
                    return False, f"lambda={lam}: {witness}"
            return _all_partitions(lams, 6, n)

        def check_dimension(n=n):
            # s_lam(c,...,c) = c^|lam| * dim: the value 2 weighs each pattern
            lams = list(partitions_up_to(6, n))
            for lam in lams:
                for c in (1, 2):
                    got = schur(lam, [c] * n).as_fraction()
                    want = c ** sum(lam) * _weyl_dimension(lam, n)
                    if got != want:
                        return False, f"lambda={lam} at {c}: {got} != {want}"
            return _all_partitions(lams, 6, n)

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
                lhs = schur(lam, values) * h1
                rhs = LaurentPoly.zero()
                for mu in _pieri_add_one_box(lam, n):
                    rhs = rhs + schur(mu, values)
                if lhs != rhs:
                    return False, f"lambda={lam}: {lhs.to_text()} != {rhs.to_text()}"
            return _all_partitions(lams, 4, n)

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
            if result.lattice_points != (want := _lattice_points(order, n, n - 1)):
                return False, f"{result.lattice_points} lattice points, expected {want}"
            ok = result.value == LaurentPoly.one()
            return ok, f"value {result.value}"

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
            result = weight_at_l(*reps(n), 0, "Y", cfg.order)
            return result.value.is_one(), f"value {result.value.to_text()}"

        checks.append((
            f"level0/n={n}",
            f"level-0 weight is exactly 1 at rank {n}",
            check_m0,
        ))

    def check_closed_form_m1():
        result = weight_at_l(*reps(2), 1, "Y", 6)
        b1, b2, g1 = (LaurentPoly.var(v) for v in ("b1", "b2", "g1"))
        want = [LaurentPoly.zero(), (b1 + b2) * g1, -(b1 * b2) * g1 ** 2]
        got = list(result.value.coeffs)
        ok = got[:3] == want and all(c.is_zero() for c in got[3:])
        return ok, result.value.to_text()

    checks.append((
        "closed-form/n=2,m=1",
        "rank-2 level-1 weight matches its two-term closed form",
        check_closed_form_m1,
    ))

    for n, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
        def check_rationality(n=n, m=m):
            result = weight_order8(n, m)
            for k in range(n * m + 1, 9):
                if not result.value.coeffs[k].is_zero():
                    return False, f"Y^{k} coefficient {result.value.coeffs[k].to_text()}"
            return True, None

        def check_published_route(n=n, m=m):
            ratio = weight_order8(n, m).paper_comparison.ratio
            return ratio == qpow(m), f"constant ratio {ratio} != q^{m}"

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
                if result.vanishes != (n0 > m):
                    return False, f"n0={n0}, m={m}: vanishes={result.vanishes}"
                if n0 == m and len(result.index_set) != 1:
                    return False, f"n0=m={m}: index set {result.index_set}"
                if result.index_set != tuple(
                    (a1, m - a1, j)
                    for a1 in range(m + 1)
                    for j in range(m - a1 - n0 + 1)
                ):
                    return False, f"n0={n0}, m={m}: index set {result.index_set}"
        return True, None

    def check_boundary_values():
        for n in (2, 3):
            for m in range(4):
                result = weight_at_q_structural(m, m, n, cfg.p)
                want = LaurentPoly.const(Fraction(1, congruence_index(n, cfg.p, m)))
                if result.value != want:
                    return False, f"n={n}, m={m}: {result.value} != {want}"
                published = Fraction(1, cfg.p ** ((n - 1) * m))
                if result.paper_comparison.paper_constant != LaurentPoly.const(published):
                    return False, f"n={n}, m={m}: published constant mismatch"
                want_ratio = Fraction(cfg.p ** ((n - 1) * m), congruence_index(n, cfg.p, m))
                if result.paper_comparison.ratio != want_ratio:
                    return False, f"n={n}, m={m}: ratio {result.paper_comparison.ratio}"
        return True, None

    def check_worked_example():
        result = weight_at_q_structural(1, 1, 2, 2)
        ok = (
            result.value == LaurentPoly.const(Fraction(1, 3))
            and result.paper_comparison.paper_constant == LaurentPoly.const(Fraction(1, 2))
            and result.paper_comparison.ratio == Fraction(2, 3)
        )
        return ok, f"value {result.value}, comparison {result.paper_comparison}"

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
                    closed = congruence_index(n, p, m)
                    brute = congruence_index_bruteforce(n, p, m)
                    return closed == brute, f"closed {closed} != brute {brute}"

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
                        exact = character_sum(p, m, vals)
                        oracle = character_sum_cyclotomic(p, m, vals)
                        if any(oracle[1:]) or exact != LaurentPoly.const(oracle[0]):
                            return False, (
                                f"vals={vals}: exact {exact.to_text()} vs cyclotomic {list(oracle)}"
                            )
                        at_p = character_sum("q", m, vals).substitute("q", p)
                        if at_p != exact:
                            return False, (
                                f"vals={vals}: exact {exact.to_text()} vs symbolic at q={p} "
                                f"{at_p.to_text()}"
                            )
                    return True, None

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
                if via_matrix != via_dual:
                    return False, (
                        f"mu={mu}: matrix path {via_matrix.to_text()} != "
                        f"dual path {via_dual.to_text()}"
                    )
                if witness := _out_of_order(via_dual):
                    return False, f"mu={mu}: {witness}"
                if mu[0] != mu[-1] and not spherical_value(rep, mu[::-1]).is_zero():
                    return False, f"mu={mu[::-1]}: nonzero off the dominant cone"
            return True, None

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


# the suites of "all", in the order a worker pool takes them; the order
# changes no output, since merge_reports sorts the checks by id.  Summed
# check millis of ``verify --suite all --timings --jobs 1`` (seeds 1, 22 and
# 42, two runs each, medians, 2-vCPU host) put contragredient (73 ms), schur
# (62) and weight-unramified (59) first, then weight-l (21), unramified
# (20), charsum (18), cauchy (17) and the rest (at most 1), so the costly
# suites lead.  Taking contragredient first did not make ``verify --suite
# all --jobs 2`` faster: its median was higher in each of 4 sets of 12 to 20
# alternating pairs, and it was faster in 25 of 72 pairs, so the first four
# keep this order.
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

