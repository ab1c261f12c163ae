"""Named verification suites behind the command line ``verify`` command.

Each suite returns a SuiteReport.  Suites are deterministic for a fixed
configuration: randomized checks draw from a seeded generator, and check
ids are stable strings, so repeated runs emit identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import reciprocity, symfunc, zeta
from .exactalg import LaurentPoly, RationalFunction, qpow
from .localrep import (
    ENUMERATION_LIMIT,
    UnramifiedRep,
    character_sum,
    character_sum_numeric,
    congruence_index,
    congruence_index_bruteforce,
    contragredient,
    require_prime_power,
)
from .report import CheckResult, SuiteReport, run_check
from .symfunc import Partition, partitions_up_to, schur, schur_bialternant_oracle
from .whittaker import TorusCocharacter, contragredient_value, spherical_value


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by the suites; defaults match the standard battery."""

    n_max: int = 10
    order: int = 6
    p: int = 2
    seed: int = 0

    def __post_init__(self):
        # weight-q feeds p to the congruence index, which needs a prime power
        require_prime_power(self.p)


def _fold(report: SuiteReport, check_id: str, description: str, sub: SuiteReport) -> None:
    """Collapse a whole sub-report into a single pass/fail check.

    The folded check's time is the sum of its sub-checks' times.
    """
    fails = sub.failures()
    witness = None
    if fails:
        first = fails[0]
        witness = f"{first.id}: {first.witness}"
    millis = sum(c.millis for c in sub.checks)
    report.add(CheckResult(check_id, description, sub.status, witness, millis))


def _concat(name: str, reports: list[SuiteReport]) -> SuiteReport:
    """Join reports whose check ids are already distinct, keeping run order."""
    out = SuiteReport(name)
    for rep in reports:
        for c in rep.checks:
            out.add(c)
    return out


def suite_involution(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("involution")
    for n in range(2, cfg.n_max + 1):
        sub = reciprocity.verify_involution_and_exponents(n)
        _fold(report, f"n={n:02d}", f"parameter transform identities at n={n}", sub)
    return report


def suite_weyl(cfg: SuiteConfig) -> SuiteReport:
    return _concat(
        "weyl",
        [reciprocity.weyl_conjugation_identity(n) for n in range(2, min(cfg.n_max, 6) + 1)],
    )


def suite_cusp(cfg: SuiteConfig) -> SuiteReport:
    return _concat(
        "cusp",
        [reciprocity.cusp_invariance_factorization(n) for n in range(2, min(cfg.n_max, 4) + 1)],
    )


def suite_unramified(cfg: SuiteConfig) -> SuiteReport:
    cases = [(1, cfg.order), (2, cfg.order), (3, min(cfg.order, 5))]
    return _concat(
        "unramified",
        [zeta.verify_unramified_identity(n, order) for n, order in cases],
    )


def suite_cauchy(cfg: SuiteConfig) -> SuiteReport:
    return _concat(
        "cauchy",
        [symfunc.cauchy_check(n, m, cfg.order) for n in (1, 2, 3) for m in (1, 2, 3)],
    )


def _weyl_dimension(lam: Partition, n: int) -> Fraction:
    padded = lam.padded(n)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(padded[i] - padded[j] + j - i, j - i)
    return dim


def _pieri_add_one_box(lam: Partition, n: int) -> list[Partition]:
    out = []
    parts = list(lam.padded(min(lam.length + 1, n)))
    for i in range(len(parts)):
        grown = parts.copy()
        grown[i] += 1
        if all(a >= b for a, b in zip(grown, grown[1:])):
            out.append(Partition(grown))
    return out


def suite_schur(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("schur")
    for n in range(1, 5):
        names = [f"x{i}" for i in range(1, n + 1)]
        values = [LaurentPoly.var(v) for v in names]

        def check_oracle(n=n, names=names, values=values):
            for lam in partitions_up_to(6, n):
                got = schur(lam, values)
                bi = schur_bialternant_oracle(lam, names)
                if got != bi:
                    return False, f"lambda={lam}: {got.to_text()} != {bi.to_text()}"
            return True, None

        def check_dimension(n=n, values=values):
            ones = [LaurentPoly.one()] * n
            for lam in partitions_up_to(6, n):
                got = schur(lam, ones).as_fraction()
                want = _weyl_dimension(lam, n)
                if got != want:
                    return False, f"lambda={lam}: {got} != {want}"
            return True, None

        report.add(run_check(
            f"oracle/n={n}",
            f"determinant and alternant Schur routes agree at {n} variables",
            check_oracle,
        ))
        report.add(run_check(
            f"dimension/n={n}",
            f"value at all-ones matches the dimension product formula, n={n}",
            check_dimension,
        ))
    for n in range(1, 4):
        values = [LaurentPoly.var(f"x{i}") for i in range(1, n + 1)]

        def check_pieri(n=n, values=values):
            h1 = symfunc.complete_homogeneous(1, values)
            for lam in partitions_up_to(4, n):
                lhs = schur(lam, values) * h1
                rhs = LaurentPoly.zero()
                for mu in _pieri_add_one_box(lam, n):
                    rhs = rhs + schur(mu, values)
                if lhs != rhs:
                    return False, f"lambda={lam}: {lhs.to_text()} != {rhs.to_text()}"
            return True, None

        report.add(run_check(
            f"pieri/n={n}",
            f"multiplying by h_1 adds one box in all ways, n={n}",
            check_pieri,
        ))
    return report


def suite_weight_unramified(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("weight-unramified")
    cases = [(2, 6), (3, 5), (4, 4)]
    for n, order in cases:
        def body(n=n, order=order):
            big = UnramifiedRep.symbolic(n + 1, "a")
            mid = UnramifiedRep.symbolic(n, "b")
            small = UnramifiedRep.symbolic(n - 1, "g")
            result = zeta.weight_unramified(big, mid, small, order=order)
            ok = result.value == LaurentPoly.one()
            return ok, f"value {result.value}"

        report.add(run_check(
            f"ranks=({n + 1},{n},{n - 1})",
            f"unramified weight is exactly 1 at ranks ({n + 1},{n},{n - 1}), order {order}",
            body,
        ))
    return report


def suite_weight_l(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("weight-l")

    def reps(n):
        return UnramifiedRep.symbolic(n, "b"), UnramifiedRep.symbolic(n - 1, "g")

    for n in (2, 3):
        def check_m0(n=n):
            mid, small = reps(n)
            result = zeta.weight_at_l(mid, small, 0, order=cfg.order)
            return result.value.is_one(), f"value {result.value.to_text()}"

        report.add(run_check(
            f"level0/n={n}",
            f"level-0 weight is exactly 1 at rank {n}",
            check_m0,
        ))

    def check_closed_form_m1():
        mid, small = reps(2)
        result = zeta.weight_at_l(mid, small, 1, order=6)
        b1, b2, g1 = (LaurentPoly.var(v) for v in ("b1", "b2", "g1"))
        want = [LaurentPoly.zero(), (b1 + b2) * g1, -(b1 * b2) * g1 ** 2]
        got = list(result.value.coeffs)
        ok = got[:3] == want and all(c.is_zero() for c in got[3:])
        return ok, result.value.to_text()

    report.add(run_check(
        "closed-form/n=2,m=1",
        "rank-2 level-1 weight matches its two-term closed form",
        check_closed_form_m1,
    ))

    # the rationality and published-route checks share one order-8 weight per
    # (n, m); a call that raises stores nothing, so both checks report the error
    order8: dict[tuple[int, int], zeta.WeightResult] = {}

    def weight_order8(n, m):
        result = order8.get((n, m))
        if result is None:
            mid, small = reps(n)
            result = order8[n, m] = zeta.weight_at_l(mid, small, m, order=8)
        return result

    for n, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
        def check_rationality(n=n, m=m):
            result = weight_order8(n, m)
            for k in range(n * m + 1, 9):
                if not result.value.coeffs[k].is_zero():
                    return False, f"Y^{k} coefficient {result.value.coeffs[k].to_text()}"
            return True, None

        def check_published_route(n=n, m=m):
            result = weight_order8(n, m)
            ratio = result.paper_comparison.ratio
            want = RationalFunction(qpow(m), 1)
            if ratio != want:
                return False, f"constant ratio {ratio} != q^{m}"
            rescaled = result.value * result.paper_comparison.paper_constant
            agree = all(
                rescaled.coeffs[k] == result.paper_value.coeffs[k]
                for k in range(rescaled.order + 1)
            )
            return agree, "published route disagrees beyond its constant"

        report.add(run_check(
            f"rationality/n={n},m={m}",
            f"weight series vanishes beyond degree {n * m} at rank {n}, level {m}",
            check_rationality,
        ))
        report.add(run_check(
            f"published-route/n={n},m={m}",
            "regrouped published-constant route differs by exactly the constant ratio",
            check_published_route,
        ))
    return report


def suite_weight_q(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("weight-q")

    def check_verdicts():
        for n0 in range(5):
            for m in range(5):
                result = zeta.weight_at_q_structural(n0, m, 2, cfg.p)
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

    report.add(run_check(
        "verdicts",
        "weight vanishes exactly when the conductor exceeds the level (grid to 4)",
        check_verdicts,
    ))

    def check_boundary_values():
        for n in (2, 3):
            for m in range(4):
                result = zeta.weight_at_q_structural(m, m, n, cfg.p)
                want = LaurentPoly.const(Fraction(1, congruence_index(n, cfg.p, m)))
                if result.value != want:
                    return False, f"n={n}, m={m}: {result.value} != {want}"
                published = Fraction(1, cfg.p ** ((n - 1) * m))
                if result.paper_comparison.paper_constant != LaurentPoly.const(published):
                    return False, f"n={n}, m={m}: published constant mismatch"
                want_ratio = RationalFunction(
                    LaurentPoly.const(Fraction(cfg.p ** ((n - 1) * m), congruence_index(n, cfg.p, m)))
                )
                if result.paper_comparison.ratio != want_ratio:
                    return False, f"n={n}, m={m}: ratio {result.paper_comparison.ratio}"
        return True, None

    report.add(run_check(
        "boundary-values",
        "boundary weight is 1/[K:K_0(m)], compared against the published constant",
        check_boundary_values,
    ))

    def check_worked_example():
        result = zeta.weight_at_q_structural(1, 1, 2, 2)
        ok = (
            result.value == LaurentPoly.const(Fraction(1, 3))
            and result.paper_comparison.paper_constant == LaurentPoly.const(Fraction(1, 2))
            and result.paper_comparison.ratio == RationalFunction(LaurentPoly.const(Fraction(2, 3)))
        )
        return ok, f"value {result.value}, comparison {result.paper_comparison}"

    report.add(run_check(
        "worked-example",
        "conductor=level=1, rank 2, p=2: exact 1/3 against published 1/2, ratio 2/3",
        check_worked_example,
    ))
    return report


def suite_index(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("index")
    for n in (2, 3):
        for p in (2, 3):
            for m in (0, 1, 2):
                if p ** (m * n * n) > ENUMERATION_LIMIT:
                    continue

                def body(n=n, p=p, m=m):
                    closed = congruence_index(n, p, m)
                    brute = congruence_index_bruteforce(n, p, m)
                    return closed == brute, f"closed {closed} != brute {brute}"

                report.add(run_check(
                    f"n={n},p={p},m={m}",
                    f"closed-form index equals the brute-force count at n={n}, p={p}, m={m}",
                    body,
                ))
    return report


def suite_charsum(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("charsum")
    for p in (2, 3, 5):
        for m in (0, 1, 2):
            for r in (1, 2, 3):
                def body(p=p, m=m, r=r):
                    for vals in product(range(4), repeat=r):
                        exact = complex(int(character_sum(p, m, vals).constant_coefficient()))
                        numeric = character_sum_numeric(p, m, vals)
                        if abs(exact - numeric) > 1e-9:
                            return False, f"vals={vals}: exact {exact} vs numeric {numeric}"
                    return True, None

                report.add(run_check(
                    f"p={p},m={m},r={r}",
                    f"orthogonality value matches the root-of-unity sum, p={p}, m={m}, {r} coordinates",
                    body,
                ))
    return report


def suite_contragredient(cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport("contragredient")
    rng = random.Random(cfg.seed)
    for rank in (2, 3, 4):
        rep = UnramifiedRep.symbolic(rank)
        dual = contragredient(rep)
        samples = []
        for _ in range(20):
            exps = sorted((rng.randint(-4, 4) for _ in range(rank)), reverse=True)
            samples.append(TorusCocharacter(exps))

        def body(rep=rep, dual=dual, samples=samples):
            for mu in samples:
                via_matrix = contragredient_value(rep, mu)
                via_dual = spherical_value(dual, mu)
                if via_matrix != via_dual:
                    return False, (
                        f"mu={mu}: matrix path {via_matrix.to_text()} != "
                        f"dual path {via_dual.to_text()}"
                    )
            return True, None

        report.add(run_check(
            f"rank={rank}",
            f"dual-model and contragredient Whittaker values agree, rank {rank}, 20 points",
            body,
        ))
    return report


def suite_negative_control(cfg: SuiteConfig) -> SuiteReport:
    """A deliberately failing battery, kept so the failure path stays honest."""

    def perturbed(pair):
        image = reciprocity.dual_params(pair)
        return reciprocity.ParamPair(image.s + Fraction(1, 7), image.w, pair.n)

    sub = reciprocity.verify_involution_and_exponents(2, dual=perturbed)
    report = SuiteReport("negative-control")
    for c in sub.checks:
        report.add(c)
    return report


SUITES = {
    "involution": suite_involution,
    "weyl": suite_weyl,
    "cusp": suite_cusp,
    "unramified": suite_unramified,
    "cauchy": suite_cauchy,
    "schur": suite_schur,
    "weight-unramified": suite_weight_unramified,
    "weight-l": suite_weight_l,
    "weight-q": suite_weight_q,
    "index": suite_index,
    "charsum": suite_charsum,
    "contragredient": suite_contragredient,
}

# negative-control is selectable but intentionally not part of "all"
HIDDEN_SUITES = {"negative-control": suite_negative_control}

ALL_SUITE_NAMES = tuple(SUITES)
