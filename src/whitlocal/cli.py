"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite reports a failure
(the report is still emitted), 2 on invalid input, 3 when an internal
arithmetic check fails outside ``verify`` (an ``ArithmeticError`` such as a
lattice term that does not collapse: a fault in the program, not in its
input; ``verify`` reports such a check as an error and exits 1).  All output is
deterministic for a fixed command line; timings are opt-in because they
would break byte-for-byte reproducibility.  ``verify --suite all --jobs N``
runs the suites in up to N worker processes and merges their reports by
check id, so the bytes do not depend on N.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import LaurentPoly, RationalFunction, TruncatedSeries
from .localrep import (
    RankMismatch,
    UnramifiedRep,
    character_sum,
    character_sum_numeric,
    congruence_index,
    congruence_index_bruteforce,
)
from .reciprocity import ParamPair, dual_params
from .report import SuiteReport, merge_reports, report_to_csv, report_to_json, report_to_text
from .suites import HIDDEN_SUITES, SUITES, SuiteConfig
from .whittaker import TorusCocharacter, contragredient_value, spherical_value, twisted_value
from .zeta import (
    l_factor_denominator,
    local_zeta_unramified,
    weight_at_l,
    weight_at_q_structural,
    weight_unramified,
)

EMIT_CHOICES = ("json", "csv", "text")
JOBS_ENV = "WHITLOCAL_JOBS"

# full polynomial expansion of an L-factor denominator has 2^(rank product)
# terms, so the closed-form paths are capped
MAX_CLOSED_FORM_FACTORS = 16

# a Whittaker value at rank n is a Schur value s_lam with lam = mu - min(mu),
# which has at most C(|lam| + n - 1, n - 1) terms; the cap keeps the worst
# admitted value under about a second (README "Scope")
MAX_WHITTAKER_TERMS = 10_000


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, decoupled from argparse."""

    command: str
    emit: str = "json"
    n: int = 2
    rank_a: int = 2
    rank_b: int = 1
    mu: tuple[int, ...] = ()
    level: int | None = None
    cond: int = 0
    order: int = 6
    p: int | str = 2
    valuations: tuple[int, ...] = ()
    var: str = "X"
    s: str | None = None
    w: str | None = None
    place: str = "unramified"
    dual: bool = False
    bruteforce: bool = False
    suite: str = "all"
    n_max: int = 10
    seed: int = 0
    jobs: int = 1
    timings: bool = False


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _parse_p(text: str) -> int | str:
    if text in ("symbolic", "q"):
        return "q"
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"expected an integer or 'symbolic', got {text!r}") from None
    if value < 2:
        raise ValueError("the residue cardinality must be at least 2")
    return value


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _default_jobs() -> int:
    raw = os.environ.get(JOBS_ENV, "1")
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(f"{JOBS_ENV} must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV} must be positive, got {jobs}")
    return jobs


def _flatten(value, key: str = ""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{key}.{k}" if key else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{key}[{i}]")
    else:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif value is None:
            value = ""
        yield key, str(value)


def _payload_to_csv(payload: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("field", "value"))
    for key, value in _flatten(payload):
        writer.writerow((key, value))
    return buf.getvalue()


def _payload_to_text(payload: dict) -> str:
    lines = [f"{key} = {value}" for key, value in _flatten(payload)]
    return "\n".join(lines) + "\n"


def _emit_payload(payload: dict, emit: str) -> str:
    if emit == "json":
        return json.dumps(payload, indent=2) + "\n"
    if emit == "csv":
        return _payload_to_csv(payload)
    return _payload_to_text(payload)


def _emit_report(report: SuiteReport, emit: str, timings: bool) -> str:
    if emit == "json":
        return report_to_json(report, include_timings=timings) + "\n"
    if emit == "csv":
        return report_to_csv(report, include_timings=timings)
    return report_to_text(report, include_timings=timings)


def _cmd_lfactor(cfg: RunConfig) -> dict:
    if cfg.rank_a < 1 or cfg.rank_b < 1:
        raise ValueError("ranks must be positive")
    if cfg.rank_a * cfg.rank_b > MAX_CLOSED_FORM_FACTORS:
        raise ValueError(
            f"rank product {cfg.rank_a * cfg.rank_b} exceeds the closed-form cap "
            f"{MAX_CLOSED_FORM_FACTORS}; use the zeta command for a series view"
        )
    rep_a = UnramifiedRep.symbolic(cfg.rank_a, "a")
    rep_b = UnramifiedRep.symbolic(cfg.rank_b, "b")
    return {
        "ranks": [cfg.rank_a, cfg.rank_b],
        "variable": cfg.var,
        "numerator": "1",
        "denominator": l_factor_denominator(rep_a, rep_b, cfg.var).to_text(),
    }


def _cmd_whittaker(cfg: RunConfig) -> dict:
    # the point evaluated: mu, its reversed negation for --dual, (mu, 0) for --level
    point = cfg.mu + (0,) * (cfg.level is not None)
    if cfg.dual:
        point = tuple(-e for e in point)
    degree = sum(point) - len(point) * min(point)
    terms = math.comb(degree + len(point) - 1, len(point) - 1)
    if terms > MAX_WHITTAKER_TERMS:
        raise ValueError(
            f"the value may have up to {terms} terms, over the cap {MAX_WHITTAKER_TERMS}"
        )
    # building the representation takes time in n, so compare lengths first
    want = cfg.n if cfg.level is None else cfg.n - 1
    if cfg.n >= 1 and len(cfg.mu) != want:
        raise RankMismatch(f"rank {cfg.n} takes a length {want} cocharacter here, "
                           f"got length {len(cfg.mu)}")
    rep = UnramifiedRep.symbolic(cfg.n, "a")
    payload: dict = {"rank": cfg.n, "cocharacter": list(cfg.mu)}
    if cfg.level is None:
        mu = TorusCocharacter(cfg.mu)
        value = contragredient_value(rep, mu) if cfg.dual else spherical_value(rep, mu)
        payload["model"] = "contragredient" if cfg.dual else "spherical"
    else:
        if cfg.dual:
            raise ValueError("the level vector has no contragredient variant here")
        mu = TorusCocharacter(cfg.mu)
        value = twisted_value(rep, mu, cfg.level)
        payload["model"] = "twisted"
        payload["level"] = cfg.level
    payload["value"] = value.to_text()
    return payload


def _cmd_zeta(cfg: RunConfig) -> dict:
    if cfg.n < 1:
        raise ValueError("the smaller rank must be at least 1")
    if cfg.order < 0:
        raise ValueError("series order must be nonnegative")
    rep_a = UnramifiedRep.symbolic(cfg.n + 1, "a")
    rep_b = UnramifiedRep.symbolic(cfg.n, "b")
    result = local_zeta_unramified(rep_a, rep_b, var=cfg.var, order=cfg.order)
    payload = {"ranks": [cfg.n + 1, cfg.n], "order": cfg.order}
    payload.update(result.to_json_obj())
    if (cfg.n + 1) * cfg.n <= MAX_CLOSED_FORM_FACTORS:
        den = l_factor_denominator(rep_a, rep_b, cfg.var)
        payload["closedForm"] = RationalFunction(LaurentPoly.one(), den).to_json_obj()
        product = result.series * TruncatedSeries.from_poly(den, cfg.var, cfg.order)
        payload["matchesClosedForm"] = product.is_one()
    return payload


def _cmd_weight(cfg: RunConfig) -> dict:
    if cfg.order < 0:
        raise ValueError("series order must be nonnegative")
    level = 0 if cfg.level is None else cfg.level
    if cfg.place == "unramified":
        if cfg.n < 2:
            raise ValueError("the unramified weight needs the middle rank >= 2")
        big = UnramifiedRep.symbolic(cfg.n + 1, "a")
        mid = UnramifiedRep.symbolic(cfg.n, "b")
        small = UnramifiedRep.symbolic(cfg.n - 1, "g")
        result = weight_unramified(big, mid, small, order=cfg.order)
        payload = {"ranks": [cfg.n + 1, cfg.n, cfg.n - 1], "order": cfg.order}
    elif cfg.place == "l":
        mid = UnramifiedRep.symbolic(cfg.n, "b")
        small = UnramifiedRep.symbolic(cfg.n - 1, "g")
        result = weight_at_l(mid, small, level, var=cfg.var, order=cfg.order)
        payload = {"ranks": [cfg.n, cfg.n - 1], "level": level, "order": cfg.order}
    elif cfg.place == "q":
        if isinstance(cfg.p, str):
            raise ValueError("the structural weight needs a numeric residue cardinality")
        result = weight_at_q_structural(cfg.cond, level, cfg.n, cfg.p)
        payload = {"rank": cfg.n, "conductorExponent": cfg.cond, "level": level, "p": cfg.p}
    else:
        raise ValueError(f"unknown place kind {cfg.place!r}")
    payload.update(result.to_json_obj())
    return payload


def _cmd_index(cfg: RunConfig) -> dict:
    if isinstance(cfg.p, str):
        raise ValueError("the congruence index needs a numeric residue cardinality")
    level = 0 if cfg.level is None else cfg.level
    payload = {
        "rank": cfg.n,
        "p": cfg.p,
        "level": level,
        "index": congruence_index(cfg.n, cfg.p, level),
    }
    if cfg.bruteforce:
        brute = congruence_index_bruteforce(cfg.n, cfg.p, level)
        payload["bruteForce"] = brute
        payload["agree"] = brute == payload["index"]
    return payload


def _cmd_charsum(cfg: RunConfig) -> dict:
    level = 0 if cfg.level is None else cfg.level
    numeric = None
    if not isinstance(cfg.p, str):
        # first, so that its enumeration bound also bounds the exact value p^(r*m)
        numeric = character_sum_numeric(cfg.p, level, cfg.valuations)
    value = character_sum(cfg.p, level, cfg.valuations)
    payload = {
        "p": "symbolic" if isinstance(cfg.p, str) else cfg.p,
        "level": level,
        "valuations": list(cfg.valuations),
        "value": value.to_text(),
    }
    if numeric is not None:
        exact = complex(int(value.constant_coefficient()))
        payload["numericOracle"] = [numeric.real, numeric.imag]
        payload["agree"] = abs(exact - numeric) <= 1e-9
    return payload


def _cmd_params(cfg: RunConfig) -> dict:
    if cfg.s is None and cfg.w is None:
        pair = ParamPair.symbolic(cfg.n)
    elif cfg.s is None or cfg.w is None:
        raise ValueError("give both --s and --w, or neither for symbolic parameters")
    else:
        pair = ParamPair(_parse_fraction(cfg.s), _parse_fraction(cfg.w), cfg.n)
    image = dual_params(pair)
    return {
        "n": cfg.n,
        "s": pair.s.to_text(),
        "w": pair.w.to_text(),
        "sDual": image.s.to_text(),
        "wDual": image.w.to_text(),
        "isFixedPoint": image.s == pair.s and image.w == pair.w,
    }


def _run_suite(name: str, cfg: SuiteConfig) -> SuiteReport:
    """Run one listed suite; the worker entry, so it pickles by name."""
    return SUITES[name](cfg)


def _run_verify(cfg: RunConfig) -> SuiteReport:
    suite_cfg = SuiteConfig(n_max=cfg.n_max, order=cfg.order, p=int(cfg.p), seed=cfg.seed)
    if cfg.suite == "all":
        names = list(SUITES)
        if cfg.jobs == 1:
            reports = [_run_suite(name, suite_cfg) for name in names]
        else:
            # a fork-based pool starts every worker up front, so ask for no
            # more workers than suites.  Fork is kept over spawn because forked
            # workers share the parent's pages (a spawned pool measured a
            # higher peak RSS than the serial run), and no thread runs yet.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(names))) as pool:
                reports = list(pool.map(_run_suite, names, [suite_cfg] * len(names)))
        return merge_reports("all", reports)
    fn = SUITES.get(cfg.suite) or HIDDEN_SUITES.get(cfg.suite)
    if fn is None:
        known = ", ".join(list(SUITES) + list(HIDDEN_SUITES) + ["all"])
        raise ValueError(f"unknown suite {cfg.suite!r}; known suites: {known}")
    return fn(suite_cfg)


_COMMANDS = {
    "lfactor": _cmd_lfactor,
    "whittaker": _cmd_whittaker,
    "zeta": _cmd_zeta,
    "weight": _cmd_weight,
    "index": _cmd_index,
    "charsum": _cmd_charsum,
    "params": _cmd_params,
}


def run_command(cfg: RunConfig, out=None) -> int:
    """Execute one configured command, write its output, return the exit code."""
    out = sys.stdout if out is None else out
    if cfg.emit not in EMIT_CHOICES:
        raise ValueError(f"unknown emit format {cfg.emit!r}")
    if cfg.command == "verify":
        if cfg.jobs < 1:
            raise ValueError("--jobs must be positive")
        report = _run_verify(cfg)
        out.write(_emit_report(report, cfg.emit, cfg.timings))
        return 0 if report.passed else 1
    handler = _COMMANDS.get(cfg.command)
    if handler is None:
        raise ValueError(f"unknown command {cfg.command!r}")
    out.write(_emit_payload(handler(cfg), cfg.emit))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitlocal",
        description="Exact local Whittaker, zeta and weight computations, "
        "with machine-checked verification suites.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--emit", choices=EMIT_CHOICES, default="json", help="output format (default json)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lf = sub.add_parser("lfactor", parents=[common], help="local L-factor of a rank pair")
    p_lf.add_argument("--rank-a", type=int, default=2)
    p_lf.add_argument("--rank-b", type=int, default=1)
    p_lf.add_argument("--var", default="X")

    p_wh = sub.add_parser("whittaker", parents=[common], help="normalized Whittaker values")
    p_wh.add_argument("--n", type=int, required=True, help="rank")
    p_wh.add_argument("--mu", type=_parse_int_tuple, required=True,
                      help="comma-separated cocharacter exponents")
    p_wh.add_argument("--level", "-m", type=int, default=None,
                      help="evaluate the level-m vector instead of the spherical one")
    p_wh.add_argument("--dual", action="store_true",
                      help="evaluate in the contragredient model")

    p_ze = sub.add_parser("zeta", parents=[common], help="unramified local zeta series")
    p_ze.add_argument("--n", type=int, required=True, help="smaller rank; the pair is (n+1, n)")
    p_ze.add_argument("--order", "-N", type=int, default=6)
    p_ze.add_argument("--var", default="X")

    p_we = sub.add_parser("weight", parents=[common], help="local weight at one place")
    p_we.add_argument("--place", choices=("unramified", "l", "q"), default="unramified")
    p_we.add_argument("--n", type=int, required=True, help="middle rank")
    p_we.add_argument("--level", "-m", type=int, default=None)
    p_we.add_argument("--cond", type=int, default=0, help="conductor exponent (place q)")
    p_we.add_argument("--order", "-N", type=int, default=6)
    p_we.add_argument("--p", type=_parse_p, default=2, help="residue cardinality (place q)")
    p_we.add_argument("--var", default="Y")

    p_ix = sub.add_parser("index", parents=[common], help="congruence subgroup index")
    p_ix.add_argument("--n", type=int, required=True)
    p_ix.add_argument("--p", type=_parse_p, required=True)
    p_ix.add_argument("--level", "-m", type=int, default=0)
    p_ix.add_argument("--bruteforce", action="store_true",
                      help="also count the quotient directly and compare")

    p_cs = sub.add_parser("charsum", parents=[common], help="additive character sum")
    p_cs.add_argument("--p", type=_parse_p, required=True,
                      help="residue cardinality, or 'symbolic'")
    p_cs.add_argument("--level", "-m", type=int, default=1)
    p_cs.add_argument("--valuations", type=_parse_int_tuple, required=True,
                      help="comma-separated coordinate valuations")

    p_pa = sub.add_parser("params", parents=[common], help="spectral parameter transform")
    p_pa.add_argument("--n", type=int, required=True)
    p_pa.add_argument("--s", default=None, help="rational value such as 1/2 (default symbolic)")
    p_pa.add_argument("--w", default=None)

    p_vf = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_vf.add_argument("--suite", default="all",
                      help="suite name, or 'all' (default)")
    p_vf.add_argument("--n-max", type=int, default=10)
    p_vf.add_argument("--order", "-N", type=int, default=6)
    p_vf.add_argument("--p", type=int, default=2)
    p_vf.add_argument("--seed", type=int, default=0)
    p_vf.add_argument("--jobs", type=int, default=None,
                      help="worker processes for --suite all, capped at the number of "
                      f"suites; 1 runs in-process (default ${JOBS_ENV} or 1)")
    p_vf.add_argument("--timings", action="store_true",
                      help="include per-check milliseconds (not reproducible)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {"command": args.command, "emit": args.emit}
    for name in ("n", "order", "var", "s", "w", "place", "dual", "bruteforce",
                 "suite", "n_max", "seed", "timings", "cond", "p"):
        if hasattr(args, name) and getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    if hasattr(args, "rank_a"):
        fields["rank_a"] = args.rank_a
        fields["rank_b"] = args.rank_b
    if getattr(args, "mu", None) is not None:
        fields["mu"] = args.mu
    if getattr(args, "valuations", None) is not None:
        fields["valuations"] = args.valuations
    if hasattr(args, "level"):
        fields["level"] = args.level
    if hasattr(args, "jobs"):
        fields["jobs"] = args.jobs if args.jobs is not None else _default_jobs()
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run_command(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
