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

Each command imports only the layers it runs, inside its handler: ``params``
loads ``reciprocity``, ``index`` and ``charsum`` load ``localrep``, the
series commands load ``zeta`` with what it needs, and only ``verify`` loads
``suites`` and ``report``.  A start that finds no cached bytecode compiles
every module it imports, so this keeps the small commands cheap.

Payloads and reports are written out here, with the same bytes as
``json.dumps(value, indent=2)`` and ``csv.writer`` but without either
module: an indent makes ``json`` run its pure-Python encoder, so
``json_text`` walks the value itself and quotes each string with the C
``encode_basestring_ascii`` that ``json.encoder`` uses; ``csv_text`` writes
the excel dialect's minimal quoting; text joins the flattened leaves.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .report import SuiteReport
    from .suites import SuiteConfig

EMIT_CHOICES = ("json", "csv", "text")

# full polynomial expansion of an L-factor denominator has 2^(rank product)
# terms, so the closed-form paths are capped
MAX_CLOSED_FORM_FACTORS = 16


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
    # Fraction forms 10**e, in time that grows with e.  A mantissa holds at
    # most max_str_digits digits, so past this bound the value cannot be printed
    bound = 3 * sys.int_info.default_max_str_digits
    _, e, exp = text.strip().lower().rpartition("e")
    exp = exp.lstrip("+-").replace("_", "").lstrip("0")
    if e and exp.isdecimal() and (len(exp) > len(str(bound)) or int(exp) > bound):
        raise ValueError(f"the decimal exponent of {text!r} exceeds {bound} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _json(value, pad: str, quote) -> str:
    """The text json.dumps(value, indent=2) writes for value, nested at pad."""
    if isinstance(value, str):
        return quote(value)
    inner = pad + "  "
    # a list of items is a temporary, freed as soon as it is joined
    if isinstance(value, dict):
        return ("{" + inner + ("," + inner).join([f"{quote(k)}: {_json(v, inner, quote)}"
                for k, v in value.items()]) + pad + "}") if value else "{}"
    if isinstance(value, (list, tuple)):
        return ("[" + inner + ("," + inner).join([_json(v, inner, quote) for v in value])
                + pad + "]") if value else "[]"
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    # int.__repr__ and float.__repr__, as json writes a finite number
    return repr(value)


def json_text(value) -> str:
    """json.dumps(value, indent=2) for str keys and finite floats."""
    # json.encoder's C string encoder, without loading the json package
    from _json import encode_basestring_ascii

    return _json(value, "\n", encode_basestring_ascii)


def csv_text(rows) -> str:
    """Rows of str fields as csv.writer writes them in the excel dialect.

    A field that holds a comma, a double quote, CR or LF is quoted, with
    its quotes doubled; every row ends in CRLF.  Every row here has two or
    more fields: csv.writer would also quote the lone field of a one-field
    row when it is empty.
    """
    lines = []
    for row in rows:
        line = ",".join(row)
        # quote field by field only where some field needs it
        if line.count(",") >= len(row) or '"' in line or "\r" in line or "\n" in line:
            line = ",".join(['"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\r\n')
                             else f for f in row])
        lines.append(line + "\r\n")
    return "".join(lines)


def _flatten(value, key: str, out: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Append (dotted path, text) for every leaf of value to out."""
    if isinstance(value, dict):
        for k, v in value.items():
            path = f"{key}.{k}" if key else str(k)
            # a str leaf is taken here, without a call per leaf
            if type(v) is str:
                out.append((path, v))
            else:
                _flatten(v, path, out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(v, f"{key}[{i}]", out)
    elif isinstance(value, bool):
        out.append((key, "true" if value else "false"))
    else:
        out.append((key, "" if value is None else str(value)))
    return out


def _emit_payload(payload: dict, emit: str) -> str:
    if emit == "json":
        return json_text(payload) + "\n"
    leaves = _flatten(payload, "", [])
    if emit == "csv":
        return csv_text([("field", "value"), *leaves])
    return "".join([f"{key} = {value}\n" for key, value in leaves])


def _emit_report(report: SuiteReport, emit: str, timings: bool) -> str:
    from .report import report_to_csv, report_to_json, report_to_text

    if emit == "json":
        return report_to_json(report, include_timings=timings) + "\n"
    if emit == "csv":
        return report_to_csv(report, include_timings=timings)
    return report_to_text(report, include_timings=timings)


def _cmd_lfactor(args: argparse.Namespace) -> dict:
    from .localrep import UnramifiedRep
    from .zeta import l_factor_denominator

    if args.rank_a < 1 or args.rank_b < 1:
        raise ValueError("ranks must be positive")
    if args.rank_a * args.rank_b > MAX_CLOSED_FORM_FACTORS:
        raise ValueError(
            f"rank product {args.rank_a * args.rank_b} exceeds the closed-form cap "
            f"{MAX_CLOSED_FORM_FACTORS}; use the zeta command for a series view"
        )
    rep_a = UnramifiedRep.symbolic(args.rank_a, "a")
    rep_b = UnramifiedRep.symbolic(args.rank_b, "b")
    return {
        "ranks": [args.rank_a, args.rank_b],
        "variable": args.var,
        "numerator": "1",
        "denominator": l_factor_denominator(rep_a, rep_b, args.var).to_text(),
    }


def _cmd_whittaker(args: argparse.Namespace) -> dict:
    from .localrep import RankMismatch, UnramifiedRep
    from .whittaker import contragredient_value, spherical_value, twisted_value
    from .zeta import MAX_TERMS

    # the point evaluated: mu, its reversed negation for --dual, (mu, 0) for --level
    point = args.mu + (0,) * (args.level is not None)
    if args.dual:
        point = tuple(-e for e in point)
    degree = sum(point) - len(point) * min(point)
    terms = math.comb(degree + len(point) - 1, len(point) - 1)
    if terms > MAX_TERMS:
        raise ValueError(f"the value may have up to {terms} terms, over the cap {MAX_TERMS}")
    # building the representation takes time in n, so compare lengths first
    want = args.n if args.level is None else args.n - 1
    if args.n >= 1 and len(args.mu) != want:
        raise RankMismatch(f"rank {args.n} takes a length {want} cocharacter here, "
                           f"got length {len(args.mu)}")
    rep = UnramifiedRep.symbolic(args.n, "a")
    payload: dict = {"rank": args.n, "cocharacter": list(args.mu)}
    if args.level is None:
        value = contragredient_value(rep, args.mu) if args.dual else spherical_value(rep, args.mu)
        payload["model"] = "contragredient" if args.dual else "spherical"
    else:
        if args.dual:
            raise ValueError("the level vector has no contragredient variant here")
        value = twisted_value(rep, args.mu, args.level)
        payload["model"] = "twisted"
        payload["level"] = args.level
    payload["value"] = value.to_text()
    return payload


def _cmd_zeta(args: argparse.Namespace) -> dict:
    from .exactalg import LaurentPoly, RationalFunction
    from .localrep import UnramifiedRep
    from .zeta import (
        check_terms,
        l_factor_denominator,
        lattice_terms,
        local_zeta_unramified,
        times_l_denominator,
    )

    n, order = args.n, args.order
    if n < 1:
        raise ValueError("the smaller rank must be at least 1")
    if order < 0:
        raise ValueError("series order must be nonnegative")
    check_terms("the lattice series", lattice_terms(order, [(n + 1, n)]))
    rep_a = UnramifiedRep.symbolic(n + 1, "a")
    rep_b = UnramifiedRep.symbolic(n, "b")
    result = local_zeta_unramified(rep_a, rep_b, var=args.var, order=order)
    payload = {"ranks": [n + 1, n], "order": order}
    payload.update(result.to_json_obj())
    if (n + 1) * n <= MAX_CLOSED_FORM_FACTORS:
        den = l_factor_denominator(rep_a, rep_b, args.var)
        payload["closedForm"] = RationalFunction(LaurentPoly.one(), den).to_json_obj()
        product = times_l_denominator(result.series, rep_a, rep_b)
        payload["matchesClosedForm"] = product.is_one()
    return payload


def _cmd_weight(args: argparse.Namespace) -> dict:
    from .localrep import UnramifiedRep
    from .zeta import (
        check_series_var,
        check_terms,
        lattice_terms,
        weight_at_l,
        weight_at_q_structural,
        weight_unramified,
    )

    n, order, level = args.n, args.order, args.level
    if order < 0:
        raise ValueError("series order must be nonnegative")
    # only --place l reads the variable, but every place refuses a bad one
    check_series_var(args.var)
    if args.place == "unramified":
        if n < 2:
            raise ValueError("the unramified weight needs the middle rank >= 2")
        ranks = [(n + 1, n), (n, n - 1)]
        check_terms("the lattice series", lattice_terms(order, ranks))
        big = UnramifiedRep.symbolic(n + 1, "a")
        mid = UnramifiedRep.symbolic(n, "b")
        small = UnramifiedRep.symbolic(n - 1, "g")
        result = weight_unramified(big, mid, small, order=order)
        payload = {"ranks": [n + 1, n, n - 1], "order": order}
    elif args.place == "l":
        if n < 2:
            raise ValueError("the twisted weight needs rank >= 2")
        ranks = [(n, n - 1)]
        check_terms("the lattice series", lattice_terms(order, ranks))
        mid = UnramifiedRep.symbolic(n, "b")
        small = UnramifiedRep.symbolic(n - 1, "g")
        result = weight_at_l(mid, small, level, var=args.var, order=order)
        payload = {"ranks": [n, n - 1], "level": level, "order": order}
    else:
        if isinstance(args.p, str):
            raise ValueError("the structural weight needs a numeric residue cardinality")
        # the (a1, a2, j) triples number (d+1)(d+2)/2 for d = level - cond >= 0
        d = level - args.cond
        check_terms("the index set", [(d + 1) * (d + 2) // 2 if d >= 0 else 0])
        result = weight_at_q_structural(args.cond, level, n, args.p)
        payload = {"rank": n, "conductorExponent": args.cond, "level": level, "p": args.p}
    payload.update(result.to_json_obj())
    return payload


def _cmd_index(args: argparse.Namespace) -> dict:
    from .localrep import congruence_index, congruence_index_bruteforce

    if isinstance(args.p, str):
        raise ValueError("the congruence index needs a numeric residue cardinality")
    payload = {
        "rank": args.n,
        "p": args.p,
        "level": args.level,
        "index": congruence_index(args.n, args.p, args.level),
    }
    if args.bruteforce:
        brute = congruence_index_bruteforce(args.n, args.p, args.level)
        payload["bruteForce"] = brute
        payload["agree"] = brute == payload["index"]
    return payload


def _cmd_charsum(args: argparse.Namespace) -> dict:
    from .exactalg import LaurentPoly
    from .localrep import character_sum, character_sum_cyclotomic, character_sum_numeric

    numeric = None
    if not isinstance(args.p, str):
        # first, so that its enumeration bound also bounds the exact value p^(r*m)
        # and the cyclotomic oracle's q = p^m
        numeric = character_sum_numeric(args.p, args.level, args.valuations)
    value = character_sum(args.p, args.level, args.valuations)
    payload = {
        "p": "symbolic" if isinstance(args.p, str) else args.p,
        "level": args.level,
        "valuations": list(args.valuations),
        "value": value.to_text(),
    }
    if numeric is not None:
        oracle = character_sum_cyclotomic(args.p, args.level, args.valuations)
        # numericOracle is shown, not compared: agree is decided in Z[zeta_q]
        payload["numericOracle"] = [numeric.real, numeric.imag]
        payload["agree"] = not any(oracle[1:]) and value == LaurentPoly.const(oracle[0])
    return payload


def _cmd_params(args: argparse.Namespace) -> dict:
    from .reciprocity import ParamPair, dual_params

    if args.s is None and args.w is None:
        pair = ParamPair.symbolic(args.n)
    elif args.s is None or args.w is None:
        raise ValueError("give both --s and --w, or neither for symbolic parameters")
    else:
        pair = ParamPair(_parse_fraction(args.s), _parse_fraction(args.w), args.n)
    image = dual_params(pair)
    return {
        "n": args.n,
        "s": pair.s.to_text(),
        "w": pair.w.to_text(),
        "sDual": image.s.to_text(),
        "wDual": image.w.to_text(),
        "isFixedPoint": image.s == pair.s and image.w == pair.w,
    }


def _run_suite(name: str, cfg: SuiteConfig) -> SuiteReport:
    """Run one listed suite; the worker entry, so it pickles by name."""
    from .suites import SUITES

    return SUITES[name](cfg)


def _pinned_pool_options(workers: int) -> dict:
    """ProcessPoolExecutor options that give each worker CPUs of its own.

    Left alone, the scheduler of a two-CPU virtual machine was seen to keep
    both forked workers on one CPU for their whole run in most runs, so that
    ``--jobs 2`` took the serial time in some runs and half of it in others.
    Worker k is pinned to every workers-th allowed CPU from the k-th, so no
    two workers share a CPU and each may still move among its own.  Without
    the affinity call (not Linux), or with fewer allowed CPUs than workers,
    the workers are left unpinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return {}
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < workers:
        return {}
    import multiprocessing

    cpu_sets = [cpus[k::workers] for k in range(workers)]
    return {"initializer": _pin_worker, "initargs": (cpu_sets, multiprocessing.Value("i", 0))}


def _pin_worker(cpu_sets: list[list[int]], claimed) -> None:
    """Pool initializer: pin this worker to the next CPU set not yet claimed."""
    with claimed.get_lock():
        k = claimed.value % len(cpu_sets)
        claimed.value += 1
    os.sched_setaffinity(0, cpu_sets[k])


def _run_verify(args: argparse.Namespace) -> SuiteReport:
    from .report import merge_reports
    from .suites import HIDDEN_SUITES, SUITES, WORK_BOUNDS, SuiteConfig

    if args.jobs < 1:
        raise ValueError("--jobs must be positive")
    suite_cfg = SuiteConfig(n_max=args.n_max, order=args.order, p=args.p, seed=args.seed)
    runnable = {**SUITES, **HIDDEN_SUITES}
    if args.suite != "all" and args.suite not in runnable:
        known = ", ".join([*runnable, "all"])
        raise ValueError(f"unknown suite {args.suite!r}; known suites: {known}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    # every bound is checked before any suite runs
    for name in names:
        if name in WORK_BOUNDS:
            WORK_BOUNDS[name](suite_cfg)
    if args.suite != "all":
        return runnable[args.suite](suite_cfg)
    if args.jobs == 1:
        reports = [_run_suite(name, suite_cfg) for name in names]
    else:
        # a fork-based pool starts every worker up front, so ask for no
        # more workers than suites.  Fork is kept over spawn because forked
        # workers share the parent's pages (a spawned pool measured a
        # higher peak RSS than the serial run), and no thread runs yet.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(args.jobs, len(names))
        with ProcessPoolExecutor(max_workers=workers, **_pinned_pool_options(workers)) as pool:
            reports = list(pool.map(_run_suite, names, [suite_cfg] * len(names)))
    return merge_reports("all", reports)


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
    p_lf.set_defaults(handler=_cmd_lfactor)

    p_wh = sub.add_parser("whittaker", parents=[common], help="normalized Whittaker values")
    p_wh.add_argument("--n", type=int, required=True, help="rank")
    p_wh.add_argument("--mu", type=_parse_int_tuple, required=True,
                      help="comma-separated cocharacter exponents")
    p_wh.add_argument("--level", "-m", type=int, default=None,
                      help="evaluate the level-m vector instead of the spherical one")
    p_wh.add_argument("--dual", action="store_true",
                      help="evaluate in the contragredient model")
    p_wh.set_defaults(handler=_cmd_whittaker)

    p_ze = sub.add_parser("zeta", parents=[common], help="unramified local zeta series")
    p_ze.add_argument("--n", type=int, required=True, help="smaller rank; the pair is (n+1, n)")
    p_ze.add_argument("--order", "-N", type=int, default=6)
    p_ze.add_argument("--var", default="X")
    p_ze.set_defaults(handler=_cmd_zeta)

    p_we = sub.add_parser("weight", parents=[common], help="local weight at one place")
    p_we.add_argument("--place", choices=("unramified", "l", "q"), default="unramified")
    p_we.add_argument("--n", type=int, required=True, help="middle rank")
    p_we.add_argument("--level", "-m", type=int, default=0)
    p_we.add_argument("--cond", type=int, default=0, help="conductor exponent (place q)")
    p_we.add_argument("--order", "-N", type=int, default=6)
    p_we.add_argument("--p", type=_parse_p, default=2, help="residue cardinality (place q)")
    p_we.add_argument("--var", default="Y",
                      help="series variable (place l only; place unramified reports in X and Y)")
    p_we.set_defaults(handler=_cmd_weight)

    p_ix = sub.add_parser("index", parents=[common], help="congruence subgroup index")
    p_ix.add_argument("--n", type=int, required=True)
    p_ix.add_argument("--p", type=_parse_p, required=True)
    p_ix.add_argument("--level", "-m", type=int, default=0)
    p_ix.add_argument("--bruteforce", action="store_true",
                      help="also count the quotient directly and compare")
    p_ix.set_defaults(handler=_cmd_index)

    p_cs = sub.add_parser("charsum", parents=[common], help="additive character sum")
    p_cs.add_argument("--p", type=_parse_p, required=True,
                      help="residue cardinality, or 'symbolic'")
    p_cs.add_argument("--level", "-m", type=int, default=1)
    p_cs.add_argument("--valuations", type=_parse_int_tuple, required=True,
                      help="comma-separated coordinate valuations")
    p_cs.set_defaults(handler=_cmd_charsum)

    p_pa = sub.add_parser("params", parents=[common], help="spectral parameter transform")
    p_pa.add_argument("--n", type=int, required=True)
    p_pa.add_argument("--s", default=None, help="rational value such as 1/2 (default symbolic)")
    p_pa.add_argument("--w", default=None)
    p_pa.set_defaults(handler=_cmd_params)

    p_vf = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_vf.add_argument("--suite", default="all",
                      help="suite name, or 'all' (default)")
    p_vf.add_argument("--n-max", type=int, default=10)
    p_vf.add_argument("--order", "-N", type=int, default=6)
    p_vf.add_argument("--p", type=int, default=2)
    p_vf.add_argument("--seed", type=int, default=0)
    p_vf.add_argument("--jobs", type=int, default=1,
                      help="worker processes for --suite all, capped at the number of "
                      "suites; 1 (default) runs in-process")
    p_vf.add_argument("--timings", action="store_true",
                      help="include per-check milliseconds (not reproducible)")
    p_vf.set_defaults(handler=_run_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.handler(args)
        if args.command == "verify":
            sys.stdout.write(_emit_report(result, args.emit, args.timings))
            return 0 if result.passed else 1
        sys.stdout.write(_emit_payload(result, args.emit))
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
