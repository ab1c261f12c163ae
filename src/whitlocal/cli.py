"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite reports a failure
(the report is still emitted), 2 on invalid input, 3 when an internal
arithmetic check fails outside ``verify`` (an ``ArithmeticError`` such as a
lattice term that does not collapse: a fault in the program, not in its
input; ``verify`` reports such a check as an error and exits 1).  All output is
deterministic for a fixed command line; timings are opt-in because they
would break byte-for-byte reproducibility.  ``verify --suite all --jobs N``
runs the suites in this process and in up to N - 1 forked ones, and merges
their reports by check id, so the bytes do not depend on N.

Each command imports only the layers it runs, inside its handler: ``params``
loads ``reciprocity``, ``index`` and ``charsum`` load ``localrep``, the
series commands load ``zeta`` with what it needs, and only ``verify`` loads
``suites`` and ``report``.  A start that finds no cached bytecode compiles
every module it imports, so this keeps the small commands cheap.

Each handler lays out every key of its command's payload, in order, from
the values its layers return; no result type of a layer carries a layout.
A value's own read-out (``to_text``, or the ``to_json_obj`` of a
polynomial, series or quotient) comes from ``exactalg``.

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
from typing import TYPE_CHECKING, BinaryIO

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


def report_to_json(report: SuiteReport, include_timings: bool = False) -> str:
    checks = []
    for c in report.checks:
        entry: dict = {"id": c.id, "description": c.description, "status": c.status}
        if not c.passed:
            entry["witness"] = c.witness
        if include_timings:
            entry["millis"] = c.millis
        checks.append(entry)
    return json_text({"suite": report.suite, "status": report.status, "checks": checks})


CSV_COLUMNS = ("suite", "check_id", "description", "status", "witness")


def report_to_csv(report: SuiteReport, include_timings: bool = False) -> str:
    rows = [CSV_COLUMNS + (("millis",) if include_timings else ())]
    for c in report.checks:
        row = (report.suite, c.id, c.description, c.status, c.witness or "")
        rows.append(row + ((str(c.millis),) if include_timings else ()))
    return csv_text(rows)


def report_to_text(report: SuiteReport, include_timings: bool = False) -> str:
    from .report import ERROR

    lines = [f"suite {report.suite}: {report.status}"]
    for c in report.checks:
        mark = "ok " if c.passed else ("ERR" if c.status == ERROR else "FAIL")
        timing = f"  [{c.millis} ms]" if include_timings else ""
        lines.append(f"  {mark} {c.id}  {c.description}{timing}")
        if c.witness:
            lines.append(f"      witness: {c.witness}")
    npass = sum(1 for c in report.checks if c.passed)
    lines.append(f"  {npass}/{len(report.checks)} checks passed")
    return "\n".join(lines) + "\n"


def _emit_report(report: SuiteReport, emit: str, timings: bool) -> str:
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
    payload = {"ranks": [n + 1, n], "order": order, "series": result.series.to_json_obj(),
               "latticePoints": result.lattice_points}
    if (n + 1) * n <= MAX_CLOSED_FORM_FACTORS:
        den = l_factor_denominator(rep_a, rep_b, args.var)
        payload["closedForm"] = RationalFunction(LaurentPoly.one(), den).to_json_obj()
        product = times_l_denominator(result.series, rep_a, rep_b)
        payload["matchesClosedForm"] = product.is_one()
    return payload


def _comparison(cmp) -> dict:
    """A zeta.PaperComparison, its ratio scaled so that the published term has coefficient 1."""
    from .exactalg import RationalFunction

    (c,) = cmp.paper_constant.terms.values()
    return {
        "paperConstant": cmp.paper_constant.to_text(),
        "computedConstant": cmp.computed_constant.to_text(),
        "ratio": RationalFunction(cmp.computed_constant / c, cmp.paper_constant / c).to_json_obj(),
    }


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
        return {"ranks": [n + 1, n, n - 1], "order": order, "placeKind": "unramified",
                "value": result.value.to_text(), "latticePoints": result.lattice_points}
    if args.place == "l":
        if n < 2:
            raise ValueError("the twisted weight needs rank >= 2")
        ranks = [(n, n - 1)]
        check_terms("the lattice series", lattice_terms(order, ranks))
        mid = UnramifiedRep.symbolic(n, "b")
        small = UnramifiedRep.symbolic(n - 1, "g")
        result = weight_at_l(mid, small, level, var=args.var, order=order)
        return {"ranks": [n, n - 1], "level": level, "order": order, "placeKind": "dividing_l",
                "value": result.value.to_json_obj(),
                "paperComparison": _comparison(result.paper_comparison),
                "paperValue": result.paper_value.to_json_obj(),
                "latticePoints": result.lattice_points}
    if isinstance(args.p, str):
        raise ValueError("the structural weight needs a numeric residue cardinality")
    # the (a1, a2, j) triples number (d+1)(d+2)/2 for d = level - cond >= 0
    d = level - args.cond
    check_terms("the index set", [(d + 1) * (d + 2) // 2 if d >= 0 else 0])
    result = weight_at_q_structural(args.cond, level, n, args.p)
    # the value is None below the boundary, and only the boundary has a comparison
    payload = {"rank": n, "conductorExponent": args.cond, "level": level, "p": args.p,
               "placeKind": "dividing_q",
               "value": None if result.value is None else result.value.to_text()}
    if result.paper_comparison is not None:
        payload["paperComparison"] = _comparison(result.paper_comparison)
        payload["paperValue"] = result.paper_value.to_text()
    payload.update(indexSet=[list(t) for t in result.index_set], vanishes=result.vanishes,
                   latticePoints=result.lattice_points)
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


def _run_share(queue: int, suites: list, cfg: SuiteConfig, cpus: list[int]) -> list[SuiteReport]:
    """Pin to cpus, if any; run the suite of each index read from queue until it is empty."""
    if cpus:
        os.sched_setaffinity(0, cpus)
    return [suites[index[0]](cfg) for index in iter(lambda: os.read(queue, 1), b"")]


def _run_forked(suites: list, cfg: SuiteConfig, workers: int) -> list[SuiteReport]:
    """Run the suites in this process and in workers - 1 forked children.

    With one worker nothing forks, and this process runs every suite in order.
    The suite indices wait in one pipe, a byte each, and every process runs
    the suite of each index it reads until the pipe is empty, so a process
    that ends a cheap suite takes the next.  A child pickles its reports, or
    the exception that escaped a suite, into a pipe of its own and ends with
    os._exit; a blocking pipe write returns only once all of it is written,
    unless a signal with a handler (^C) comes first.  Fork is kept over spawn
    because forked children share the parent's pages (spawned workers
    measured a higher peak RSS than the serial run), and it is safe because
    verify starts no thread.  An exception re-raised from a child carries
    the parent's traceback, not the child's.

    Left alone, the scheduler of a two-CPU virtual machine was seen to keep
    both processes on one CPU for their whole run in most runs, so process k
    is pinned to every workers-th allowed CPU from the k-th, and this process
    gets all of them back afterwards.  Without the affinity call (not Linux),
    or with fewer allowed CPUs than processes, none is pinned.  Every child
    is killed and reaped before this returns or raises: once its report is
    read, a child is past its last statement, so the kill only ends one that
    still runs because this process raised.
    """
    if workers > 1:
        # only forked children need these; one worker runs everything here
        import pickle
        import signal

    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(suites))))
    os.close(feed)
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    cpu_sets = [allowed[k::workers] if len(allowed) >= workers else [] for k in range(workers)]
    children: list[tuple[int, BinaryIO]] = []
    try:
        for k in range(1, workers):
            out, into = os.pipe()
            if (pid := os.fork()) == 0:
                # the child never returns into the caller
                try:
                    os.write(into, pickle.dumps(_run_share(queue, suites, cfg, cpu_sets[k])))
                except Exception as exc:
                    os.write(into, pickle.dumps(exc))
                finally:
                    os._exit(0)
            os.close(into)
            children.append((pid, open(out, "rb")))
        reports = _run_share(queue, suites, cfg, cpu_sets[0])
        for pid, pipe in children:
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
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    # never more processes than suites, so one suite, or --jobs 1, forks nothing
    reports = _run_forked([runnable[name] for name in names], suite_cfg,
                          min(args.jobs, len(names)))
    return merge_reports("all", reports) if args.suite == "all" else reports[0]


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
                      help="processes for --suite all, this one included, capped at the "
                      "number of suites; 1 (default) runs in-process")
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
