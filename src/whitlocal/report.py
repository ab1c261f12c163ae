"""Running checks, and the pass/fail reports they produce.

A check is an ``(id, description, body)`` entry.  The body takes no
arguments and returns ``(ok, witness)``: the witness explains a failure
and is dropped when ``ok`` holds.  ``run_checks`` runs a list of entries in
order, through ``run_check`` one at a time, into a SuiteReport.

A SuiteReport is a named list of CheckResults.  A check carries a witness
string exactly when it did not pass, and a millisecond timing that is
excluded from serialized output unless explicitly requested, so that
repeated runs of the same configuration emit identical bytes.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Callable, Iterable

from .cli import csv_text, json_text

PASS = "pass"
FAIL = "fail"
ERROR = "error"


class CheckResult(namedtuple("CheckResult", "id description status witness millis")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == PASS


class SuiteReport(namedtuple("SuiteReport", "suite checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def status(self) -> str:
        return PASS if self.passed else FAIL


Body = Callable[[], tuple[bool, str | None]]
Check = tuple[str, str, Body]


def run_check(check_id: str, description: str, fn: Body) -> CheckResult:
    """Run one check body and wrap the outcome.

    The body returns (ok, witness); raising is recorded as an error with
    the exception text as witness.
    """
    t0 = time.perf_counter()
    try:
        ok, witness = fn()
        status = PASS if ok else FAIL
        if ok:
            witness = None
        elif witness is None:
            witness = "check returned false"
    except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
        status = ERROR
        witness = f"{type(exc).__name__}: {exc}"
    millis = int((time.perf_counter() - t0) * 1000)
    return CheckResult(check_id, description, status, witness, millis)


def run_checks(suite: str, checks: Iterable[Check]) -> SuiteReport:
    """Run every entry in order and collect the results under the suite name."""
    return SuiteReport(suite, [run_check(*check) for check in checks])


def merge_reports(name: str, reports: Iterable[SuiteReport]) -> SuiteReport:
    """Combine reports into one, prefixing check ids by their suite.

    Checks are sorted by the prefixed id so the merged report does not
    depend on completion order when suites run in parallel.
    """
    checks = [
        CheckResult(f"{rep.suite}/{c.id}", c.description, c.status, c.witness, c.millis)
        for rep in reports
        for c in rep.checks
    ]
    return SuiteReport(name, sorted(checks, key=lambda c: c.id))


def report_to_json(report: SuiteReport, include_timings: bool = False) -> str:
    checks = []
    for c in report.checks:
        entry: dict = {"id": c.id, "description": c.description, "status": c.status}
        if c.status != PASS:
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
    lines = [f"suite {report.suite}: {report.status}"]
    for c in report.checks:
        mark = "ok " if c.passed else ("ERR" if c.status == ERROR else "FAIL")
        timing = f"  [{c.millis} ms]" if include_timings else ""
        lines.append(f"  {mark} {c.id}  {c.description}{timing}")
        if not c.passed and c.witness:
            lines.append(f"      witness: {c.witness}")
    npass = sum(1 for c in report.checks if c.passed)
    lines.append(f"  {npass}/{len(report.checks)} checks passed")
    return "\n".join(lines) + "\n"
