"""Running checks, and the pass/fail reports they produce.

A check is an ``(id, description, body)`` entry.  The body takes no
arguments and returns ``None`` when its identity holds, or else the witness
string that explains the failure, so a witness is formed only on the
failing path.  ``run_checks`` runs a list of entries in order, through
``run_check`` one at a time, into a SuiteReport.

A SuiteReport is a named list of CheckResults.  A check carries a witness
string exactly when it did not pass, and a millisecond timing that cli's
writers leave out unless asked, so that repeated runs of the same
configuration emit identical bytes.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Callable, Iterable

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


Body = Callable[[], str | None]
Check = tuple[str, str, Body]


def run_check(check_id: str, description: str, fn: Body) -> CheckResult:
    """Run one check body and wrap the outcome.

    The body returns None or its witness; raising is recorded as an error
    with the exception text as witness.
    """
    t0 = time.perf_counter()
    try:
        witness = fn()
        status = PASS if witness is None else FAIL
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
