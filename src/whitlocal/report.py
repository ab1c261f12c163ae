"""Running checks, and the pass/fail reports they produce.

A check is an ``(id, description, body)`` entry.  The body takes no
arguments and is a generator: it yields one ``(where, got, want)``
comparison per equality its identity needs.  ``run_check`` is the one place
that compares the two sides and writes a witness.  The first comparison
with ``got != want`` fails the check and ends the body, and its witness is
``"{where}: {got} != {want}"``, or ``"{got} != {want}"`` when ``where`` is
empty, so the text of a polynomial is formed only on the failing path.  A
body that runs out passes, and one that raises is an error.  ``run_checks``
runs a list of entries in order, through ``run_check`` one at a time, into a
SuiteReport.

A SuiteReport is a named list of CheckResults.  A check carries a witness
string exactly when it did not pass, and a millisecond timing that cli's
writers leave out unless asked, so that repeated runs of the same
configuration emit identical bytes.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Callable, Iterable, Iterator

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


Body = Callable[[], Iterator[tuple[str, object, object]]]
Check = tuple[str, str, Body]


def run_check(check_id: str, description: str, fn: Body) -> CheckResult:
    """Run one check body to its first unequal comparison and wrap the outcome.

    Raising is recorded as an error with the exception text as witness.
    """
    t0 = time.perf_counter()
    status, witness = PASS, None
    try:
        for where, got, want in fn():
            if got != want:
                status = FAIL
                witness = f"{where}: {got} != {want}" if where else f"{got} != {want}"
                break
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
