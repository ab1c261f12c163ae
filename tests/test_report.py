"""Check reporting: statuses, witnesses, merging, output formats."""

import csv
import io
import json

from whitlocal.report import (
    CheckResult,
    SuiteReport,
    merge_reports,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_check,
    run_checks,
)


def _sample_report():
    return run_checks("sample", [
        ("good", "a passing check", lambda: (True, None)),
        ("bad", "a failing check", lambda: (False, "expected 1, got 2")),
    ])


def test_run_check_statuses():
    ok = run_check("a", "", lambda: (True, "ignored"))
    assert ok.status == "pass" and ok.witness is None

    bad = run_check("b", "", lambda: (False, None))
    assert bad.status == "fail" and bad.witness == "check returned false"

    def boom():
        raise ArithmeticError("cancellation failed")

    err = run_check("c", "", boom)
    assert err.status == "error"
    assert "ArithmeticError" in err.witness and "cancellation failed" in err.witness


def test_suite_status_aggregation():
    report = _sample_report()
    assert not report.passed
    assert report.status == "fail"
    assert [c.id for c in report.checks if not c.passed] == ["bad"]
    all_good = SuiteReport("ok", [CheckResult("x", "", "pass", None, 0)])
    assert all_good.passed and all_good.status == "pass"


def test_run_checks_keeps_order_and_runs_every_entry():
    ran = []

    def body(name, ok):
        def run():
            ran.append(name)
            if name == "raises":
                raise ArithmeticError("no cancellation")
            return ok, f"{name} failed"
        return run

    report = run_checks("s", [(name, "", body(name, ok)) for name, ok in
                              (("b", True), ("raises", True), ("a", False), ("c", True))])
    assert ran == ["b", "raises", "a", "c"]
    assert [c.id for c in report.checks] == ["b", "raises", "a", "c"]
    assert [c.status for c in report.checks] == ["pass", "error", "fail", "pass"]
    assert report.checks[2].witness == "a failed"
    assert all(type(c.millis) is int for c in report.checks)


def test_merge_prefixes_and_sorts():
    r1 = SuiteReport("beta", [CheckResult("z", "", "pass", None, 0)])
    r2 = SuiteReport("alpha", [CheckResult("y", "", "fail", "w", 0)])
    merged = merge_reports("all", [r1, r2])
    assert [c.id for c in merged.checks] == ["alpha/y", "beta/z"]
    assert merged.status == "fail"


def test_json_format():
    obj = json.loads(report_to_json(_sample_report()))
    assert obj["suite"] == "sample"
    assert obj["status"] == "fail"
    by_id = {c["id"]: c for c in obj["checks"]}
    assert "witness" not in by_id["good"]
    assert by_id["bad"]["witness"] == "expected 1, got 2"
    assert "millis" not in by_id["good"]
    with_timings = json.loads(report_to_json(_sample_report(), include_timings=True))
    assert all("millis" in c for c in with_timings["checks"])


def test_csv_format():
    rows = list(csv.reader(io.StringIO(report_to_csv(_sample_report()))))
    assert rows[0] == ["suite", "check_id", "description", "status", "witness"]
    assert rows[1] == ["sample", "good", "a passing check", "pass", ""]
    assert rows[2][3] == "fail"
    timed = list(csv.reader(io.StringIO(report_to_csv(_sample_report(), True))))
    assert timed[0][-1] == "millis"


def test_text_format():
    text = report_to_text(_sample_report())
    assert "suite sample: fail" in text
    assert "witness: expected 1, got 2" in text
    assert "1/2 checks passed" in text
