"""Check reporting: statuses, witnesses, merging, and cli's output formats."""

import contextlib
import csv
import inspect
import io
import json

from whitlocal import suites
from whitlocal.cli import main, report_to_csv, report_to_json, report_to_text
from whitlocal.exactalg import LaurentPoly
from whitlocal.report import CheckResult, SuiteReport, merge_reports, run_check, run_checks


def _equal():
    yield "x", 1, 1


def _unequal():
    yield "x", 2, 1


def _sample_report():
    return run_checks("sample", [
        ("good", "a passing check", _equal),
        ("bad", "a failing check", _unequal),
    ])


def test_run_check_statuses():
    def empty():
        yield from ()

    ok = run_check("a", "", empty)
    assert ok.status == "pass" and ok.witness is None

    bad = run_check("b", "", _unequal)
    assert bad.status == "fail" and bad.witness == "x: 2 != 1"

    def boom():
        yield "x", 1, 1
        raise ArithmeticError("cancellation failed")

    err = run_check("c", "", boom)
    assert err.status == "error"
    assert err.witness == "ArithmeticError: cancellation failed"


def test_the_first_unequal_comparison_fails_and_ends_the_body():
    ran = []

    def body():
        yield "k=0", LaurentPoly.one(), 1
        yield "k=1", LaurentPoly.var("x"), 0
        ran.append("after")
        raise ArithmeticError("never reached")

    bad = run_check("b", "", body)
    assert bad.status == "fail" and bad.witness == "k=1: x != 0"
    assert ran == []


def test_an_empty_where_gives_the_two_sides_alone():
    def body():
        yield "", (1, 2), (2, 1)

    assert run_check("c", "", body).witness == "(1, 2) != (2, 1)"


def test_every_suite_body_is_a_generator_function(monkeypatch):
    bodies = []
    monkeypatch.setattr(suites, "run_checks",
                        lambda name, checks: bodies.extend(fn for _, _, fn in checks))
    cfg = suites.SuiteConfig(n_max=3, order=2, p=2, seed=0)
    for suite in [*suites.SUITES.values(), *suites.HIDDEN_SUITES.values()]:
        suite(cfg)
    assert len(bodies) > len(suites.SUITES)
    assert all(inspect.isgeneratorfunction(fn) for fn in bodies)


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
            yield name, ok, True
        return run

    report = run_checks("s", [(name, "", body(name, ok)) for name, ok in
                              (("b", True), ("raises", True), ("a", False), ("c", True))])
    assert ran == ["b", "raises", "a", "c"]
    assert [c.id for c in report.checks] == ["b", "raises", "a", "c"]
    assert [c.status for c in report.checks] == ["pass", "error", "fail", "pass"]
    assert report.checks[2].witness == "a: False != True"
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
    assert by_id["bad"]["witness"] == "x: 2 != 1"
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
    assert "witness: x: 2 != 1" in text
    assert "1/2 checks passed" in text


def test_a_passing_verify_forms_no_witness(monkeypatch):
    # every witness of a suite writes polynomials through to_text, its alias
    # __str__ or __repr__; a passing battery must write none
    calls = []
    to_text = LaurentPoly.to_text

    def counted(self):
        calls.append(1)
        return to_text(self)

    monkeypatch.setattr(LaurentPoly, "to_text", counted)
    monkeypatch.setattr(LaurentPoly, "__str__", counted)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify", "--suite", "all", "--jobs", "1", "--seed", "0"])
    assert code == 0 and json.loads(out.getvalue())["status"] == "pass"
    assert len(calls) == 0
