"""Command line behavior: formats, exit codes, determinism."""

import concurrent.futures
import csv
import io
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time

from fractions import Fraction

import pytest

import exactalg_reference as ref
from whitlocal import cli, exactalg, localrep, suites, symfunc, zeta
from whitlocal.cli import main
from whitlocal.exactalg import EXPONENT_LIMIT, LaurentPoly, qpow
from whitlocal.localrep import EnumerationTooLarge, UnramifiedRep
from whitlocal.report import CheckResult, SuiteReport, report_to_json
from whitlocal.suites import WORK_BOUNDS, SuiteConfig
from whitlocal.zeta import local_zeta_unramified


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def count_term_products(monkeypatch) -> list[int]:
    """Count the term products of LaurentPoly.__mul__ and __rmul__ from now on.

    Counted as bench/tracer.py counts them, so a bound on the count holds on
    any host.  The count so far is the one element of the returned list.
    """
    mul = LaurentPoly.__mul__
    products = [0]

    def counted(a, b):
        products[0] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1 if b else 0)
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
    return products


def run_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "whitlocal", *argv],
        capture_output=True,
        text=True,
    )


class TestExitCodes:
    def test_success(self, capsys):
        code, _, _ = run_cli("params", "--n", "2", capsys=capsys)
        assert code == 0

    def test_failing_suite_still_emits_report(self, capsys):
        code, out, _ = run_cli("verify", "--suite", "negative-control", capsys=capsys)
        assert code == 1
        obj = json.loads(out)
        assert obj["status"] == "fail"
        assert any(c["status"] == "fail" and c["witness"] for c in obj["checks"])

    def test_invalid_input(self, capsys):
        code, _, err = run_cli("zeta", "--n", "0", capsys=capsys)
        assert code == 2
        assert "error:" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli("verify", "--suite", "nonsense", capsys=capsys)
        assert code == 2
        assert "unknown suite" in err

    def test_bad_flag_exits_two(self):
        proc = run_process("zeta", "--no-such-flag")
        assert proc.returncode == 2

    def test_bad_subcommand_exits_two(self):
        proc = run_process("frobnicate")
        assert proc.returncode == 2

    def test_mu_must_be_integers(self):
        proc = run_process("whittaker", "--n", "2", "--mu", "a,b")
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ("index", "--n", "2", "--p", "4", "--level", "1", "--bruteforce"),
        ("index", "--n", "2", "--p", "6", "--level", "1", "--bruteforce"),
        ("index", "--n", "2", "--p", "6", "--level", "1"),
        ("index", "--n", "3", "--p", "12", "--level", "0"),
        ("verify", "--suite", "weight-q", "--p", "6"),
        ("verify", "--suite", "all", "--p", "1"),
    ])
    def test_residue_cardinality_contract(self, argv, capsys):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("params", "--n", "2", "--s", "1/0", "--w", "1"),
        ("params", "--n", "2", "--s", "1", "--w", "3/0"),
    ])
    def test_zero_denominator_is_invalid_input(self, argv, capsys):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("literal", ["1e12901", "1e-12901", "1E+10000000", "2.5e1_000_000"])
    def test_huge_decimal_exponent_is_refused_before_fraction(self, literal, monkeypatch,
                                                               capsys):
        # Fraction forms 10**e: params --s 1e10000000 ran 13 s and reached 41 MB
        fraction = cli.Fraction

        def guarded(*args):
            assert literal not in args, "Fraction ran on the literal"
            return fraction(*args)

        monkeypatch.setattr(cli, "Fraction", guarded)
        got = run_cli("params", "--n", "2", "--s", literal, "--w", "0", capsys=capsys)
        assert got == (2, "", f"error: the decimal exponent of {literal!r} exceeds 12900 "
                              "in magnitude\n")

    def test_decimal_exponent_at_the_bound_is_parsed(self):
        assert cli._parse_fraction("1e12900") == 10 ** 12900
        assert cli._parse_fraction("-1E-0_12900") == Fraction(-1, 10 ** 12900)

    @pytest.mark.parametrize("argv", [
        ("zeta", "--n", "1", "--order", "2", "--var", "q"),
        ("lfactor", "--rank-a", "2", "--rank-b", "1", "--var", "q"),
        ("weight", "--place", "l", "--n", "2", "--level", "1", "--order", "2", "--var", "q"),
        ("zeta", "--n", "1", "--order", "2", "--var", "3x"),
        ("lfactor", "--rank-a", "2", "--rank-b", "1", "--var", "x*y"),
        # rank product 20 > 16: the path that builds no closed form
        ("zeta", "--n", "4", "--order", "1", "--var", "x*y"),
        ("weight", "--place", "l", "--n", "2", "--level", "1", "--order", "2", "--var", "3x"),
    ])
    def test_series_variable_contract(self, argv, capsys):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("var", ["q", "1x"])
    def test_weight_refuses_a_bad_variable_at_every_place(self, var, capsys):
        # only --place l reads --var, but every place checks it the same way
        errors = set()
        for place in (("--place", "unramified", "--order", "1"),
                      ("--place", "l", "--level", "1", "--order", "1"),
                      ("--place", "q", "--cond", "1", "--level", "1")):
            code, out, err = run_cli("weight", "--n", "2", *place, "--var", var, capsys=capsys)
            assert (code, out) == (2, ""), place
            errors.add(err)
        (err,) = errors
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, err", [
        (("verify", "--suite", "unramified", "--order", "-2"), "series order must be nonnegative"),
        (("verify", "--suite", "cauchy", "--order", "-1"), "series order must be nonnegative"),
        (("verify", "--suite", "weyl", "--jobs", "0"), "--jobs must be positive"),
        (("whittaker", "--n", "2", "--mu", "100000000,0"),
         "the value may have up to 100000001 terms, over the cap 10000"),
        (("whittaker", "--n", "2", "--mu", "0,-100000000", "--dual"),
         "the value may have up to 100000001 terms, over the cap 10000"),
        (("whittaker", "--n", "3", "--mu", "100000000,0", "--level", "1"),
         "the value may have up to 5000000150000001 terms, over the cap 10000"),
        # each input checked once, by the code that owns the check: the twist
        # level by twisted_value, the weight-l level by the lattice sum, the
        # zeta order by the command
        (("whittaker", "--n", "2", "--mu", "1", "--level", "-1"),
         "the twist level must be nonnegative"),
        (("weight", "--place", "l", "--n", "2", "--level", "-1"), "the level must be nonnegative"),
        (("zeta", "--n", "2", "--order", "-1"), "series order must be nonnegative"),
    ], ids=[f"argv{i}" for i in range(9)])
    def test_work_bound_contract(self, argv, err, capsys):
        assert run_cli(*argv, capsys=capsys) == (2, "", f"error: {err}\n")

    def test_whittaker_term_bound(self, monkeypatch, capsys):
        # s_(9999) in two variables has exactly MAX_TERMS terms
        assert zeta.MAX_TERMS == 10_000
        code, out, _ = run_cli("whittaker", "--n", "2", "--mu", "9999,0", capsys=capsys)
        assert code == 0
        assert json.loads(out)["value"].count("a1") == 9999
        calls = []
        monkeypatch.setattr(symfunc, "schur", lambda *args: calls.append(args))
        code, out, err = run_cli("whittaker", "--n", "2", "--mu", "10000,0", capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "error: the value may have up to 10001 terms, over the cap 10000\n"
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ("zeta", "--n", "6", "--order", "8"),
        ("zeta", "--n", "1", "--order", "5000"),
        ("zeta", "--n", "1", "--order", "140"),
        ("zeta", "--n", "100000000", "--order", "0"),
        ("weight", "--place", "unramified", "--n", "6", "--order", "8"),
        ("weight", "--n", "100000000", "--order", "0"),
        ("weight", "--place", "l", "--n", "6", "--level", "1", "--order", "20"),
        ("weight", "--place", "l", "--n", "72", "--order", "1"),
        ("weight", "--place", "l", "--n", str(10 ** 30), "--order", str(10 ** 30)),
    ])
    def test_lattice_term_bound(self, argv, monkeypatch, capsys):
        def unbuilt(*args):
            raise AssertionError("the representation was built")

        monkeypatch.setattr(UnramifiedRep, "symbolic", unbuilt)
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the ") and err.endswith(" more than 10000 terms\n")

    def test_lattice_term_bound_edge(self, capsys):
        # ranks (2, 1): 2 products and sum_(k <= 139) (k + 1) = 9870 terms
        code, out, _ = run_cli("zeta", "--n", "1", "--order", "139", capsys=capsys)
        assert code == 0
        assert json.loads(out)["series"]["order"] == 139

    # each command line with the ranks of its lattice series
    DENOMINATOR_CASES = {
        # ranks (71, 70): 4970 products alpha_i beta_j, 1 term at X^0 and 4970 at X^1
        ("weight", "--place", "l", "--n", "71", "--order", "1"): [(71, 70)],
        ("weight", "--n", "49", "--order", "1"): [(50, 49), (49, 48)],
        ("weight", "--n", "4", "--order", "4"): [(5, 4), (4, 3)],
    }

    @pytest.mark.parametrize("argv", list(DENOMINATOR_CASES))
    def test_lattice_count_also_bounds_the_denominators(self, argv, monkeypatch, capsys):
        # the lattice count is the only bound on the denominators, so the
        # polynomial work stays within a multiple of it: the three commands
        # make 210k, 142k and 33k term products, and multiplying in the r*s
        # linear factors one at a time makes the first about 12M
        products = count_term_products(monkeypatch)
        code, out, _ = run_cli(*argv, capsys=capsys)
        ranks = self.DENOMINATOR_CASES[argv]
        assert products[0] <= 50 * sum(zeta.lattice_terms(int(argv[-1]), ranks))
        assert code == 0
        assert json.loads(out)["placeKind"] in ("unramified", "dividing_l")

    def test_the_twisted_weight_sums_its_lattice_once(self, monkeypatch, capsys):
        # the level-1 lattice sum with the Schur check of each side, then the
        # denominator: 5,610 term products.  A second, regrouped enumeration
        # of the same lattice with Schur values of its own made 7,270.
        products = count_term_products(monkeypatch)
        code, _, _ = run_cli("weight", "--place", "l", "--n", "4", "--level", "1",
                             "--order", "6", capsys=capsys)
        assert code == 0
        assert products[0] <= 5610

    @pytest.mark.parametrize("level, cond, code", [
        (139, 0, 0),  # 140 * 141 / 2 = 9870 triples
        (140, 0, 2),  # 141 * 142 / 2 = 10011 triples
        (142, 3, 0),
        (10 ** 30, 0, 2),
        (10 ** 30, 10 ** 30 - 139, 0),
        (10 ** 30, 10 ** 30 + 1, 0),
    ])
    def test_weight_q_index_set_bound(self, level, cond, code, monkeypatch, capsys):
        if code == 2:
            monkeypatch.setattr(zeta, "weight_at_q_structural", None)
        start = time.perf_counter()
        got, out, err = run_cli("weight", "--place", "q", "--n", "2", "--level", str(level),
                                "--cond", str(cond), capsys=capsys)
        assert time.perf_counter() - start < 1
        assert got == code
        if code == 2:
            assert out == ""
            assert err == "error: the index set would need more than 10000 terms\n"
        else:
            d = level - cond
            assert len(json.loads(out)["indexSet"]) == max(d + 1, 0) * (d + 2) // 2

    @pytest.mark.parametrize("argv", [
        ("index", "--n", "100000", "--p", "2", "--level", "2"),
        ("weight", "--place", "q", "--n", "100000", "--cond", "2", "--level", "2", "--p", "2"),
        ("index", "--n", "100000000", "--p", "3", "--level", "3"),
        ("weight", "--place", "q", "--n", "100000000", "--cond", "3", "--level", "3", "--p", "3"),
        ("index", "--n", "3000", "--p", "3", "--level", "1", "--bruteforce"),
        ("index", "--n", "8000", "--p", "3", "--level", "1", "--bruteforce"),
    ])
    def test_index_size_bound(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(*argv, capsys=capsys)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "set_int_max_str_digits" not in err

    def test_index_size_bound_edge(self, capsys):
        # 2^14284 - 1 has 4300 digits, the most str() prints by default
        code, out, _ = run_cli("index", "--n", "14284", "--p", "2", "--level", "1",
                               capsys=capsys)
        assert code == 0
        assert len(str(json.loads(out)["index"])) == sys.int_info.default_max_str_digits
        code, out, err = run_cli("index", "--n", "14285", "--p", "2", "--level", "1",
                                 capsys=capsys)
        assert code == 2
        assert err == "error: the index at n=14285, p=2, m=1 would have more than 4300 digits\n"

    @pytest.mark.parametrize("argv, err", [
        # ran 6.6 s and 10.9 s while --order was unbounded (2-vCPU host, Python 3.11)
        (("--suite", "cauchy", "--order", "20"), "the cauchy suite's lattice series"),
        (("--suite", "weight-l", "--order", "40"), "the weight-l suite's lattice series"),
        (("--suite", "cauchy", "--order", "9"), "the cauchy suite's lattice series"),
        (("--suite", "all", "--order", "9"), "the cauchy suite's lattice series"),
        (("--suite", "all", "--n-max", str(10 ** 30)), "the involution suite"),
        (("--suite", "unramified", "--order", "15"), "the unramified suite's lattice series"),
        (("--suite", "weight-l", "--order", "15"), "the weight-l suite's lattice series"),
        (("--suite", "unramified", "--order", str(10 ** 30)),
         "the unramified suite's lattice series"),
        (("--suite", "involution", "--n-max", "1000000"), "the involution suite"),
        (("--suite", "all", "--n-max", "10002", "--jobs", "2"), "the involution suite"),
    ])
    def test_verify_work_bound(self, argv, err, monkeypatch, capsys):
        def unrun(*args):
            raise AssertionError("a suite ran")

        # refused before any suite runs, the cheap ones of "all" included
        monkeypatch.setattr(suites, "run_checks", unrun)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unrun)
        start = time.perf_counter()
        code, out, got = run_cli("verify", *argv, capsys=capsys)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert got.startswith(f"error: {err} ")

    @pytest.mark.parametrize("suite, order", [
        ("cauchy", 8), ("unramified", 14), ("weight-l", 14), ("all", 6),
    ])
    def test_verify_work_bound_edge(self, suite, order, monkeypatch):
        # the largest admitted orders: 7977, 9934 and 7948 lattice terms
        ran = []
        monkeypatch.setattr(suites, "run_checks", lambda name, checks: ran.append(name))
        monkeypatch.setattr("whitlocal.report.merge_reports", lambda name, reports: None)
        args = cli.build_parser().parse_args(["verify", "--suite", suite, "--order", str(order)])
        cli._run_verify(args)
        assert ran == (list(suites.SUITES) if suite == "all" else [suite])

    def test_verify_involution_rank_bound_edge(self, monkeypatch):
        ran = []
        monkeypatch.setattr(suites, "run_checks", lambda name, checks: ran.append(len(checks)))
        args = cli.build_parser().parse_args(["verify", "--suite", "involution",
                                              "--n-max", "10001"])
        cli._run_verify(args)
        assert ran == [10_000]

    def test_every_suite_that_grows_with_order_or_n_max_is_bounded(self):
        reads = set()

        class Recording(SuiteConfig):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        def outcome(report):
            return [(c.id, c.status, c.witness) for c in report.checks]

        for name, suite in suites.SUITES.items():
            if name in WORK_BOUNDS:
                continue
            cfg = Recording(n_max=10, order=6, p=2, seed=0)
            reads.clear()
            report = suite(cfg)
            if reads & {"order", "n_max"}:
                # read without a bound, so the suite must cap both itself
                bigger = SuiteConfig(n_max=cfg.n_max + 4, order=cfg.order + 4, p=cfg.p, seed=cfg.seed)
                assert outcome(suite(bigger)) == outcome(report), name

    def test_terms_out_of_canonical_order_fail_verify(self, monkeypatch, capsys):
        ordered = exactalg._ordered

        def reversed_keys(terms):
            masks, decoded, bias, keys = ordered(terms)
            return masks, decoded, bias, keys[::-1]

        monkeypatch.setattr(exactalg, "_ordered", reversed_keys)
        code, out, _ = run_cli("verify", "--suite", "involution", "--n-max", "2", capsys=capsys)
        assert code == 1
        assert "out of order" in out

    def test_exponent_field_bound(self, capsys):
        code, out, _ = run_cli("whittaker", "--n", "1", "--mu", str(EXPONENT_LIMIT),
                               capsys=capsys)
        assert code == 0
        assert json.loads(out)["value"] == f"a1^{EXPONENT_LIMIT}"
        code, out, err = run_cli("whittaker", "--n", "1", "--mu", str(EXPONENT_LIMIT + 1),
                                 capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "'a1'" in err

    def test_charsum_residue_cardinality_contract(self, capsys):
        code, out, err = run_cli("charsum", "--p", "6", "--level", "1", "--valuations", "0",
                                 capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "error: residue cardinality must be a prime power, got 6\n"

    @pytest.mark.parametrize("argv", [
        ("charsum", "--p", "1000", "--level", "2", "--valuations", "0,0"),
        ("charsum", "--p", "997", "--level", "2", "--valuations", "0,0"),
        ("charsum", "--p", "2", "--level", "25", "--valuations", "0"),
        ("charsum", "--p", "2", "--level", "9", "--valuations", "0,0,5"),
        ("charsum", "--p", "3", "--level", str(10 ** 30), "--valuations", str(10 ** 30)),
    ])
    def test_charsum_enumeration_bound(self, argv, monkeypatch, capsys):
        # refused before the numeric oracle enumerates a single residue tuple
        monkeypatch.setattr(localrep, "product", None)
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_charsum_bound_edge(self, monkeypatch):
        monkeypatch.setattr(localrep, "product", lambda *args, **kwargs: iter(()))
        # (2^24)^1 = ENUMERATION_LIMIT tuples are admitted, one more power is not
        assert localrep.character_sum_numeric(2, 24, [0]) == 0
        with pytest.raises(EnumerationTooLarge):
            localrep.character_sum_numeric(2, 25, [0])
        with pytest.raises(EnumerationTooLarge):
            localrep.character_sum_numeric(2, 12, [0, 0, 0])

    @pytest.mark.parametrize("argv", [
        ("whittaker", "--n", "1500", "--mu", "0"),
        ("whittaker", "--n", "4000", "--mu", "0,0"),
        ("whittaker", "--n", "3", "--mu", "2,1,0", "--level", "1"),
        ("whittaker", "--n", "2", "--mu", "1,0,0", "--dual"),
    ])
    def test_whittaker_compares_ranks_before_building(self, argv, monkeypatch, capsys):
        def unbuilt(*args):
            raise AssertionError("the representation was built")

        monkeypatch.setattr(UnramifiedRep, "symbolic", unbuilt)
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: rank ")

    def test_contract_holds_in_a_process(self):
        proc = run_process("index", "--n", "2", "--p", "4", "--level", "1", "--bruteforce")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, echoed", [
    (("index", "--n", "2", "--p", "3"), {"level": 0}),
    (("charsum", "--p", "3", "--valuations", "0"), {"level": 1}),
    (("zeta", "--n", "1"), {"order": 6, "series.var": "X"}),
    (("weight", "--n", "2"), {"placeKind": "unramified", "order": 6}),
    (("weight", "--place", "l", "--n", "2"), {"level": 0, "value.var": "Y"}),
    (("weight", "--place", "q", "--n", "2"), {"conductorExponent": 0, "level": 0, "p": 2}),
    (("lfactor",), {"ranks": [2, 1], "variable": "X"}),
])
def test_parser_defaults(argv, echoed, capsys):
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    for path, want in echoed.items():
        value = payload
        for key in path.split("."):
            value = value[key]
        assert value == want, path


class TestInternalCheckFailure:
    @pytest.fixture
    def shifted_qpow(self, monkeypatch):
        # a kernel fault: every lattice term picks up a stray q^(1/2)
        monkeypatch.setattr(zeta, "qpow", lambda e: qpow(e + Fraction(1, 2)))

    def test_command_exits_three(self, shifted_qpow, capsys):
        code, out, err = run_cli("zeta", "--n", "2", "--order", "2", capsys=capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: internal check failed: modulus bookkeeping")
        assert "Traceback" not in err

    def test_verify_reports_an_error_and_exits_one(self, shifted_qpow, capsys):
        code, out, _ = run_cli("verify", "--suite", "unramified", "--order", "2",
                               capsys=capsys)
        assert code == 1
        statuses = {c["status"] for c in json.loads(out)["checks"]}
        assert statuses == {"error"}


def _stub_suite(cfg):
    check = CheckResult(f"stub/seed={cfg.seed}", "stub check", "pass", None, 0)
    return SuiteReport("stub", [check])


def _affinity_after(barrier):
    barrier.wait(timeout=60)
    return sorted(os.sched_getaffinity(0))


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers, **options):
        RecordingExecutor.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestJobs:
    @pytest.fixture
    def executor(self, monkeypatch):
        RecordingExecutor.sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        # five cheap suites stand in for the listed ones
        monkeypatch.setattr(suites, "SUITES", {f"stub{i}": _stub_suite for i in range(5)})
        return RecordingExecutor.sizes

    @pytest.mark.parametrize("jobs, workers", [("2", 2), ("5", 5), ("6", 5), ("100000", 5)])
    def test_worker_count_is_capped_by_the_suites(self, executor, jobs, workers, capsys):
        code, out, _ = run_cli("verify", "--suite", "all", "--jobs", jobs, capsys=capsys)
        assert code == 0
        assert executor == [workers]
        assert len(json.loads(out)["checks"]) == 5

    @pytest.mark.parametrize("suite, jobs", [("all", "1"), ("stub0", "4")])
    def test_in_process_runs_construct_no_executor(self, executor, suite, jobs, capsys):
        code, _, _ = run_cli("verify", "--suite", suite, "--jobs", jobs, capsys=capsys)
        assert code == 0
        assert executor == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_pool_workers_are_pinned_to_disjoint_cpus(self):
        cpus = sorted(os.sched_getaffinity(0))
        workers = min(2, len(cpus))
        options = cli._pinned_pool_options(workers)
        with (multiprocessing.Manager() as manager,
              concurrent.futures.ProcessPoolExecutor(max_workers=workers, **options) as pool):
            # each task holds its worker until every worker has one
            barrier = manager.Barrier(workers)
            held = list(pool.map(_affinity_after, [barrier] * workers))
        assert sorted(c for cpu_set in held for c in cpu_set) == cpus
        assert all(held)

    def test_more_workers_than_cpus_stay_unpinned(self):
        if hasattr(os, "sched_getaffinity"):
            assert cli._pinned_pool_options(len(os.sched_getaffinity(0)) + 1) == {}

    def test_workers_need_no_inherited_state(self):
        # a spawned worker starts from a fresh import, so this fails if the
        # task relied on anything a forked worker would inherit
        cfg = SuiteConfig(n_max=3, order=6, p=2, seed=0)
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            report = pool.submit(cli._run_suite, "weyl", cfg).result(timeout=120)
        assert report_to_json(report) == report_to_json(cli._run_suite("weyl", cfg))

    def test_worker_task_pickles(self):
        task = (cli._run_suite, "weyl", SuiteConfig(n_max=3, order=6, p=2, seed=5))
        fn, name, cfg = pickle.loads(pickle.dumps(task))
        assert fn is cli._run_suite
        assert cfg == task[2]
        report = fn(name, cfg)
        assert pickle.loads(pickle.dumps(report)) == report
        assert report.passed


class TestEmitFormats:
    def test_json_parses(self, capsys):
        code, out, _ = run_cli("whittaker", "--n", "2", "--mu", "1,0", capsys=capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == "a1*q^(-1/2) + a2*q^(-1/2)"
        assert obj["model"] == "spherical"

    def test_csv_parses(self, capsys):
        code, out, _ = run_cli("index", "--n", "2", "--p", "2", "--level", "1",
                               "--emit", "csv", capsys=capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["field", "value"]
        values = dict(rows[1:])
        assert values["index"] == "3"

    def test_text_lines(self, capsys):
        code, out, _ = run_cli("params", "--n", "2", "--s", "1/2", "--w", "1/2",
                               "--emit", "text", capsys=capsys)
        assert code == 0
        assert "isFixedPoint = true" in out

    def test_report_csv(self, capsys):
        code, out, _ = run_cli("verify", "--suite", "weyl", "--emit", "csv",
                               capsys=capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:2] == ["suite", "check_id"]
        assert all(row[3] == "pass" for row in rows[1:])

    def test_report_text(self, capsys):
        code, out, _ = run_cli("verify", "--suite", "cusp", "--emit", "text",
                               capsys=capsys)
        assert code == 0
        assert "suite cusp: pass" in out


class TestPayloadContent:
    def test_zeta_coefficients_match_library(self, capsys):
        code, out, _ = run_cli("zeta", "--n", "1", "--order", "4", capsys=capsys)
        assert code == 0
        obj = json.loads(out)
        result = local_zeta_unramified(
            UnramifiedRep.symbolic(2, "a"), UnramifiedRep.symbolic(1, "b"), "X", 4
        )
        assert obj["series"]["coeffs"] == [c.to_text() for c in result.series.coeffs]
        assert obj["matchesClosedForm"] is True

    def test_lfactor_denominator(self, capsys):
        code, out, _ = run_cli("lfactor", "--rank-a", "1", "--rank-b", "1",
                               capsys=capsys)
        assert code == 0
        obj = json.loads(out)
        assert ref.LaurentPoly.parse(obj["denominator"]) == ref.LaurentPoly.parse("1 - X*a1*b1")

    def test_lfactor_rank_cap(self, capsys):
        code, _, err = run_cli("lfactor", "--rank-a", "5", "--rank-b", "4",
                               capsys=capsys)
        assert code == 2
        assert "cap" in err

    def test_weight_q_payload(self, capsys):
        code, out, _ = run_cli("weight", "--place", "q", "--n", "2", "--cond", "1",
                               "--level", "1", "--p", "2", capsys=capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == "1/3"
        assert obj["paperComparison"]["computedConstant"] == "1/3"

    def test_weight_l_payload(self, capsys):
        code, out, _ = run_cli("weight", "--place", "l", "--n", "2", "--level", "1",
                               "--order", "4", capsys=capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["value"]["coeffs"][1] == "b1*g1 + b2*g1"
        assert obj["paperComparison"]["computedConstant"] == "q"

    def test_charsum_oracle_fields(self, capsys):
        code, out, _ = run_cli("charsum", "--p", "3", "--level", "1",
                               "--valuations", "1,2", capsys=capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == "9"
        assert obj["agree"] is True

    def test_charsum_agree_is_exact(self, monkeypatch, capsys):
        # a drift in the float sum shows in numericOracle, not in agree
        monkeypatch.setattr(localrep, "character_sum_numeric", lambda p, m, vals: 9 + 2e-9)
        code, out, _ = run_cli("charsum", "--p", "3", "--level", "1",
                               "--valuations", "1,2", capsys=capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["numericOracle"] == [9 + 2e-9, 0.0]
        assert obj["agree"] is True

    def test_charsum_symbolic(self, capsys):
        code, out, _ = run_cli("charsum", "--p", "symbolic", "--level", "2",
                               "--valuations", "2,2", capsys=capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == "q^4"
        assert "numericOracle" not in obj

    def test_twisted_whittaker(self, capsys):
        code, out, _ = run_cli("whittaker", "--n", "2", "--mu", "0", "--level", "1",
                               capsys=capsys)
        assert code == 0
        assert json.loads(out)["value"] == "0"


class TestDeterminism:
    def test_same_invocation_same_bytes(self, capsys):
        _, first, _ = run_cli("verify", "--suite", "involution", capsys=capsys)
        _, second, _ = run_cli("verify", "--suite", "involution", capsys=capsys)
        assert first == second

    def test_seeded_suite_is_reproducible(self, capsys):
        _, first, _ = run_cli("verify", "--suite", "contragredient", "--seed", "7",
                              capsys=capsys)
        _, second, _ = run_cli("verify", "--suite", "contragredient", "--seed", "7",
                               capsys=capsys)
        assert first == second

    def test_folded_checks_carry_timings(self, capsys):
        code, out, _ = run_cli("verify", "--suite", "involution", "--timings",
                               "--emit", "json", capsys=capsys)
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) == 9
        assert all(type(c["millis"]) is int for c in checks)

    def test_timings_are_opt_in(self, capsys):
        _, out, _ = run_cli("verify", "--suite", "weyl", capsys=capsys)
        assert "millis" not in out
        _, out, _ = run_cli("verify", "--suite", "weyl", "--timings", capsys=capsys)
        assert "millis" in out


@pytest.mark.parametrize("suite", ["involution", "weyl", "cusp", "weight-q"])
def test_cheap_suites_pass(suite, capsys):
    code, out, _ = run_cli("verify", "--suite", suite, capsys=capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"
