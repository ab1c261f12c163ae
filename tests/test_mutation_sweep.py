"""tools/mutation_sweep.py tells a mutant that changes the output from one that changes nothing,
names the function that holds each site, refuses a function name it cannot sweep, and leaves
no process of a timed-out command running."""

import ast
import importlib.util
import re
import subprocess
import sys
import time
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "mutation_sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("mutation_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def _running(pid: int) -> bool:
    """True while the process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def test_a_mutant_that_changes_the_payload_is_reported_changed():
    # no check of the whittaker command reads delta_half's exponent, so a
    # mutated exponent exits 0 with a different value
    proc = subprocess.run(
        [sys.executable, str(SWEEP), "--module", "whittaker", "--function", "delta_half",
         "--", "whittaker", "--n", "2", "--mu", "1,0"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    changed = sum(line.startswith("changed ") for line in lines)
    assert changed >= 1
    # every mutant line names the function that holds its site
    mutants = lines[1:-1]
    assert mutants and all(
        re.fullmatch(r"(killed|timed out|changed|survived) +delta_half line \d+: .+ -> .+", line)
        for line in mutants
    ), mutants
    assert lines[-1].endswith(f"; {changed} survivors changed the output")


def test_a_method_of_a_class_is_swept():
    sweep = _load_sweep()
    tree = ast.parse("def f(x):\n    return x < 0\n"
                     "class C:\n    def f(self, x):\n        return x + 1\n")
    sites = [(name, line, what) for name, line, what, _ in sweep.mutations(tree, {"f"})]
    # the site of a method is named Class.method, so two functions of one
    # name stay apart
    assert sites == [("f", 2, "Lt -> LtE"), ("f", 2, "0 -> 1"),
                     ("C.f", 5, "Add -> Sub"), ("C.f", 5, "1 -> 2")]
    # and that name, as the sweep prints it, selects the method alone
    only = [(name, line) for name, line, _, _ in sweep.mutations(tree, {"C.f"})]
    assert only == [("C.f", 5), ("C.f", 5)]


def test_a_method_is_named_as_the_sweep_prints_it():
    proc = subprocess.run(
        [sys.executable, str(SWEEP), "--module", "exactalg", "--function",
         "LaurentPoly.monomial_sum", "--function", "LaurentPoly.nothing", "--", "verify"],
        capture_output=True, text=True,
    )
    # the known name passes, so only the unknown one is refused
    assert proc.returncode == 2
    assert proc.stderr == "error: exactalg has no function or method named LaurentPoly.nothing\n"


def test_a_timeout_kills_the_workers_of_the_command(tmp_path):
    # a stand-in package whose command starts a worker and outlives the limit
    # with it, as a hung verify --jobs 2 and its forked child would
    package = tmp_path / "whitlocal"
    package.mkdir()
    (package / "__init__.py").write_text("")
    pid_file = tmp_path / "worker.pid"
    source = (
        "import subprocess, sys, time\n"
        "worker = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(worker.pid))\n"
        "time.sleep(60)\n"
    )
    result = _load_sweep().run(package, package / "__main__.py", source, [], 2.0)
    assert result == ("timed out", b"")
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 5
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)


def test_an_unknown_function_is_refused():
    # a tuple subclass has no __init__ to sweep, so the name matches nothing
    proc = subprocess.run(
        [sys.executable, str(SWEEP), "--module", "symfunc", "--function", "schur",
         "--function", "__init__", "--", "verify", "--suite", "schur"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: symfunc has no function or method named __init__\n"
