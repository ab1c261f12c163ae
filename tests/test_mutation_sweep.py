"""tools/mutation_sweep.py tells a mutant that changes the output from one that changes nothing,
names the function that holds each site, sweeps a whole module when no function is named, exits 1
on a survivor the ledger lacks, refuses a function name it cannot sweep, and leaves no process of a
timed-out command running."""

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
        capture_output=True, text=True,
    )
    # verify kills these mutants, so the ledger holds none of them
    assert proc.returncode == 1
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


def _stand_in(tmp_path):
    """A package whose command checks double and never calls unused."""
    package = tmp_path / "whitlocal"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "m.py").write_text("def double(x):\n    return x * 2\n\n\n"
                                  "def unused(x):\n    return x + 1\n")
    (package / "__main__.py").write_text("import sys\nfrom whitlocal.m import double\n"
                                         "sys.exit(double(3) != 6)\n")
    return tmp_path


def test_with_no_function_the_whole_module_is_swept_and_a_survivor_outside_the_ledger_fails(
        tmp_path):
    src = _stand_in(tmp_path)
    proc = subprocess.run([sys.executable, str(SWEEP), "--src", str(src), "--module", "m",
                           "--", "check"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1:] == [
        "killed    double line 2: Mult -> FloorDiv",
        "killed    double line 2: 2 -> 3",
        "survived  unused line 6: Add -> Sub [not in the ledger]",
        "survived  unused line 6: 1 -> 2 [not in the ledger]",
        "killed 2 of 4 mutants (50%), 0 of them by the time limit; 2 survivors not in the "
        "ledger; 0 survivors changed the output",
    ]


def test_a_sweep_with_every_mutant_killed_exits_0(tmp_path):
    src = _stand_in(tmp_path)
    proc = subprocess.run([sys.executable, str(SWEEP), "--src", str(src), "--module", "m",
                           "--function", "double", "--", "check"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].startswith("killed 2 of 2 mutants (100%)")


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
