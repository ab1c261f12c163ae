"""tools/mutation_sweep.py tells a mutant that changes the output from one that changes nothing,
names the function that holds each site, and refuses a function name it cannot sweep."""

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "mutation_sweep.py"


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
    spec = importlib.util.spec_from_file_location("mutation_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    tree = ast.parse("def f(x):\n    return x < 0\n"
                     "class C:\n    def f(self, x):\n        return x + 1\n")
    sites = [(name, line, what) for name, line, what, _ in sweep.mutations(tree, {"f"})]
    # the site of a method is named Class.method, so two functions of one
    # name stay apart
    assert sites == [("f", 2, "Lt -> LtE"), ("f", 2, "0 -> 1"),
                     ("C.f", 5, "Add -> Sub"), ("C.f", 5, "1 -> 2")]


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
