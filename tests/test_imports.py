"""Each command imports only the layers it runs, and no costly standard module.

A start with no cached bytecode compiles every module it imports, so the
modules a command loads are most of its start-up cost.  Each case runs in a
fresh interpreter and reads which modules are in ``sys.modules`` afterwards;
it counts modules, not milliseconds.  ``dataclasses`` imports ``inspect``,
which alone costs a small command several milliseconds, so no command may
load either unless the bare interpreter already has.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import whitlocal

PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import whitlocal
else:
    from whitlocal import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(json.dumps(sorted(sys.modules)))
"""
COSTLY = {"dataclasses", "inspect"}
COMMANDS = [
    (["params", "--n", "2"], {"suites", "report", "zeta", "whittaker", "symfunc"}),
    (["index", "--n", "2", "--p", "3", "--level", "1", "--bruteforce"],
     {"suites", "report", "reciprocity", "zeta", "whittaker", "symfunc"}),
    (["charsum", "--p", "3", "--level", "1", "--valuations", "0,1"],
     {"suites", "report", "reciprocity", "zeta", "whittaker", "symfunc"}),
    (["lfactor"], {"suites", "report", "reciprocity"}),
    (["whittaker", "--n", "2", "--mu", "1,0"], {"suites", "report", "reciprocity"}),
    (["zeta", "--n", "1", "--order", "2"], {"suites", "report", "reciprocity"}),
    (["weight", "--n", "2", "--order", "1"], {"suites", "report", "reciprocity"}),
]
VERIFY = ["verify", "--suite", "weyl", "--n-max", "2"]
# the forked suite runner of --jobs N, with a small bound on each suite
VERIFY_JOBS = ["verify", "--suite", "all", "--jobs", "2", "--n-max", "3", "--order", "2"]


def start_modules(argv: list[str] | None) -> set[str]:
    """Every module in sys.modules after a fresh interpreter runs the command line."""
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout))


def loaded_modules(argv: list[str] | None) -> set[str]:
    return {name.split(".", 1)[1] for name in start_modules(argv)
            if name.startswith("whitlocal.")}


def test_package_import_loads_no_module():
    assert loaded_modules(None) == set()


@pytest.mark.parametrize("argv, unloaded", COMMANDS)
def test_command_leaves_layers_unloaded(argv, unloaded):
    loaded = loaded_modules(argv)
    assert "cli" in loaded
    assert loaded & unloaded == set()


def test_verify_loads_suites_and_report():
    assert {"suites", "report"} <= loaded_modules(VERIFY)


def test_verify_jobs_loads_no_executor_package():
    loaded = start_modules(VERIFY_JOBS)
    assert "whitlocal.suites" in loaded
    assert {name.partition(".")[0] for name in loaded} & {"concurrent", "multiprocessing"} == set()


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS] + [VERIFY, VERIFY_JOBS])
def test_command_loads_no_costly_standard_module(argv):
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, check=True).stdout.split()
    assert start_modules(argv) & COSTLY <= set(bare)


def test_no_module_but_main_imports_cli():
    # cli is the front end: it writes every byte of stdout, and no layer reads it back
    importers = set()
    for path in Path(whitlocal.__path__[0]).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.rpartition(".")[2] == "cli" for name in names):
                importers.add(path.name)
    assert importers == {"__main__.py"}


def test_cli_holds_no_verify_runner():
    # suites.run resolves, bounds and forks the suites, so a payload command,
    # which loads cli but not suites, compiles none of that code
    source = (Path(whitlocal.__path__[0]) / "cli.py").read_text()
    assert re.findall(r"fork|sched_|pickle|SUITES|WORK_BOUNDS|SuiteConfig", source) == []
