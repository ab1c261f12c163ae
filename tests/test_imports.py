"""Each command imports only the layers it runs, and no costly standard module.

A start with no cached bytecode compiles every module it imports, so the
modules a command loads are most of its start-up cost.  Each case runs in a
fresh interpreter and reads which modules are in ``sys.modules`` afterwards;
it counts modules, not milliseconds.  ``dataclasses`` imports ``inspect``,
which alone costs a small command several milliseconds, so no command may
load either unless the bare interpreter already has.
"""

import json
import subprocess
import sys

import pytest

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
]
VERIFY = ["verify", "--suite", "weyl", "--n-max", "2"]


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


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS] + [VERIFY])
def test_command_loads_no_costly_standard_module(argv):
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, check=True).stdout.split()
    assert start_modules(argv) & COSTLY <= set(bare)
