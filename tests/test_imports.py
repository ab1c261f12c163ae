"""Each command imports only the layers it runs.

A start with no cached bytecode compiles every module it imports, so the
modules a command loads are most of its start-up cost.  Each case runs in a
fresh interpreter and reads which ``whitlocal`` modules are in ``sys.modules``
afterwards; it counts modules, not milliseconds.
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
print(json.dumps(sorted(name.split(".", 1)[1] for name in sys.modules
                        if name.startswith("whitlocal."))))
"""


def loaded_modules(argv: list[str] | None) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout))


def test_package_import_loads_no_module():
    assert loaded_modules(None) == set()


@pytest.mark.parametrize("argv, unloaded", [
    (["params", "--n", "2"], {"suites", "report", "zeta", "whittaker", "symfunc"}),
    (["index", "--n", "2", "--p", "3", "--level", "1", "--bruteforce"],
     {"suites", "report", "reciprocity", "zeta", "whittaker", "symfunc"}),
    (["charsum", "--p", "3", "--level", "1", "--valuations", "0,1"],
     {"suites", "report", "reciprocity", "zeta", "whittaker", "symfunc"}),
    (["lfactor"], {"suites", "report", "reciprocity"}),
])
def test_command_leaves_layers_unloaded(argv, unloaded):
    loaded = loaded_modules(argv)
    assert "cli" in loaded
    assert loaded & unloaded == set()


def test_verify_loads_suites_and_report():
    assert {"suites", "report"} <= loaded_modules(["verify", "--suite", "weyl", "--n-max", "2"])
