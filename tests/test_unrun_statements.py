"""tools/unrun_statements.py checks the statements no command line ran against its ledger."""

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unrun_statements.py"
spec = importlib.util.spec_from_file_location("unrun_statements", TOOL)
unrun_statements = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unrun_statements)

CLI = unrun_statements.PACKAGE / "cli.py"
MAIN = unrun_statements.PACKAGE / "__main__.py"


def line_of(path: Path, text: str) -> int:
    (line,) = [i for i, s in enumerate(path.read_text().splitlines(), 1) if text in s]
    return line


def test_finder_reports_what_two_argv_left_unrun():
    before = dict(sys.modules)
    exit_, argv = os._exit, sys.argv
    found = unrun_statements.unrun([
        ("params", "--n", "2"),
        ("params", "--n", "2", "--s", "1/0", "--w", "1"),
    ])
    both = line_of(CLI, 'raise ValueError("give both --s and --w')
    assert ("src/whitlocal/cli.py", both, 'raise ValueError("give both --s and --w, or '
            'neither for symbolic parameters")') in unrun_statements.located(found)
    # the zero denominator and the symbolic pair ran, and so did cli's module body
    ran = [line_of(CLI, 'raise ValueError(f"zero denominator in'),
           line_of(CLI, "pair = ParamPair.symbolic(args.n)"),
           line_of(CLI, "EMIT_CHOICES = ")]
    assert not {(CLI, line) for line in ran} & set(found)
    # params never imports zeta, so none of its statements ran, its docstring aside
    zeta = unrun_statements.PACKAGE / "zeta.py"
    assert (zeta, 1) not in found
    assert (zeta, line_of(zeta, "MAX_TERMS = 10_000")) in found
    assert found == sorted(found)
    # the exit path ran its usage error and its closed stdout, and os._exit is back
    ran = [line_of(MAIN, "code = exc.code"), line_of(MAIN, "code, note = EX_IOERR")]
    assert not {(MAIN, line) for line in ran} & set(found)
    assert (os._exit, sys.argv) == (exit_, argv)
    # the package was imported afresh and the modules imported before are back
    assert {k: v for k, v in sys.modules.items() if k.startswith("whitlocal")} == \
        {k: v for k, v in before.items() if k.startswith("whitlocal")}


def test_every_ledger_line_parses_and_quotes_source_that_exists():
    # read_ledger refuses a malformed line or a reason outside the closed set
    lines = unrun_statements.read_ledger(unrun_statements.LEDGER.read_text())
    kinds = {kind for kind, _, _, _ in lines}
    assert kinds == {"statement", "mutant"}
    for kind, where, reason, source in lines:
        path, *mutant = where.split(" ", 2)
        text = (unrun_statements.ROOT / path).read_text()
        assert source in {line.strip() for line in text.splitlines()}, (where, source)
        if reason.startswith(unrun_statements.TIER1):
            test_file, _, test = reason[len(unrun_statements.TIER1):].partition("::")
            test_source = (unrun_statements.ROOT / test_file).read_text()
            assert f"def {test.split('::')[-1]}(" in test_source
        if kind == "mutant":
            function, mutation = mutant
            assert f"def {function.split('.')[-1]}(" in text
            assert re.fullmatch(r"\w+ -> \w+", mutation), mutation


@pytest.mark.parametrize("line", [
    "src/whitlocal/cli.py guard raise",
    "src/whitlocal/cli.py: because: raise",
    "src/whitlocal/cli.py: equivalent: raise",
    "src/whitlocal/cli.py: tier1:: raise",
    "src/whitlocal/cli.py: guard: ",
    "src/whitlocal/cli.py main Eq -> NotEq: guard: if x == 1:",
])
def test_a_malformed_ledger_line_is_refused(line):
    with pytest.raises(ValueError, match="malformed ledger line"):
        unrun_statements.read_ledger(line)


def test_the_tool_exits_one_on_a_new_or_a_stale_statement(tmp_path, monkeypatch, capsys):
    zeta = unrun_statements.PACKAGE / "zeta.py"
    found = [(zeta, line_of(zeta, "MAX_TERMS = 10_000"))]
    monkeypatch.setattr(unrun_statements, "command_lines", lambda: [])
    monkeypatch.setattr(unrun_statements, "unrun", lambda argvs: found)
    ledger = tmp_path / "ledger.txt"
    monkeypatch.setattr(unrun_statements, "LEDGER", ledger)
    kept = "src/whitlocal/zeta.py: guard: MAX_TERMS = 10_000\n"
    mutant = "src/whitlocal/zeta.py lattice Eq -> NotEq: gap: if x == 1:\n"
    ledger.write_text(kept + mutant)
    assert unrun_statements.main() == 0
    assert capsys.readouterr().out.endswith(", 0 stale lines in it\n")
    # the statement has no ledger line: it is new
    ledger.write_text(mutant)
    assert unrun_statements.main() == 1
    assert capsys.readouterr().out.startswith(
        f"new: src/whitlocal/zeta.py:{found[0][1]}: MAX_TERMS = 10_000\n")
    # a ledger line whose statement ran is stale
    found.clear()
    ledger.write_text(kept)
    assert unrun_statements.main() == 1
    assert capsys.readouterr().out.startswith("stale: src/whitlocal/zeta.py: MAX_TERMS = 10_000\n")
