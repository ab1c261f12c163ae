"""tools/unrun_statements.py lists the statements no command line ran."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unrun_statements.py"
spec = importlib.util.spec_from_file_location("unrun_statements", TOOL)
unrun_statements = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unrun_statements)

CLI = unrun_statements.PACKAGE / "cli.py"


def line_of(path: Path, text: str) -> int:
    (line,) = [i for i, s in enumerate(path.read_text().splitlines(), 1) if text in s]
    return line


def test_finder_reports_what_two_argv_left_unrun():
    before = dict(sys.modules)
    found = unrun_statements.unrun([
        ("params", "--n", "2"),
        ("params", "--n", "2", "--s", "1/0", "--w", "1"),
    ])
    report = unrun_statements.report(found)
    both = line_of(CLI, 'raise ValueError("give both --s and --w')
    assert f"src/whitlocal/cli.py:{both}: raise ValueError(\"give both --s and --w, or " \
        "neither for symbolic parameters\")" in report
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
    # the package was imported afresh and the modules imported before are back
    assert {k: v for k, v in sys.modules.items() if k.startswith("whitlocal")} == \
        {k: v for k, v in before.items() if k.startswith("whitlocal")}
