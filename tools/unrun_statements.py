"""List the statements of the whitlocal package that no command line runs.

Runs a fixed set of command lines through ``whitlocal.cli.main`` in this
process, under ``sys.settrace``, and prints ``file:line`` and the source of
every statement under src/whitlocal on which no line event fired, then
their count.  Docstrings are not statements here, and neither are
``global`` and ``nonlocal``, which compile to nothing.  A compound
statement (``if``, ``for``, ``def`` and the like) counts as run when its
header ran; its body counts statement by statement.  The command lines are:

- every op of ``bench/workloads.catalogue()``, the served traffic;
- ``verify --suite all --seed 1`` at ``--jobs 1`` and ``--jobs 2``;
- ``verify --suite negative-control --timings``;
- ``INVALID`` below: argv that each fire one input check.

The package is imported afresh under the trace, so module-level statements
count, and the modules imported before are put back afterwards.  Only this
process is traced: at ``--jobs 2`` it runs its share of the suites and
reads the forked worker's reports, so what runs only in the worker (the
branch that sends its reports and exits) is listed as never run.

    python3 tools/unrun_statements.py

The trace slows the commands down, so a run takes about half a minute on a
2-vCPU host.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "whitlocal"

EXTRA = (
    ("verify", "--suite", "all", "--seed", "1", "--jobs", "1"),
    ("verify", "--suite", "all", "--seed", "1", "--jobs", "2"),
    ("verify", "--suite", "negative-control", "--timings"),
)

# argv that each fire an input check of the command line or of the code
# behind it: exit 2 with an ``error:`` line, or argparse's usage error
INVALID = (
    ("lfactor", "--rank-a", "0", "--rank-b", "1"),
    ("lfactor", "--rank-a", "5", "--rank-b", "4"),
    ("lfactor", "--rank-a", "2", "--rank-b", "1", "--var", "q"),
    ("whittaker", "--n", "2", "--mu", "1,x"),
    ("whittaker", "--n", "2", "--mu", "10000,0"),
    ("whittaker", "--n", "3", "--mu", "2,1,0", "--level", "1"),
    ("whittaker", "--n", "2", "--mu", "1,0,0"),
    ("whittaker", "--n", "0", "--mu", "1"),
    ("whittaker", "--n", "2", "--mu", "1", "--level", "-1"),
    ("whittaker", "--n", "2", "--mu", "1", "--level", "0", "--dual"),
    ("zeta", "--n", "0"),
    ("zeta", "--n", "2", "--order", "-1"),
    ("zeta", "--n", "6", "--order", "8"),
    ("zeta", "--n", "1", "--order", "2", "--var", "3x"),
    ("weight", "--n", "2", "--order", "-1"),
    ("weight", "--n", "2", "--var", "q"),
    ("weight", "--place", "unramified", "--n", "1"),
    ("weight", "--place", "l", "--n", "1"),
    ("weight", "--place", "l", "--n", "2", "--level", "-1"),
    ("weight", "--place", "q", "--n", "2", "--p", "symbolic"),
    ("weight", "--place", "q", "--n", "2", "--cond", "-1"),
    ("weight", "--place", "q", "--n", "2", "--level", "200"),
    ("weight", "--place", "q", "--n", "2", "--level", "-1"),
    ("weight", "--place", "q", "--n", "1", "--level", "1", "--p", "2"),
    ("index", "--n", "2", "--p", "symbolic"),
    ("index", "--n", "2", "--p", "1"),
    ("index", "--n", "1", "--p", "2"),
    ("index", "--n", "2", "--p", "6"),
    ("index", "--n", "2", "--p", "4", "--level", "1", "--bruteforce"),
    ("index", "--n", "14285", "--p", "2", "--level", "1"),
    ("index", "--n", "2", "--p", "2", "--level", "-1"),
    ("index", "--n", "2", "--p", "1099511627777"),
    ("index", "--n", "2", "--p", "x"),
    ("charsum", "--p", "1", "--valuations", "0"),
    ("charsum", "--p", "2", "--valuations", "0,-1"),
    ("charsum", "--p", "2", "--level", "-1", "--valuations", "0"),
    ("charsum", "--p", "2", "--level", "25", "--valuations", "0"),
    ("params", "--n", "2", "--s", "1/2"),
    ("params", "--n", "2", "--s", "1/0", "--w", "1"),
    ("params", "--n", "2", "--s", "x", "--w", "1"),
    ("params", "--n", "2", "--s", "1e12901", "--w", "0"),
    ("params", "--n", "1"),
    ("verify", "--suite", "nosuch"),
    ("verify", "--suite", "weyl", "--jobs", "0"),
    ("verify", "--suite", "cauchy", "--order", "-1"),
    ("verify", "--suite", "cauchy", "--order", "20"),
    ("verify", "--suite", "all", "--n-max", "10002"),
    ("verify", "--suite", "involution", "--n-max", "1"),
    ("verify", "--suite", "weight-q", "--p", "6"),
    ("verify", "--suite", "weight-q", "--p", "1"),
    ("zeta", "--no-such-flag"),
)


def command_lines() -> list[tuple[str, ...]]:
    """The catalogue's argv, then EXTRA and INVALID."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [op.argv for op in workloads.catalogue()] + list(EXTRA) + list(INVALID)


def statements(source: str) -> dict[int, tuple[int, int]]:
    """First line -> (first, last) line whose line event counts as running it."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    spans = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        # a compound statement runs when its header does
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans[first] = (first, last)
    return spans


def unrun(argvs) -> list[tuple[Path, int]]:
    """(module path, first line) of each statement none of the argvs ran, in file order."""
    seen: dict[str, set[int]] = {}
    package = str(PACKAGE)

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        lines = seen.setdefault(filename, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "whitlocal"}
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(PACKAGE.parent))
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        from whitlocal import cli

        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(list(argv))
                except SystemExit:
                    pass
    finally:
        sys.settrace(previous)
        sys.path.remove(str(PACKAGE.parent))
        for name in [k for k in sys.modules if k.split(".")[0] == "whitlocal"]:
            del sys.modules[name]
        sys.modules.update(saved)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = seen.get(str(path), set())
        for first, (lo, hi) in sorted(statements(path.read_text()).items()):
            if ran.isdisjoint(range(lo, hi + 1)):
                out.append((path, first))
    return out


def report(found) -> list[str]:
    """'file:line: source' for each (module path, line), the file relative to the repo."""
    sources: dict[Path, list[str]] = {}
    out = []
    for path, line in found:
        text = sources.setdefault(path, path.read_text().splitlines())
        out.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return out


def main() -> int:
    found = unrun(command_lines())
    for line in report(found):
        print(line)
    print(f"{len(found)} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
