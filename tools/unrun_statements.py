"""Check the statements of the whitlocal package that no command runs against a ledger.

Runs a fixed set of command lines through ``whitlocal.cli.main``, and
``ENTRY`` below as ``python -m whitlocal`` runs them, in this process, under
``sys.settrace``, and finds every statement under src/whitlocal on which no
line event fired.  Docstrings are not statements here, nor is the body of
``if TYPE_CHECKING:``, which only a type checker reads, nor ``global`` and
``nonlocal``, which compile to nothing.  A compound statement (``if``,
``for``, ``def`` and the like) counts as run when its header ran; its body
counts statement by statement.  The command lines are:

- every op of ``bench/workloads.catalogue()``, the served traffic;
- ``verify --suite all --seed 1`` at ``--jobs 1`` and ``--jobs 2``;
- ``verify --suite negative-control --timings``;
- ``INVALID`` below: argv that each fire one input check;
- ``ENTRY`` below, through ``runpy`` as ``python -m whitlocal``; its
  ``run`` ends in ``os._exit``, which is replaced by ``sys.exit`` while they
  run, and put back afterwards.

The package is imported afresh under the trace, so module-level statements
count, and the modules imported before are put back afterwards.  Only this
process is traced: at ``--jobs 2`` it runs its share of the suites and
reads the forked worker's reports, so what runs only in the worker (the
branch that sends its reports and exits) is never run here.

Every statement that stays unrun has a line in the ledger,
tools/unrun_ledger.txt, keyed by its file and the stripped text of its first
line, not by its line number, with the reason it may stay unrun (see
REASONS).  The tool prints each unrun statement that has no ledger line
("new") and each ledger line whose statement ran or is gone ("stale"), then
a count, and exits 1 if it printed either, else 0:

    python3 tools/unrun_statements.py

The same ledger keeps the mutants of tools/mutation_sweep.py that survive
``verify --suite all --jobs 1``, one line each, with the reason each may
stay alive; this tool reads only the statement lines.  The trace slows the
commands down, so a run takes about half a minute on a 2-vCPU host.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "whitlocal"
LEDGER = ROOT / "tools" / "unrun_ledger.txt"

# A ledger line is "<where>: <reason>: <source text>", where <where> is the
# file of a never-run statement, or "<file> <Function> <mutation>" of a
# surviving mutant as tools/mutation_sweep.py names it, and the source text
# is the stripped first line of the statement, or the line of the mutated
# site.  The reasons a statement may stay unrun:
#   guard     refuses outside input or an impossible internal state
#   exit      an exit path that only a failing host or stream reaches
#   worker    runs only in a forked verify child
#   protocol  an operator-protocol fallback, such as __eq__'s NotImplemented
#   text      a witness that a failing check can print
# and those a mutant may stay alive:
#   equivalent  it changes nothing any input can show
#   gap         a fault no check catches yet, to close
# Either may be "tier1:<pytest node id>": reached, or caught, only by that test.
REASONS = {
    "statement": {"guard", "exit", "worker", "protocol", "text"},
    "mutant": {"equivalent", "gap"},
}
TIER1 = "tier1:"

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

# (argv, whether stdout is open) of the runs of the package's exit path: a
# valid command, an argparse usage error, and a valid command with stdout closed
ENTRY = (
    (("params", "--n", "2"), True),
    (("params", "--n", "x"), True),
    (("params", "--n", "2"), False),
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
    skipped = set()  # docstrings, and what only a type checker reads
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skipped.add(first)
        elif (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            skipped.update(n for stmt in node.body for n in ast.walk(stmt))
    spans = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in skipped
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
    previous, exit_, argv0 = sys.gettrace(), os._exit, sys.argv
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
        # run ends in os._exit, which would end this process too
        os._exit = sys.exit
        for argv, open_stdout in ENTRY:
            sys.argv = ["whitlocal", *argv]
            with contextlib.redirect_stdout(io.StringIO() if open_stdout else None), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    runpy.run_module("whitlocal", run_name="__main__")
                except SystemExit:
                    pass
    finally:
        sys.settrace(previous)
        os._exit, sys.argv = exit_, argv0
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


def located(found) -> list[tuple[str, int, str]]:
    """(file relative to the repo, line, stripped source) for each (module path, line)."""
    sources: dict[Path, list[str]] = {}
    out = []
    for path, line in found:
        text = sources.setdefault(path, path.read_text().splitlines())
        out.append((str(path.relative_to(ROOT)), line, text[line - 1].strip()))
    return out


def read_ledger(text: str) -> list[tuple[str, str, str, str]]:
    """(kind, where, reason, source) of each ledger line; a malformed one raises ValueError.

    kind is "statement" or "mutant"; blank lines and lines that start with
    "#" are skipped.
    """
    out = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        where, reason, source = (line.split(": ", 2) + ["", ""])[:3]
        kind = "mutant" if " " in where else "statement"
        if not source or not (reason in REASONS[kind]
                              or reason.startswith(TIER1) and len(reason) > len(TIER1)):
            raise ValueError(f"malformed ledger line: {line}")
        out.append((kind, where, reason, source))
    return out


def main() -> int:
    found = located(unrun(command_lines()))
    unrun_keys = Counter((path, source) for path, _, source in found)
    ledgered = Counter((where, source) for kind, where, _, source
                       in read_ledger(LEDGER.read_text()) if kind == "statement")
    new, stale = unrun_keys - ledgered, ledgered - unrun_keys
    for path, line, source in found:
        if (path, source) in new:
            print(f"new: {path}:{line}: {source}")
    for path, source in stale.elements():
        print(f"stale: {path}: {source}")
    print(f"{len(found)} statements never ran; {new.total()} not in {LEDGER.name}, "
          f"{stale.total()} stale lines in it")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
