"""Mutation sweep: how many one-site faults in chosen functions a command catches.

Each mutant changes one site inside the named top-level functions (or
methods of top-level classes) of one ``whitlocal`` module: it swaps ``+``
and ``-``, turns ``*`` into ``//``, swaps ``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, or adds 1 to an int constant (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978).  A name that is neither
function nor method of the module is refused with exit status 2, rather than
swept as zero mutants.  The mutated module is
written with ``ast.unparse`` into a copy of the package, and the command
runs against that copy.  A mutant is killed when the command exits nonzero
or outlasts the time limit.  A mutant that exits 0 is ``changed`` when its
stdout differs from the unmutated run's: the command's checks missed a fault
that shows in its output, such as terms printed out of order.  The other
survivors are either a gap in the checks or a mutant that changes nothing.
Each mutant's line names the function or ``Class.method`` that holds the
site, so the sweeps of two versions can be matched site by site even where
line numbers moved.  ``--function`` takes either that ``Class.method`` name,
which selects the one method, or a bare name, which selects every function
and method of that name.
The limit is ten times the command's time on the unmutated module, and at
least five seconds.  A timeout counts as a kill, so a mutant that only
makes the command slow (say, one that loosens a size guard and then
enumerates for long) is counted as killed.  Each command runs in a session
of its own, and a timeout kills its whole process group, forked children
included, so a timed-out mutant leaves no process behind to slow the next.

    python3 tools/mutation_sweep.py --module localrep \\
        --function congruence_index --function congruence_index_bruteforce \\
        -- verify --suite index

Each survivor's line ends with the reason tools/unrun_ledger.txt gives for
keeping it, ``[equivalent]``, ``[gap]`` or ``[tier1:<test>]``, or with ``[not
in the ledger]``; the ledger keys a survivor by file, function, mutation and
the stripped text of the mutated line, not by line number, and the last line
counts the survivors it lacks.  The command runs once per site, so a sweep
takes minutes; it is not part of the test suite.  ``--src`` points at the
directory that holds the package, for example an unpacked older commit, to
compare two versions.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}


def definitions(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """(qualified name, node) of the top-level functions and the methods of top-level classes."""
    found = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            found += [(f"{cls.name}.{fn.name}", fn) for fn in cls.body
                      if isinstance(fn, ast.FunctionDef)]
    return found


def mutations(tree: ast.Module, functions: set[str]):
    """(qualified name, line, description, apply) for every site, in a fixed order."""
    for name, fn in definitions(tree):
        if fn.name not in functions and name not in functions:
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                new = SWAPS[type(node.op)]
                yield (name, node.lineno, f"{type(node.op).__name__} -> {new.__name__}",
                       partial(setattr, node, "op", new()))
            elif isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in SWAPS:
                        new = SWAPS[type(op)]
                        yield (name, node.lineno, f"{type(op).__name__} -> {new.__name__}",
                               partial(node.ops.__setitem__, i, new()))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                yield (name, node.lineno, f"{node.value} -> {node.value + 1}",
                       partial(setattr, node, "value", node.value + 1))


def ledger(module: str) -> dict[tuple[str, str, str], list[str]]:
    """(function, mutation, source) -> the ledger's reasons for the module's survivors."""
    # run as a script, this file's directory leads sys.path
    from unrun_statements import LEDGER, read_ledger

    kept: dict[tuple[str, str, str], list[str]] = {}
    for kind, where, reason, source in read_ledger(LEDGER.read_text()):
        path, _, site = where.partition(" ")
        if kind == "mutant" and path == f"src/whitlocal/{module}.py":
            function, mutation = site.split(" ", 1)
            kept.setdefault((function, mutation, source), []).append(reason)
    return kept


def run(package: Path, module: Path, source: str, command: list[str],
        timeout: float | None) -> tuple[str, bytes]:
    """('survived', stdout), ('killed', stdout) on a nonzero exit, or ('timed out', b'')."""
    module.write_text(source)
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    with subprocess.Popen([sys.executable, "-m", "whitlocal", *command],
                          cwd=package.parent, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # the session's group holds the command and every worker it started
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timed out", b""
    return ("killed" if proc.returncode else "survived"), stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).parent.parent / "src",
                        help="directory holding the whitlocal package (default: ../src)")
    parser.add_argument("--module", required=True, help="module name inside whitlocal")
    parser.add_argument("--function", action="append", required=True, dest="functions")
    parser.add_argument("command", nargs="+", help="whitlocal arguments, after --")
    args = parser.parse_args()

    original = (args.src / "whitlocal" / f"{args.module}.py").read_text()
    tree = ast.parse(original)
    unknown = set(args.functions) - {n for name, fn in definitions(tree) for n in (name, fn.name)}
    if unknown:
        print(f"error: {args.module} has no function or method named "
              f"{', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    count = sum(1 for _ in mutations(tree, set(args.functions)))
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp) / "whitlocal"
        shutil.copytree(args.src / "whitlocal", package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        module = package / f"{args.module}.py"
        start = time.perf_counter()
        result, expected = run(package, module, ast.unparse(ast.parse(original)),
                               args.command, None)
        if result != "survived":
            print("error: the command fails on the unmutated module", file=sys.stderr)
            return 2
        timeout = max(10 * (time.perf_counter() - start), 5.0)
        print(f"time limit {timeout:.1f} s per mutant", flush=True)
        dead = timed_out = changed = unledgered = 0
        kept, lines = ledger(args.module), original.splitlines()
        for k in range(count):
            tree = ast.parse(original)
            name, line, what, apply = list(mutations(tree, set(args.functions)))[k]
            apply()
            result, stdout = run(package, module, ast.unparse(tree), args.command, timeout)
            if result == "survived" and stdout != expected:
                result = "changed"
            dead += result in ("killed", "timed out")
            timed_out += result == "timed out"
            changed += result == "changed"
            note = ""
            if result in ("survived", "changed"):
                reasons = kept.get((name, what, lines[line - 1].strip()))
                unledgered += not reasons
                note = f" [{reasons.pop()}]" if reasons else " [not in the ledger]"
            print(f"{result:9} {name} line {line}: {what}{note}", flush=True)
    print(f"killed {dead} of {count} mutants ({100 * dead / max(count, 1):.0f}%), "
          f"{timed_out} of them by the time limit; {unledgered} survivors not in the ledger; "
          f"{changed} survivors changed the output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
