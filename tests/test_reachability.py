"""Every public function and method under src/whitlocal carries command-line traffic.

A compact list of command lines (every command and flag path once, and
``verify`` of every suite) runs in process under ``sys.setprofile``.  Any
public function or method whose code never ran fails the test, unless it is
allowed below with a reason.  Every public module-level constant must be
read by some module of the package.
"""

import ast
import contextlib
import importlib
import inspect
import io
import pathlib
import pkgutil
import sys

import whitlocal
from whitlocal import cli, localrep

ALLOWED = {
    "exactalg.LaurentPoly.__reduce__": "no command pickles a polynomial, but without it "
    "pickle would copy the slots, whose packed keys only this process can read",
}
# text for witnesses and debugging
ALLOWED_METHODS = ("__str__", "__repr__")

ARGV = [
    ["lfactor"],
    ["lfactor", "--rank-a", "1", "--rank-b", "1", "--var", "T", "--emit", "csv"],
    ["whittaker", "--n", "2", "--mu", "1,0"],
    ["whittaker", "--n", "2", "--mu", "1,0", "--dual", "--emit", "text"],
    ["whittaker", "--n", "2", "--mu", "1", "--level", "1"],
    ["zeta", "--n", "1", "--order", "2"],
    ["zeta", "--n", "4", "--order", "1"],
    ["weight", "--n", "2", "--order", "1"],
    ["weight", "--place", "l", "--n", "2", "--level", "1", "--order", "2"],
    ["weight", "--place", "q", "--n", "2", "--cond", "1", "--level", "1", "--p", "3"],
    ["weight", "--place", "q", "--n", "2", "--cond", "0", "--level", "1"],
    ["weight", "--place", "q", "--n", "2", "--cond", "2", "--level", "1"],
    ["index", "--n", "2", "--p", "3", "--level", "1", "--bruteforce"],
    ["charsum", "--p", "3", "--level", "1", "--valuations", "0,1"],
    ["charsum", "--p", "symbolic", "--valuations", "1"],
    ["params", "--n", "2"],
    ["params", "--n", "2", "--s", "1/2", "--w", "1/3"],
    ["verify", "--suite", "all", "--n-max", "3", "--order", "2", "--jobs", "1"],
    ["verify", "--suite", "negative-control", "--timings", "--emit", "csv"],
    ["verify", "--suite", "weyl", "--n-max", "3", "--emit", "text"],
]


def public_code() -> dict[str, object]:
    """Qualified name -> code object of every public function and method."""
    found = {}
    for info in pkgutil.iter_modules(whitlocal.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"whitlocal.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
                        continue
                    fn = getattr(member, "__func__", None) or getattr(member, "fget", None) or member
                    if inspect.isfunction(fn):
                        found[f"{info.name}.{name}.{attr}"] = fn.__code__
    return found


def test_every_public_function_is_reached(monkeypatch):
    # keeps the charsum brute force small; every oracle still runs
    monkeypatch.setattr(localrep, "ENUMERATION_LIMIT", 2 ** 12)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = {}
    sys.setprofile(profile)
    try:
        for argv in ARGV:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                codes[" ".join(argv)] = (cli.main(argv), err.getvalue())
    finally:
        sys.setprofile(None)

    # the negative control fails by design; every other command line succeeds
    assert {line: result for line, result in codes.items() if result[0] != 0} == {
        "verify --suite negative-control --timings --emit csv": (1, ""),
    }
    public = public_code()
    assert set(ALLOWED) <= set(public), "an allowed name no longer exists"
    unreached = sorted(
        name for name, code in public.items()
        if code not in called and name not in ALLOWED
        and not name.endswith(ALLOWED_METHODS)
    )
    assert unreached == []


def test_every_public_constant_is_read():
    """A public module-level assigned name that no module loads is dead surface."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in pathlib.Path(whitlocal.__path__[0]).glob("*.py")}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            unread += [f"{module}.{t.id}" for t in targets if isinstance(t, ast.Name)
                       and not t.id.startswith("_") and t.id not in loaded]
    assert sorted(unread) == []
