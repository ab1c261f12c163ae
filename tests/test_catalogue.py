"""Every argv the benchmark can send keeps its outcome, byte for byte.

``bench/workloads.catalogue()`` lists every distinct op any seed of any
workload can generate, and ``bench/digests.json`` holds the sha256 of the
stdout each valid one must print; both are only read here.  Each op runs
through ``cli.main`` in this process and must have the outcome it has
today:

- a valid op exits 0 and prints the bytes of its digest;
- a ``may_refuse`` op, which the benchmark's gate also lets print its
  digest, is refused: exit 2, one ``error:`` line and no stdout;
- an invalid op exits 2 with an ``error:`` line, no stdout and no traceback.

Packed keys depend on what the process interned before, but the bytes do
not, so one process runs them all.  One ``verify --suite all --jobs 2``
runs in a real process, so that its forked child prints the same bytes.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from whitlocal.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _catalogue():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads.catalogue()


DIGESTS = json.loads((BENCH / "digests.json").read_text())["digests"]


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _outcome(op) -> tuple[str, bool]:
    """(kind of op, whether it had today's outcome); a raise would be a traceback."""
    code, out, err = _run(op.argv)
    if op.expect_exit == 2:
        return "invalid", code == 2 and not out and "error:" in err and "Traceback" not in err
    if op.may_refuse:
        return "refused", code == 2 and not out and err.startswith("error:") \
            and err.count("\n") == 1
    digest = hashlib.sha256(out.encode()).hexdigest()
    return "digest", code == 0 and digest == DIGESTS[op.digest_key]


def test_every_catalogue_op_keeps_its_outcome():
    kinds, wrong = Counter(), []
    for op in _catalogue():
        kind, ok = _outcome(op)
        kinds[kind] += 1
        if not ok:
            wrong.append((" ".join(op.argv), kind))
    assert wrong == []
    assert kinds == {"digest": 860, "refused": 36, "invalid": 57}


def test_forked_verify_prints_the_serial_digest():
    argv = ["verify", "--suite", "all", "--jobs", "2", "--seed", "1"]
    proc = subprocess.run([sys.executable, "-m", "whitlocal", *argv], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    want = DIGESTS["verify --suite all --jobs 1 --seed 1"]
    assert hashlib.sha256(proc.stdout).hexdigest() == want
