"""Record the speed of each whitlocal layer and of the verify battery in one JSON file.

Writes a file such as BENCH_<n>.json, named by the change it records:

    python3 tools/bench_record.py --out BENCH_<n>.json

The file holds:

- provenance: the git sha of HEAD and whether the tree had uncommitted
  changes; ``src_sha256``, which names the measured package even then; the
  Python version; the CPU count the process may use; and that the package
  was byte-compiled before the first timed call;
- ``layers``: one fixed micro-workload per layer, run in this process.
  A sample times ``loops`` calls; the layers take their samples in turn,
  one round per repeat, and the file gives the median over ``REPEATS``
  samples, in ms per call, with the samples;
- ``end_to_end``: the wall clock of ``verify --suite all --jobs 1`` and of
  ``verify --suite all`` with no ``--jobs`` (one pinned process per allowed
  CPU), each run in a fresh interpreter, the two taking turns, as the
  median over ``PROCESSES`` runs of each.

``src_sha256`` is the sha256 of, for each ``.py`` file under
``src/whitlocal`` in sorted order, its path relative to ``src``, a NUL, its
bytes and a NUL.  ``source_sha256(Path("<checkout>/src"))`` recomputes it
for a checkout of any commit, so a file made before its change was
committed can be matched to that commit.

The package is imported from the src directory next to this script.  The
first sample of a layer also fills the process-wide caches it uses, such as
the Schur pattern counts; the median is over samples that mostly find them
warm.  Times vary with the host, so compare two files only when they were
made on one host at about one time.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# {key: argv} of the timed verify runs
VERIFY_RUNS = {
    "verify_all_jobs1": ("verify", "--suite", "all", "--jobs", "1"),
    "verify_all_default": ("verify", "--suite", "all"),
}
REPEATS = 7  # samples per layer
PROCESSES = 7  # fresh verify runs


def layer_workloads() -> dict[str, tuple[int, object]]:
    """{name: (loops, call)} for the micro-workload of each layer."""
    from whitlocal import cli
    from whitlocal.exactalg import LaurentPoly, TruncatedSeries, qpow
    from whitlocal.localrep import UnramifiedRep
    from whitlocal.reciprocity import column_unipotent, swap_last_two
    from whitlocal.suites import run
    from whitlocal.symfunc import partitions_up_to, schur
    from whitlocal.zeta import l_factor_denominator, local_zeta_unramified, times_l_denominator

    # two sums of 60 terms each, in disjoint variables, so that every term
    # product is a new key
    a = [LaurentPoly.var(f"a{i}") for i in range(1, 5)]
    b = [LaurentPoly.var(f"b{i}") for i in range(1, 5)]
    left = sum((x ** k * qpow(Fraction(k, 2)) for x in a for k in range(1, 16)), LaurentPoly.zero())
    right = sum((y ** -k * (k + 1) for y in b for k in range(1, 16)), LaurentPoly.zero())

    def series_product():
        one = TruncatedSeries.one("X", 6)
        return times_l_denominator(one, UnramifiedRep.symbolic(3, "a"), UnramifiedRep.symbolic(3, "b"))

    xs = [LaurentPoly.var(f"x{i}") for i in range(1, 5)]

    def lattice_sum():
        return local_zeta_unramified(UnramifiedRep.symbolic(4, "a"), UnramifiedRep.symbolic(3, "b"),
                                     "X", 6)

    def matrix_products():
        # the products of the weyl suite at n = 2..6
        for n in range(2, 7):
            w = swap_last_two(n + 1)
            w * column_unipotent(n + 1, n, [f"u{i}" for i in range(1, n)]) * w
            w * w

    den = l_factor_denominator(UnramifiedRep.symbolic(4, "a"), UnramifiedRep.symbolic(4, "b"), "X")
    # a passing report of 108 checks and a failing one with witnesses, built once
    # in this process (jobs 1) at the verify parser's defaults: --n-max 10
    # --order 6 --p 2 --seed 0
    reports = [run(suite, 1, 10, 6, 2, 0) for suite in ("all", "negative-control")]

    def emit_report():
        for report in reports:
            for emit in cli.EMIT_CHOICES:
                cli._emit_report(report, emit, False)

    return {
        # a LaurentPoly product of 60 x 60 terms and a sum
        "exactalg.laurent_product_sum": (20, lambda: left * right + left),
        # the L-factor denominator at ranks 3 x 3, order 6, by series products
        "exactalg.series_product": (30, series_product),
        # schur at n = 4 over every partition with |lam| <= 6
        "symfunc.schur": (10, lambda: [schur(lam, xs) for lam in partitions_up_to(6, 4)]),
        # the lattice sum of zeta --n 3 --order 6
        "zeta.lattice_sum": (2, lattice_sum),
        "reciprocity.matrix_products": (15, matrix_products),
        # rendering the 4 x 4 denominator, 16,145 terms
        "exactalg.to_text": (1, den.to_text),
        # both reports in json, csv and text
        "cli.emit_report": (20, emit_report),
    }


def sample_ms(loops: int, call) -> float:
    t0 = time.perf_counter()
    for _ in range(loops):
        call()
    return (time.perf_counter() - t0) * 1e3 / loops


def verify_wall_s(argv: tuple[str, ...], env: dict) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "whitlocal", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}: "
                         f"{proc.stderr.decode().strip()}")
    return wall


def git_state() -> dict:
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status)}


def source_sha256(src: Path = SRC) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "whitlocal").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def record() -> dict:
    compiled = compileall.compile_dir(str(SRC / "whitlocal"), quiet=1)
    sys.path.insert(0, str(SRC))
    workloads = layer_workloads()
    samples: dict[str, list[float]] = {name: [] for name in workloads}
    # round by round, so that a slow spell of the host spreads over every layer
    for _ in range(REPEATS):
        for name, (loops, call) in workloads.items():
            samples[name].append(sample_ms(loops, call))
    layers = {name: {"loops": loops, "median_ms": statistics.median(samples[name]),
                     "samples_ms": samples[name]}
              for name, (loops, _) in workloads.items()}
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    walls: dict[str, list[float]] = {key: [] for key in VERIFY_RUNS}
    # in turns, as the layers are sampled
    for _ in range(PROCESSES):
        for key, argv in VERIFY_RUNS.items():
            walls[key].append(verify_wall_s(argv, env))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        **git_state(),
        "src_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": nproc,
        "compiled": bool(compiled),
        "repeats": REPEATS,
        "layers": layers,
        "end_to_end": {key: {"argv": list(argv), "processes": PROCESSES,
                             "median_s": statistics.median(walls[key]), "samples_s": walls[key]}
                       for key, argv in VERIFY_RUNS.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    result = record()
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
