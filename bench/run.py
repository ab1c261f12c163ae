"""The whitlocal benchmark: seeded CLI workloads, gated for correctness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it runs the tree it sits in.  With ``--trace 0`` it
times whole passes over the workload's ops, each a ``python -m whitlocal``
child run in a closed loop with one client, and prints the end-to-end
metrics.  A run makes ``round(--seconds / PASS_SECONDS[workload])`` passes,
at least one, so that it measures about ``--seconds`` of work and the
number of latency samples does not hang on how fast the host is.  With
``--trace 1`` it runs one pass in this process through ``cli.main``, each
op once untraced and then once with the spans of ``tracer.py``, and prints
the per-layer metrics.  Every op goes through the correctness gate of
``gate.py`` either way.

The last stdout line is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records what the result
needs to be read: provenance, host speed, the tail percentile, failures.
``correct`` is false when an op fails that is not a known defect of the
seed commit; ``failed`` counts every op that fails the gate, known
defects included.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from child import ROOT, SRC, child_env, run_child, run_whitlocal
from gate import Gate, load_digests
from workloads import PASS_SECONDS, WORKLOADS, Op

# fresh interpreters timed before and after the timed loop, so that the
# median of setup_s spans more than one moment of a noisy host
SETUP_SAMPLES = (6, 5)
# a fresh interpreter's clock stamps: started, whitlocal.cli imported, parser built
SETUP_CODE = ("import time; t0 = time.perf_counter(); import whitlocal.cli as c; "
              "t1 = time.perf_counter(); c.build_parser(); print(t0, t1, time.perf_counter())")
TAIL_BEYOND = 10


def declared_units() -> dict[str, str]:
    """The unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# -- environment records ---------------------------------------------------

def host_probe_ms() -> float:
    """A fixed stdlib Fraction loop; recorded to expose a slow host, never used to rescale."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 8001):
        acc = (acc + Fraction(k % 97, k % 89 + 1)) % 1009
    return (time.perf_counter() - t0) * 1e3


def host_record() -> dict:
    return {"probe_ms": round(host_probe_ms(), 3), "loadavg_1m": os.getloadavg()[0]}


def provenance() -> dict:
    sha = None
    git_dir = ROOT / ".git"  # named, so git never searches the directories above
    if git_dir.exists():
        try:
            sha = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "whitlocal").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


# -- measurement helpers ---------------------------------------------------

def setup_samples(env, count: int) -> list[tuple[float, float, float]]:
    """(setup_s, import_ms, build_parser_ms) of fresh interpreters."""
    out = []
    for _ in range(count):
        t_spawn = time.perf_counter()
        res = run_child(["-c", SETUP_CODE], env)
        if res.rc != 0:
            raise RuntimeError(f"setup child failed: {res.stderr.decode()}")
        t0, t1, t2 = map(float, res.stdout.split())
        out.append((t2 - t_spawn, (t1 - t0) * 1e3, (t2 - t1) * 1e3))
    return out


def tail(latencies: list[float]) -> tuple[float, dict]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    # 1-based rank; when no percentile above the median has that many
    # samples beyond it, the maximum
    rank = n - TAIL_BEYOND if n - TAIL_BEYOND > n / 2 else n
    return ordered[rank - 1], {"percentile": round(100 * rank / n, 3), "samples": n,
                               "beyond": n - rank}


class Tally:
    """Gate outcomes of a run."""

    def __init__(self, gate: Gate):
        self.gate = gate
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.tagged = 0
        self.unexpected: list[dict] = []

    def add(self, op: Op, rc: int, stdout: bytes, stderr: bytes) -> None:
        self.attempted += 1
        self.tagged += op.known_defect is not None
        reason = self.gate.check(op, rc, stdout, stderr)
        if reason is None:
            return
        self.failed += 1
        if op.known_defect:
            self.known += 1
        elif len(self.unexpected) < 20:
            self.unexpected.append({"argv": " ".join(op.argv), "reason": reason})

    def record(self) -> dict:
        return {"fail_ratio": self.failed / self.attempted, "known_defect_ops": self.tagged,
                "known_defect_failures": self.known, "unexpected_failures": self.unexpected}

    def result(self, metrics: dict) -> dict:
        units = declared_units()
        return {"correct": self.failed == self.known, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


# -- the two kinds of run --------------------------------------------------

def run_timed(ops: list[Op], passes: int, tally: Tally) -> tuple[dict, dict]:
    env = child_env()
    setups = setup_samples(env, SETUP_SAMPLES[0])
    results = []
    start = time.perf_counter()
    for _ in range(passes):
        results += [(op, run_whitlocal(op.argv, env)) for op in ops]
    elapsed = time.perf_counter() - start
    setups += setup_samples(env, SETUP_SAMPLES[1])
    for op, res in results:
        tally.add(op, res.rc, res.stdout, res.stderr)
    latencies = [res.wall_s for _, res in results]
    rss_kb = [res.maxrss_kb for _, res in results]
    tail_ms, tail_info = tail(latencies)
    metrics = {
        "setup_s": statistics.median(s for s, _, _ in setups),
        "ops_per_s": len(latencies) / elapsed,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_ms * 1e3,
        "peak_rss_mb": max(rss_kb) / 1024,
    }
    return metrics, {"passes": passes, "op_tail": tail_info,
                     "setup_s_samples": [s for s, _, _ in setups]}


def run_in_process(cli, op: Op) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse refusing the argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the child would die with this traceback
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue().encode(), err.getvalue().encode()


def run_traced(ops: list[Op], tally: Tally) -> tuple[dict, dict]:
    setups = setup_samples(child_env(), sum(SETUP_SAMPLES))
    sys.path.insert(0, str(SRC))
    os.environ.pop("WHITLOCAL_JOBS", None)
    from whitlocal import cli

    from tracer import Tracer

    # each op runs untraced and then traced, so both runs see the same warm state
    tracer = Tracer()
    plain_wall = traced_wall = plain_cpu = 0.0
    nbytes = 0
    for op in ops:
        cpu0 = time.process_time()
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        plain = run_in_process(cli, op)
        plain_wall += time.perf_counter() - t0
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        plain_cpu += (time.process_time() - cpu0 + kids.ru_utime - kids0.ru_utime
                      + kids.ru_stime - kids0.ru_stime)
        tracer.install()
        t0 = time.perf_counter()
        traced = run_in_process(cli, op)
        traced_wall += time.perf_counter() - t0
        tracer.uninstall()
        for rc, stdout, stderr in (plain, traced):
            tally.add(op, rc, stdout, stderr)
        nbytes += len(traced[1])
    metrics = tracer.layer_metrics()
    metrics.update({
        "cli.import_ms": statistics.median(i for _, i, _ in setups),
        "cli.build_parser_ms": statistics.median(b for _, _, b in setups),
        "cli.stdout_bytes": nbytes,
        "cli.cpu_util": plain_cpu / plain_wall,
        "trace.overhead_ratio": traced_wall / plain_wall,
    })
    suite_s = sum(v for k, v in metrics.items() if k.startswith("suites."))
    spans = [{"name": name, "parent": parent, "start_s": round(t0 - tracer.t_origin, 6),
              "end_s": round(t1 - tracer.t_origin, 6)}
             for name, parent, t0, t1 in tracer.totals()["spans"]]
    return metrics, {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                     "suites_share_of_traced_wall": suite_s / traced_wall, "suite_spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "whitlocal" / "cli.py").is_file():
        print(f"error: no whitlocal sources under {SRC}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](args.seed)
    tally = Tally(Gate(load_digests()))
    host_before = host_record()
    if args.trace:
        metrics, extra = run_traced(ops, tally)
    else:
        passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        metrics, extra = run_timed(ops, passes, tally)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_per_pass": len(ops),
        "provenance": provenance() | {"trace.overhead_ratio": metrics.get("trace.overhead_ratio")},
        "host": {"before": host_before, "after": host_record()},
        **tally.record(), **extra,
    }
    print(json.dumps(record))
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
