"""Run one ``python -m whitlocal`` child exactly as a user would."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class ChildResult:
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    cpu_s: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # every verify op passes --jobs itself; nothing else may choose it
    env.pop("WHITLOCAL_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(args: list[str], env: dict[str, str]) -> ChildResult:
    """Run ``python <args>`` to completion; wall time ends when it is reaped."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, err[0], wall, usage.ru_maxrss,
                       usage.ru_utime + usage.ru_stime)


def run_whitlocal(argv, env: dict[str, str]) -> ChildResult:
    return run_child(["-m", "whitlocal", *argv], env)
