"""The exit path of ``python -m whitlocal``, in real processes.

``__main__.run`` flushes every byte and ends the process with ``os._exit``.
When stdout is closed or cannot take the output, the command writes one
``error:`` line and exits 74, with no traceback.
"""

import errno
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import HEAVY_DIGESTS

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("lfactor --rank-a 4 --rank-b 4", "zeta --n 3 --order 6")
# a payload that fits the stdout buffer, so only the last flush fails, and
# one of 630 kB, whose write inside cli.main fails
SMALL = ("params", "--n", "2")
LARGE = ("lfactor", "--rank-a", "4", "--rank-b", "4")
EX_IOERR = 74


def whitlocal(argv, unbuffered: bool, **kwargs) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "whitlocal", *argv], env=env,
                          stderr=subprocess.PIPE, **kwargs)


def assert_refused(proc: subprocess.CompletedProcess, reason: str) -> None:
    assert proc.returncode == EX_IOERR
    assert proc.stderr.decode() == f"error: cannot write output: {reason}\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, emit", [(argv, emit) for argv in HEAVY
                                        for emit in HEAVY_DIGESTS[argv]])
def test_every_byte_is_written_before_the_process_ends(argv, emit, unbuffered):
    proc = whitlocal([*argv.split(), "--emit", emit], unbuffered, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == HEAVY_DIGESTS[argv][emit]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [SMALL, LARGE])
def test_a_full_device_exits_74(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = whitlocal(argv, unbuffered, stdout=full)
    assert_refused(proc, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [SMALL, LARGE])
def test_a_pipe_with_no_reader_exits_74(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = whitlocal(argv, unbuffered, stdout=write)
    finally:
        os.close(write)
    assert_refused(proc, os.strerror(errno.EPIPE))


def test_a_closed_stdout_exits_74():
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "whitlocal",
                           *SMALL], stderr=subprocess.PIPE)
    assert_refused(proc, "stdout is closed")


def test_an_oserror_below_cli_main_is_no_output_error():
    # a fork that fails starts no more workers: this process runs every
    # suite, so the bytes and the exit code are those of --jobs 1
    code = ("import errno, os, sys\n"
            "def fork():\n"
            "    raise OSError(errno.ENOMEM, 'no fork')\n"
            "os.fork = fork\n"
            "sys.argv = ['whitlocal', 'verify', '--suite', 'all', '--jobs', '2']\n"
            "from whitlocal.__main__ import run\n"
            "run()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    serial = whitlocal(["verify", "--suite", "all", "--jobs", "1"], False, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (serial.returncode, serial.stderr) == (0, b"")
    assert proc.stdout == serial.stdout


def test_a_closed_stderr_keeps_the_error_line_off_stdout():
    proc = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "whitlocal",
                           "zeta", "--n", "0"], stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_the_script_entry_point_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"whitlocal": "whitlocal.__main__:run"}
