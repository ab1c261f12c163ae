"""The one exit path of ``python -m whitlocal`` and of the ``whitlocal`` script.

``run`` takes the code that ``cli.main`` returns, or that argparse exits
with, and flushes stdout and stderr.  When stdout is closed, or writing or
flushing it raises ``OSError`` (a full disk, a pipe whose reader has gone),
it writes one line, ``error: cannot write output: REASON``, to stderr and
the code is 74, ``EX_IOERR`` of sysexits.h, with no traceback.  So is an
``OSError`` from ``cli.main``'s own ``error:`` line to stderr.  An
``OSError`` raised anywhere else is a fault and propagates.

It ends with ``os._exit``: once both streams are flushed nothing is left to
write, and interpreter teardown took 10-14 ms of a command on a 2-vCPU host
with Python 3.11.  No atexit handler runs after it; the package registers
none, and the forked ``verify`` children end the same way.
"""

import os
import sys

from .cli import main

# sysexits.h: an error while doing input or output on a file
EX_IOERR = 74


def run() -> None:
    """Run the command line of sys.argv and end the process with its exit code."""
    note = ""
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        try:
            code = main()
        except SystemExit as exc:
            # argparse's exit: 0 after --help, 2 after a usage error
            code = exc.code
        sys.stdout.flush()
    except OSError as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        # only this frame and main's own writes touch stdout and stderr; an
        # OSError raised deeper down is a fault of the program
        if tb.tb_frame.f_code not in (run.__code__, main.__code__):
            raise
        code, note = EX_IOERR, f"error: cannot write output: {exc.strerror or exc}\n"
    try:
        sys.stderr.write(note)
        sys.stderr.flush()
    except (AttributeError, OSError):
        # stderr is closed or failing too: the exit code is all that is left
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
