"""Generated command lines: never a traceback, only the documented exit codes.

Values are small integers, malformed lists and fractions, or, on the flags
whose work is bounded before it starts, huge numbers.  Every `weight` place
bounds its work before it starts, so each numeric `weight` flag draws huge
values too, and so do `verify --order` and `--n-max`, which are bounded
before any suite runs.  Flags without such a bound get small values only,
because a large one would run as long as the computation it asks for.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from whitlocal.cli import main

MALFORMED = st.sampled_from(["1,,2", "x", "-", "", ",", "1.5", "1/0", "0/0"])
HUGE = st.sampled_from(["100000000", "-100000000", str(2 ** 31), str(10 ** 30)])


def ints(lo, hi, huge=False):
    small = st.integers(lo, hi).map(str)
    return st.one_of(small, HUGE) if huge else small


def int_lists(lo, hi, max_size, huge=False):
    entries = st.integers(lo, hi)
    if huge:
        entries = st.one_of(entries, st.sampled_from([10 ** 8, -10 ** 8, 2 ** 31]))
    return st.lists(entries, min_size=1, max_size=max_size).map(
        lambda xs: ",".join(map(str, xs)))


FLAG = st.just(None)
VAR = st.sampled_from(["X", "Y", "t", "q", "3x", "x*y", "a1", "b2", "g1", ""])
P_SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "6", "symbolic", "q", "x"])
P_BOUNDED = st.one_of(P_SMALL, HUGE, st.just(str(2 ** 40 + 1)))
FRACTION = st.sampled_from(["1/2", "0", "-3/4", "2", "1/0", "3/0", "x", ""])

# command -> (flags always given, flags given or not); FLAG marks a switch
COMMANDS = {
    "lfactor": ({}, {"--rank-a": ints(-1, 3, huge=True), "--rank-b": ints(-1, 3, huge=True),
                     "--var": VAR}),
    "whittaker": ({"--n": ints(-1, 4, huge=True), "--mu": int_lists(-3, 6, 4, huge=True)},
                  {"--level": ints(-1, 3), "--dual": FLAG}),
    "zeta": ({"--n": ints(-1, 3, huge=True)}, {"--order": ints(-2, 3, huge=True), "--var": VAR}),
    "weight": ({"--n": ints(-1, 3, huge=True)},
               {"--place": st.sampled_from(["unramified", "l", "q", "x"]),
                "--level": ints(-1, 2, huge=True), "--cond": ints(-1, 3, huge=True),
                "--order": ints(-2, 3, huge=True),
                "--p": P_BOUNDED, "--var": VAR}),
    "index": ({"--n": ints(-1, 3), "--p": P_BOUNDED},
              {"--level": ints(-1, 1), "--bruteforce": FLAG}),
    "charsum": ({"--p": P_BOUNDED, "--valuations": int_lists(-1, 3, 3, huge=True)},
                {"--level": ints(-1, 2, huge=True)}),
    "params": ({"--n": ints(-1, 5)}, {"--s": FRACTION, "--w": FRACTION}),
    "verify": ({"--suite": st.sampled_from(["involution", "weyl", "cusp", "weight-q", "unramified",
                                            "cauchy", "weight-l", "nosuch"])},
               {"--n-max": ints(-1, 6, huge=True), "--order": ints(-3, 6, huge=True),
                "--p": P_BOUNDED, "--seed": ints(-1, 3), "--jobs": ints(-1, 2),
                "--timings": FLAG}),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    chosen = dict(required)
    chosen.update({flag: s for flag, s in optional.items() if draw(st.booleans())})
    argv = [command]
    for flag, strategy in chosen.items():
        # one value in eight is malformed, so most command lines get past argparse
        value = draw(MALFORMED if draw(st.integers(0, 7)) == 0 else strategy)
        # "--flag=value" keeps a value that starts with "-" from reading as a flag
        argv.append(flag if value is None else f"{flag}={value}")
    if draw(st.booleans()):
        argv.append(f"--emit={draw(st.sampled_from(['json', 'csv', 'text', 'yaml']))}")
    return argv


@settings(max_examples=250, deadline=3000)
@given(argvs())
def test_every_command_line_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed command line
            code = exc.code
    assert "Traceback" not in err.getvalue()
    allowed = {0, 1, 2} if argv[0] == "verify" else {0, 2}
    assert code in allowed, (argv, code, err.getvalue())
    if code == 2:
        assert err.getvalue()
