"""Show that the correctness gate can fail.

    python3 bench/selftest.py

Pushes ops through the gate whose outcome is known beforehand and exits
non-zero if the gate lets any of them pass:

* ``verify --suite negative-control``, a deliberately failing battery;
* a valid op whose stdout has one byte changed;
* one op of each known defect of the seed commit.
"""

from __future__ import annotations

import sys

import workloads
from child import child_env, run_whitlocal
from gate import Gate, load_digests


def main() -> int:
    env = child_env()
    gate = Gate(load_digests())
    cases = []

    control = workloads.make_op(("verify", "--suite", "negative-control", "--jobs", "1"))
    res = run_whitlocal(control.argv, env)
    cases.append(("negative control", gate.check(control, res.rc, res.stdout, res.stderr)))

    valid = workloads.series(0)[0]
    res = run_whitlocal(valid.argv, env)
    if gate.check(valid, res.rc, res.stdout, res.stderr) is not None:
        print(f"FAIL a valid op did not pass: {' '.join(valid.argv)}")
        return 1
    at = res.stdout.index(b"1")  # a digit for a digit keeps the output well-formed
    tampered = res.stdout[:at] + b"2" + res.stdout[at + 1:]
    cases.append(("one byte changed", gate.check(valid, res.rc, tampered, res.stderr)))

    defects = {}
    for domain in workloads.QUERY_DOMAIN.values():
        for op in domain:
            defects.setdefault(op.known_defect, op)
    defects.pop(None)
    for name, op in sorted(defects.items()):
        res = run_whitlocal(op.argv, env)
        cases.append((f"known defect {name}", gate.check(op, res.rc, res.stdout, res.stderr)))

    ok = True
    for label, reason in cases:
        print(f"{'counted as failed' if reason else 'PASSED (gate too weak)'}: {label}: {reason}")
        ok = ok and reason is not None
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
