"""Record the stdout digest of every valid op any seed can generate.

Run from the repository root at the commit whose bytes define "correct":

    python3 bench/record_digests.py

It re-records the whole catalogue, so every digest comes from one commit.
It then replays every other op of the catalogue through the gate and
checks that exactly the ops tagged as known defects fail.
"""

from __future__ import annotations

import json
import sys

import workloads
from child import child_env, run_whitlocal
from gate import DIGESTS, Gate, sha256


def main() -> int:
    env = child_env()
    ops = workloads.catalogue()
    digests = {}
    problems = 0
    for i, op in enumerate(ops):
        if op.expect_exit != 0:
            continue
        res = run_whitlocal(op.argv, env)
        print(f"[{i + 1}/{len(ops)}] exit {res.rc}: {op.digest_key}", file=sys.stderr)
        if res.rc != 0:
            problems += 1
            print(res.stderr.decode(), file=sys.stderr)
            continue
        digests[op.digest_key] = sha256(res.stdout)
    DIGESTS.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")

    gate = Gate(digests)
    replay = [op for op in ops if op.expect_exit != 0]
    replay += [workloads.with_emit(op, e) for d in workloads.QUERY_DOMAIN.values()
               for op in d if op.timings for e in workloads.EMITS]
    for op in replay:
        res = run_whitlocal(op.argv, env)
        reason = gate.check(op, res.rc, res.stdout, res.stderr)
        if (reason is not None) != (op.known_defect is not None):
            problems += 1
            print(f"gate says {reason!r} but known defect is {op.known_defect!r}: "
                  f"{' '.join(op.argv)}", file=sys.stderr)
    print(f"{len(digests)} digests recorded, {len(replay)} ops replayed, "
          f"{problems} problems", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
