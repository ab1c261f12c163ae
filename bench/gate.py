"""The correctness gate every op passes through.

An op passes only if its exit code is the expected one (0 for valid input,
2 for invalid input), nothing printed a traceback, its self-verifying
fields hold, and its stdout bytes hash to the digest recorded from the
seed commit.  An op run with ``--timings`` has no fixed bytes: every check
must carry integer milliseconds, and with those removed the bytes must
hash to the digest of the same argv without ``--timings``.  An op the
seed commit answers but the planned input contract refuses passes either
way: with its recorded bytes, or refused with exit 2 and an error line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path

from workloads import Op

DIGESTS = Path(__file__).resolve().parent / "digests.json"

_TIMING_SUFFIX = re.compile(r"  \[(\S*) ms\]$")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())["digests"]


def _flatten(value, key=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{key}.{k}" if key else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{key}[{i}]")
    elif isinstance(value, bool):
        yield key, "true" if value else "false"
    else:
        yield key, "" if value is None else str(value)


def _payload_fields(text: str, emit: str) -> dict[str, str]:
    if emit == "json":
        return dict(_flatten(json.loads(text)))
    if emit == "csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if not rows or rows[0] != ["field", "value"]:
            raise ValueError("csv payload lacks its field,value header")
        return {field: value for field, value in rows[1:]}
    return dict(line.split(" = ", 1) for line in text.splitlines())


def _report_passes(text: str, emit: str) -> bool:
    if emit == "json":
        return json.loads(text)["status"] == "pass"
    if emit == "csv":
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
        return all(r["status"] == "pass" for r in rows)
    return text.splitlines()[0].endswith(": pass")


def _self_verifying(op: Op, text: str) -> str | None:
    """Check the fields the program computes to verify itself."""
    if op.command == "verify":
        return None if _report_passes(text, op.emit) else "status is not pass"
    fields = _payload_fields(text, op.emit)
    for name in ("matchesClosedForm", "agree"):
        if fields.get(name, "true") != "true":
            return f"{name} is {fields[name]}"
    if op.command == "weight" and "unramified" in op.argv and fields.get("value") != "1":
        return f"unramified weight is {fields.get('value')!r}, not 1"
    return None


def strip_timings(text: str, emit: str) -> str:
    """Remove per-check millis, raising ValueError if any is not an integer."""
    if emit == "json":
        report = json.loads(text)
        for check in report["checks"]:
            millis = check.pop("millis", None)
            if type(millis) is not int:
                raise ValueError(f"{check['id']}: millis is {json.dumps(millis)}")
        return json.dumps(report, indent=2) + "\n"
    if emit == "csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if not rows or rows[0][-1] != "millis":
            raise ValueError("csv report lacks its millis column")
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in rows:
            if row is not rows[0] and not row[-1].isdigit():
                raise ValueError(f"{row[1]}: millis is {row[-1]!r}")
            writer.writerow(row[:-1])
        return buf.getvalue()
    lines = []
    for line in text.splitlines():
        if line.startswith(("  ok ", "  FAIL ", "  ERR ")):
            m = _TIMING_SUFFIX.search(line)
            if m is None or not m.group(1).isdigit():
                raise ValueError(f"{line.split()[1]}: millis is {m and m.group(1)!r}")
            line = line[: m.start()]
        lines.append(line)
    return "\n".join(lines) + "\n"


class Gate:
    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        # a csv payload carries whole polynomials in one field
        csv.field_size_limit(1 << 30)

    def check(self, op: Op, rc: int, stdout: bytes, stderr: bytes) -> str | None:
        """None when the op passes, else the first reason it fails."""
        if b"Traceback (most recent call last)" in stderr:
            return "traceback: " + stderr.decode(errors="replace").strip().splitlines()[-1]
        if op.may_refuse and rc == 2:
            return None if not stdout and b"error:" in stderr else "refused without an error line"
        if rc != op.expect_exit:
            return f"exit {rc}, expected {op.expect_exit}"
        if op.expect_exit != 0:
            refused = not stdout and b"error:" in stderr
            return None if refused else "invalid input without an error line"
        text = stdout.decode()
        try:
            reason = _self_verifying(op, text)
            if reason:
                return reason
            if op.timings:
                text = strip_timings(text, op.emit)
        except (ValueError, KeyError, IndexError, csv.Error) as exc:
            return f"malformed output: {exc}"
        want = self.digests.get(op.digest_key)
        if want is None:
            return f"no digest recorded for {op.digest_key!r}"
        if sha256(text.encode()) != want:
            return "stdout differs from the recorded bytes"
        return None
