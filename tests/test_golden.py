"""The committed bytes of the whole verification battery.

``golden/verify_all_seed0.json`` is the stdout of
``whitlocal verify --suite all --jobs 1 --seed 0 --emit json``.  Any change
to a check id, description, status or witness, or to the report layout,
shows up here as a byte difference.
"""

from pathlib import Path

from whitlocal.cli import main

GOLDEN = Path(__file__).parent / "golden" / "verify_all_seed0.json"


def test_verify_all_matches_golden_bytes(capsys):
    code = main(["verify", "--suite", "all", "--jobs", "1", "--seed", "0", "--emit", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == GOLDEN.read_text()
