"""Committed bytes: the whole verification battery and five payloads.

``golden/verify_all_seed0.EMIT`` is the stdout of
``whitlocal verify --suite all --jobs 1 --seed 0 --emit EMIT``, and
``golden/verify_negative_control.json`` that of
``whitlocal verify --suite negative-control --emit json``, whose witnesses
print parameter pairs.  Any change to a check id, description, status or
witness, or to the report layout, shows up here as a byte difference.

``golden/payloads/NAME.EMIT`` is the stdout of one command line of
``PAYLOADS`` with ``--emit EMIT``, so that a change in how ``closedForm``,
``ratio``, a series or a weight is written out fails here too.
"""

from pathlib import Path

import pytest

from whitlocal.cli import EMIT_CHOICES, main

GOLDEN_DIR = Path(__file__).parent / "golden"
PAYLOAD_DIR = GOLDEN_DIR / "payloads"

PAYLOADS = {
    "zeta_n2_order4": ["zeta", "--n", "2", "--order", "4"],
    "lfactor_2_2": ["lfactor", "--rank-a", "2", "--rank-b", "2"],
    "weight_l_n3_level1_order4": ["weight", "--place", "l", "--n", "3", "--level", "1",
                                  "--order", "4"],
    "weight_q_n2_cond1_level1_p3": ["weight", "--place", "q", "--n", "2", "--cond", "1",
                                    "--level", "1", "--p", "3"],
    "weight_unramified_n2_order3": ["weight", "--place", "unramified", "--n", "2",
                                    "--order", "3"],
}


def test_verify_all_matches_golden_bytes(capsys):
    code = main(["verify", "--suite", "all", "--jobs", "1", "--seed", "0", "--emit", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == (GOLDEN_DIR / "verify_all_seed0.json").read_text()


@pytest.mark.parametrize("emit", ["csv", "text"])
def test_verify_all_matches_golden_bytes_in_other_formats(emit, capsys):
    code = main(["verify", "--suite", "all", "--jobs", "1", "--seed", "0", "--emit", emit])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / f"verify_all_seed0.{emit}").read_bytes()


def test_negative_control_matches_golden_bytes(capsys):
    code = main(["verify", "--suite", "negative-control", "--emit", "json"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert out.encode() == (GOLDEN_DIR / "verify_negative_control.json").read_bytes()


@pytest.mark.parametrize("emit", EMIT_CHOICES)
@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_payload_matches_golden_bytes(name, emit, capsys):
    code = main(PAYLOADS[name] + ["--emit", emit])
    out, _ = capsys.readouterr()
    assert code == 0
    # bytes, not text: csv rows end in \r\n
    assert out.encode() == (PAYLOAD_DIR / f"{name}.{emit}").read_bytes()
