"""Committed bytes: the whole verification battery and seven payloads.

``golden/verify_all_seed0.EMIT`` is the stdout of
``whitlocal verify --suite all --jobs 1 --seed 0 --emit EMIT``, and
``golden/verify_negative_control.json`` that of
``whitlocal verify --suite negative-control --emit json``, whose witnesses
print parameter pairs.  Any change to a check id, description, status or
witness, or to the report layout, shows up here as a byte difference.

``golden/payloads/NAME.EMIT`` is the stdout of one command line of
``PAYLOADS`` with ``--emit EMIT``, so that a change in how ``closedForm``,
``ratio``, a series or a weight is written out fails here too.

``HEAVY_DIGESTS`` holds the sha256 of the stdout of each of the six heavy
payloads the benchmark's ``series`` workload runs, in each format.  Their
outputs reach 630 kB, too large to commit, and they are the only payloads
with polynomials of thousands of terms (the 4x4 L-factor denominator has
16,145), so they pin the term order and the writers at full size.
"""

import hashlib
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
    # below the boundary: value null, with no paperComparison or paperValue
    "weight_q_n2_cond0_level1": ["weight", "--place", "q", "--n", "2", "--cond", "0",
                                 "--level", "1"],
    "weight_q_n2_cond1_level1_p3": ["weight", "--place", "q", "--n", "2", "--cond", "1",
                                    "--level", "1", "--p", "3"],
    # vanishing: value "0" and an empty indexSet, which csv and text drop
    "weight_q_n2_cond2_level1": ["weight", "--place", "q", "--n", "2", "--cond", "2",
                                 "--level", "1"],
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


# sha256 of the stdout of `whitlocal ARGV --emit EMIT`, by ARGV and EMIT
HEAVY_DIGESTS = {
    "zeta --n 3 --order 6": {
        "json": "855c066555bd68c38b3ac139b9c8e3c686c8a51f4e485a5af29aef15acf1b6e0",
        "csv": "53649da6f90d97b46f22e1b7cbd3f7015129621fe36456d12cf24103542d382b",
        "text": "424d89dd783580591a39ff23f12f8cfeebfad95f6c8446c71a6dc94807964de4",
    },
    "lfactor --rank-a 4 --rank-b 4": {
        "json": "f9e2ba8df39fc84459bc19b5501d582d899f1458745cb6053502cbc10ab44c2d",
        "csv": "0e9868d92d9bd17ea7bae90daee7148afff3bf39fe10d761441f50793c8bdae4",
        "text": "18eeed2c65fe59a88696cea9d916a9a126cdb66d114446709417960f1876317e",
    },
    "weight --place unramified --n 3 --order 6": {
        "json": "b2ed0ecd37321906880ceca46336509f3e27e219d4049875c04f501266fecee5",
        "csv": "947207944c69e9bf4ad72dd25455cd4bb1696639798eb7378ccf70912e7073dc",
        "text": "5e154e6347d7215ce5effde5936c63594bcf9fc5e48d76358087e0a9f62306d0",
    },
    "weight --place l --n 4 --level 1 --order 6": {
        "json": "3f7ecffa5197edc862182df75f1183f95a176a38daeb6a1098166759301532e9",
        "csv": "aa4b7854e992761e0318ee6835a55630cfd077d2c390742489f733ce10e0e486",
        "text": "8bb72f9347a9fcf0d43c98a3f1265d0e56ea0a8340095fbe4c72a35473215d7a",
    },
    "whittaker --n 5 --mu 4,3,2,1,0 --dual": {
        "json": "3a7b9249408a7dda9647a55ed5d2ef059a964eb560bac17a3635c907e99c0227",
        "csv": "612e5e92d3eda5e5e26bdf61938880bae7d18916208184dd672383189910ae33",
        "text": "d26d79be675c2fd1502130401f6cca54c799669975c12e8709600df30834398e",
    },
    "zeta --n 4 --order 4": {
        "json": "288739140dd003fca9034d0f676b4cf51dc6b4bbf1f8ac6613bf459a73228330",
        "csv": "212de4c5b800ac3d730b50409bead2ece117d1aa013fc0a93f1534c24d3ec2e4",
        "text": "f0188fc2eb5fa7871d88ff3189e2ed43230fed6ae90820a7f1bf1aef24d23826",
    },
}

@pytest.mark.parametrize("argv, emit", [(argv, emit) for argv, digests in HEAVY_DIGESTS.items()
                                        for emit in digests])
def test_heavy_payload_matches_recorded_digest(argv, emit, capsys):
    code = main(argv.split() + ["--emit", emit])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HEAVY_DIGESTS[argv][emit]
