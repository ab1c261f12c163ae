"""The JSON and CSV writers of the cli, against the standard library as oracle.

``cli.json_text`` must write what ``json.dumps(value, indent=2)`` writes,
and ``cli.csv_text`` what ``csv.writer`` writes in its default (excel)
dialect.  Neither module runs in the program; they run here only.
"""

import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from whitlocal.cli import csv_text, json_text

# quotes, backslashes, control characters, non-ASCII (BMP and astral) and plain text
TRICKY = st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", " ",
                          "\U0001f600", "/", " ", "a", "0"])
STRINGS = st.one_of(st.text(), st.lists(TRICKY).map("".join))
LEAVES = st.one_of(
    STRINGS, st.booleans(), st.none(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), st.just(-0.0), st.just(0.0),
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200)
@given(VALUES)
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_on_empty_and_scalar_containers():
    for value in ({}, [], (), {"a": {}}, {"a": []}, [[], {}], {"x": -0.0, "y": [True, False, None]},
                  {"big": 10 ** 40, "small": 1e-300, "neg": -7}):
        assert json_text(value) == json.dumps(value, indent=2)


# separators, quotes, line ends and leading spaces, in and around plain text
FIELD_CHARS = st.sampled_from([",", '"', "\r", "\n", " ", "a", "b", "1", "é"])
FIELDS = st.lists(FIELD_CHARS, max_size=8).map("".join)
ROWS = st.lists(st.lists(FIELDS, min_size=2, max_size=6), max_size=6)


def _stdlib_csv(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@settings(max_examples=200)
@given(ROWS)
def test_csv_text_matches_csv_writer(rows):
    assert csv_text(rows) == _stdlib_csv(rows)


def test_csv_text_quotes_only_fields_that_need_it():
    rows = [("", ""), ("a,b", "plain"), ('say "hi"', " lead"), ("line\nbreak", "cr\r"),
            ("a" * 1000, "b,")]
    assert csv_text(rows) == _stdlib_csv(rows)
    assert csv_text([("a,b", "c")]) == '"a,b",c\r\n'
