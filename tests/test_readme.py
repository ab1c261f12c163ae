"""Each work bound README quotes is the bound the code sets."""

import re
import sys
from pathlib import Path

import pytest

from whitlocal import cli, exactalg, localrep, zeta

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

BOUNDS = {
    "EXPONENT_LIMIT": exactalg.EXPONENT_LIMIT,
    "ENUMERATION_LIMIT": localrep.ENUMERATION_LIMIT,
    "MAX_RESIDUE_CARDINALITY": localrep.MAX_RESIDUE_CARDINALITY,
    "MAX_CLOSED_FORM_FACTORS": cli.MAX_CLOSED_FORM_FACTORS,
    "zeta.MAX_TERMS": zeta.MAX_TERMS,
}


def _number(text: str) -> int:
    """A number as README writes it: 10,000, 2^24 or 2^31 - 1."""
    power, _, less = text.replace(",", "").partition(" - ")
    base, _, exp = power.partition("^")
    return int(base) ** int(exp or 1) - int(less or 0)


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_readme_quotes_the_bound_of_the_code(name):
    quoted = re.findall(rf"`{re.escape(name)}`\s+=\s+(\d[\d,]*(?:\^\d+)?(?: - \d+)?)", README)
    assert quoted, f"README quotes no value of {name}"
    assert {_number(q) for q in quoted} == {BOUNDS[name]}


def test_readme_quotes_the_decimal_exponent_bound():
    # params refuses a decimal exponent past 3 times the digits str(int) prints
    (digits, bound), = re.findall(r"3 × ([\d,]+) = ([\d,]+)", README)
    assert _number(digits) == sys.int_info.default_max_str_digits
    assert _number(bound) == 3 * sys.int_info.default_max_str_digits
    cli._parse_fraction(f"1e-{_number(bound)}")
    with pytest.raises(ValueError, match="exceeds"):
        cli._parse_fraction(f"1e-{_number(bound) + 1}")
