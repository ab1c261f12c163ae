"""tools/code_lines.py counts code lines, not blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function docstring."""
    s = """a string that is code,
over two lines"""
    return (x +
            1)


class C:
    """A class docstring."""

    y = 2
'''


def test_counts_a_fixture_by_hand():
    # import, def, both lines of s, both lines of the return, class, y
    assert code_lines.code_lines(FIXTURE) == 8
