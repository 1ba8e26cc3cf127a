"""What ``tools/loc.py`` counts as a code line, on a fixture source."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("loc", Path(__file__).parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    s = """a string that is not a docstring,
    over two lines"""
    return x


class C:
    """A class docstring."""

    y = (1,
         2)
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, def, the two lines of s, return, class, the two lines of y
    assert loc.code_lines(SOURCE) == 8

