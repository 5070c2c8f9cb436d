"""``tools/src_size.py`` counts a code line as one that holds part of a
token other than a comment and lies outside every docstring."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("src_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = '''"""Module
docstring."""

# a comment
import os  # a trailing comment


class C:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = """a string,
        not a docstring"""
        return (x +
                1)
'''
    # import, class, def, both lines of s and both lines of the return
    assert load_tool().code_lines(source) == 7
