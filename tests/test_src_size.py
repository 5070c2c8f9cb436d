"""``tools/src_size.py`` counts a code line as one that holds part of a
token other than a comment and lies outside every docstring, and a
settable value as a parameter with a default or an ``add_argument`` call."""

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


def test_settable_values_count_defaults_and_options():
    source = '''
import argparse


def f(a, b=1, *args, c, d=None, **kwargs):
    return lambda e, g=2: (a, b, c, d, e, g)


class C:
    async def h(self, x=0, *, y):
        return dict(x=x, y=y)


p = argparse.ArgumentParser()
p.add_argument("--one", default=3)
p.add_argument("--two")
'''
    # b, d, g and x; --one and --two (a call's keyword arguments do not count)
    assert load_tool().settable_values(source) == (4, 2)
