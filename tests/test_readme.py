"""The library example in README.md runs as written against the package root."""

from __future__ import annotations

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    """The first python block after the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_snippet(), str(README), "exec"), {})
    objective, norm = (float(v) for v in out.getvalue().split())
    assert math.isfinite(objective) and math.isfinite(norm) and norm > 0
