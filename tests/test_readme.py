"""The library example in README.md runs as written against the package root,
and every command of its CLI block parses with the CLI's own parser."""

from __future__ import annotations

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

from spdpeg.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    """The first python block after the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def cli_commands() -> list[list[str]]:
    """The ``spdpeg`` commands of the first block after the "## CLI"
    heading, continuation lines joined and comments skipped, as argv
    lists without the program name."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("spdpeg ")]


def test_readme_cli_commands_parse():
    commands = cli_commands()
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == {"run", "verify-rates",
                                              "check-lemma1", "plotdata"}


def test_readme_library_snippet_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_snippet(), str(README), "exec"), {})
    objective, norm = (float(v) for v in out.getvalue().split())
    assert math.isfinite(objective) and math.isfinite(norm) and norm > 0
