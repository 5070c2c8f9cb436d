"""Print the size of each module of ``src/spdpeg``: its lines, its code
lines and its settable values, then the totals.

A code line holds part of a token that is not a comment and does not lie
in a docstring (of the module, a class or a function); blank lines,
comment lines and docstring lines are not code. Tokens come from
``tokenize`` and docstrings from ``ast``.

The settable values are the function parameters that have a default
(``defaults``) and the command-line options, one per ``add_argument``
call (``options``).

Run from anywhere: ``python3 tools/src_size.py [package directory]``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spdpeg"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines of a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def settable_values(source: str) -> tuple[int, int]:
    """(parameters with a default, ``add_argument`` calls) of a module's
    source."""
    defaults = options = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            options += 1
    return defaults, options


def main(argv: list[str]) -> None:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    totals = [0, 0, 0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}{'defaults':>10}{'options':>9}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        row = (len(source.splitlines()), code_lines(source),
               *settable_values(source))
        totals = [t + v for t, v in zip(totals, row)]
        print(f"{path.name:<16}{row[0]:>7}{row[1]:>7}{row[2]:>10}{row[3]:>9}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}{totals[2]:>10}{totals[3]:>9}")


if __name__ == "__main__":
    main(sys.argv)
