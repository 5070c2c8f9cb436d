"""Print the size of each module of ``src/spdpeg``: its lines and its code
lines, then the totals.

A code line holds part of a token that is not a comment and does not lie
in a docstring (of the module, a class or a function); blank lines,
comment lines and docstring lines are not code. Tokens come from
``tokenize`` and docstrings from ``ast``.

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


def main(argv: list[str]) -> None:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        n_lines, n_code = len(source.splitlines()), code_lines(source)
        total_lines += n_lines
        total_code += n_code
        print(f"{path.name:<16}{n_lines:>7}{n_code:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_code:>7}")


if __name__ == "__main__":
    main(sys.argv)
