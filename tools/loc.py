"""Count the physical and code lines of each module of src/charcalc.

A code line is a non-blank line that is neither a comment nor part of a
docstring (the string that opens a module, class or function body).  Every
line that a multi-line expression or non-docstring string spans counts.

Run from anywhere: ``python tools/loc.py``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "charcalc"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    total_physical = total_code = 0
    print(f"{'module':<20} {'physical':>8} {'code':>6}")
    for f in sorted(PACKAGE.glob("*.py")):
        physical, code = count(f.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{f.name:<20} {physical:>8} {code:>6}")
    print(f"{'total':<20} {total_physical:>8} {total_code:>6}")


if __name__ == "__main__":
    main()
