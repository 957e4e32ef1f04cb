"""Print the code lines of each module of ``src/squidcavity`` and their total.

    python3 tools/code_lines.py

A code line is a source line that holds a token of code: blank lines,
comment lines, and the docstrings of modules, classes and functions do not
count.  Every line of a statement that spans several lines counts, and so
does every line of a string that is not a docstring.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "squidcavity"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every module, class and function docstring spans."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _HAS_DOCSTRING) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<{width}} {count:5d}")
    print(f"{'total':<{width}} {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
