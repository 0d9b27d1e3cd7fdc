"""Print the code lines of each `src/dqwalk` module and their total.

Usage, from the root of a checkout:

    python3 tools/code_lines.py

A code line holds a token other than a comment or a line break,
indentation or dedent token, and lies outside the module's, every
class's and every function's docstring.  Blank lines, comment lines and
docstrings do not count.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dqwalk").glob("*.py"))
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


if __name__ == "__main__":
    counts = {path.stem: code_lines(path.read_text()) for path in SOURCES}
    for name, count in counts.items():
        print(f"{name:10} {count:5}")
    print(f"{'total':10} {sum(counts.values()):5}")
