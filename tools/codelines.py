"""Count the code lines of ``src/dyncov``, per module.

    python3 tools/codelines.py

A code line is a source line that is not blank, not a comment alone, and not
part of a docstring (of the module, a class or a function).  Prints one
``count module`` line per module and the total last; it gates nothing.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "dyncov"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, outside any docstring."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted(DEFAULT.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
