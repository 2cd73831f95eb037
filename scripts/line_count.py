#!/usr/bin/env python3
"""Line counts of the qflow package: total lines and code lines.

A code line holds a token other than a comment or a newline and is not
part of a module, class or function docstring; blank lines, comment-only
lines and docstrings count only in the total.  A string or bracket that
spans several lines makes each of them a code line.

    python scripts/line_count.py            # counts src/qflow
    python scripts/line_count.py some/dir   # counts every .py file below it
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("path", nargs="?", type=Path, default=ROOT / "src" / "qflow")
    args = ap.parse_args()
    total = code = 0
    for path in sorted(args.path.rglob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        total += t
        code += c
    print(f"total lines {total}")
    print(f"code lines  {code}")


if __name__ == "__main__":
    main()
