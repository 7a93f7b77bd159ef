"""Print the physical and code lines of every module under src/.

    python3 tools/src_lines.py [ROOT]

A code line is a physical line that holds at least one token other than a
comment, a docstring or layout (newline, indent, dedent). A docstring is a
string literal standing alone as the first statement of a module, class
or function. ROOT defaults to the checkout that holds this script.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source text."""
    skip = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT and tok.start[0] not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = argv[1] if len(argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    rows = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    rows.append((os.path.relpath(path, src), *count(fh.read())))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  physical  code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:8d}  {code:4d}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):8d}  {sum(r[2] for r in rows):4d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
