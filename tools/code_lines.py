"""Count code lines per file under ``src/``.

A code line is a physical line that holds at least one Python token other
than a comment, and is not part of a docstring (the leading string
statement of a module, class or function).  Blank lines, comment-only
lines and docstring lines do not count.  This is the measure the
simplicity entries of CHANGES.md quote as "code lines".

Usage::

    python tools/code_lines.py            # per-file report and total for src/
    python tools/code_lines.py PATH ...   # other files or directories
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines of one Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NON_CODE:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    paths = args.paths or [root / "src"]
    total = 0
    for path in _python_files(paths):
        n = count_code_lines(path.read_text(encoding="utf-8"))
        total += n
        try:
            shown = path.resolve().relative_to(root)
        except ValueError:
            shown = path
        print(f"{n:7d}  {shown}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
