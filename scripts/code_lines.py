"""Count the lines and the code lines of each module of a package.

    python scripts/code_lines.py [DIR]

For every `*.py` file directly in DIR (default `src/streamsir`), sorted by
name, the script prints its line count as `wc -l` gives it and its code
lines, then one `total` row.  A code line is a non-blank line that holds
some token other than a comment and is not part of a docstring (the
string that opens a module, class or function body).  A line inside a
multi-line string that is not a docstring is code.

When DIR holds an `__init__.py` whose `__all__` is a literal list or
tuple, one last row, `exports N`, gives its length.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of a module span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines as wc -l counts them, code lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def exports(text: str) -> int | None:
    """Length of a module's `__all__`, or None when it has no literal one."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return len(ast.literal_eval(node.value))
            except ValueError:
                return None
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/streamsir", help="package directory")
    args = parser.parse_args(argv)
    totals = [0, 0]
    print(f"{'lines':>6} {'code':>6}  module")
    for path in sorted(Path(args.dir).glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{counts[0]:>6} {counts[1]:>6}  {path.name}")
    print(f"{totals[0]:>6} {totals[1]:>6}  total")
    init = Path(args.dir) / "__init__.py"
    n = exports(init.read_text(encoding="utf-8")) if init.is_file() else None
    if n is not None:
        print(f"exports {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
