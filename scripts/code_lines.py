"""Count the lines and the code lines of each module of a package.

    python scripts/code_lines.py [--rev REV] [DIR]

For every `*.py` file directly in DIR (default `src/streamsir`), sorted by
name, the script prints its line count as `wc -l` gives it and its code
lines, then one `total` row.  A code line is a non-blank line that holds
some token other than a comment and is not part of a docstring (the
string that opens a module, class or function body).  A line inside a
multi-line string that is not a docstring is code.

When DIR holds an `__init__.py` whose `__all__` is a literal list or
tuple, one last row, `exports N`, gives its length.

With `--rev REV` the script reads DIR's files at the git revision REV,
through `git ls-tree` and `git show REV:path`, instead of the work tree,
with DIR taken relative to the current directory as before.  So one
command gives the rows before and after a change:

    python scripts/code_lines.py --rev HEAD~1
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path, PurePosixPath

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


def _git(*args: str) -> str:
    r = subprocess.run(["git", *args], capture_output=True, encoding="utf-8")
    if r.returncode != 0:
        raise SystemExit(f"git {' '.join(args)}: {r.stderr.strip()}")
    return r.stdout


def sources(directory: str, rev: str | None = None) -> dict[str, str]:
    """File name -> text of each `*.py` file directly in directory, in the
    work tree or, given rev, at that git revision."""
    if rev is None:
        return {p.name: p.read_text(encoding="utf-8") for p in Path(directory).glob("*.py")}
    out = {}
    for line in _git("ls-tree", rev, "--", f"{directory}/").splitlines():
        meta, path = line.split("\t", 1)
        if meta.split()[1] == "blob" and path.endswith(".py"):
            out[PurePosixPath(path).name] = _git("show", f"{rev}:./{path}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/streamsir", help="package directory")
    parser.add_argument("--rev", help="git revision to read the files at (default: work tree)")
    args = parser.parse_args(argv)
    texts = sources(args.dir, args.rev)
    totals = [0, 0]
    print(f"{'lines':>6} {'code':>6}  module")
    for name in sorted(texts):
        counts = count(texts[name])
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{counts[0]:>6} {counts[1]:>6}  {name}")
    print(f"{totals[0]:>6} {totals[1]:>6}  total")
    n = exports(texts["__init__.py"]) if "__init__.py" in texts else None
    if n is not None:
        print(f"exports {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
