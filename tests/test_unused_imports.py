"""Every name a module imports is read somewhere in that module.

No linter runs on this repository, so this stdlib-ast check stands in for
pyflakes' F401.  An import line marked `# noqa: F401` is exempt: the
per-layer tracer patches such names by module attribute.  A name listed in
a module's `__all__` counts as read.  perfbench/ is not scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "demos", "scripts")


def _sources():
    return sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads, in line order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for line, name in imported if name not in read)


def test_the_check_finds_an_unused_import():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from pathlib import Path, PurePath\n"
        "from x import y as z\n"
        "__all__ = ['z']\n"
        "print(Path)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "PurePath")]


@pytest.mark.parametrize("path", _sources(), ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
