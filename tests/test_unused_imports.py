"""Every name a module imports is read somewhere in that module.

No linter runs on this repository, so this stdlib-ast check stands in for
pyflakes' F401.  The per-layer tracer patches some names by module
attribute, so an import line marked `# noqa: F401` exempts a name only
while a `PATCHES` row of perfbench/tracing.py patches it in that module.
A name listed in a module's `__all__` counts as read.  perfbench/ is not
scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "demos", "scripts")


def _sources():
    return sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))


def _patched() -> dict[Path, frozenset[str]]:
    """Source file -> the names the tracer's PATCHES rows patch in its module.

    The rows are read from the file's syntax tree, not by importing it.
    """
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (rows,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]
    )
    out: dict[Path, frozenset[str]] = {}
    for module, name, _ in rows:
        path = ROOT / "src" / (module.replace(".", "/") + ".py")
        out[path] = out.get(path, frozenset()) | {name}
    return out


def unused_imports(source: str, patched: frozenset[str] = frozenset()) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads, in line order.

    A name on a `# noqa: F401` line counts as read only if it is in `patched`.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            exempt = patched if "# noqa: F401" in lines[node.lineno - 1] else ()
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and name not in exempt:
                    imported.append((node.lineno, name))
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
    assert unused_imports(source, frozenset({"sys"})) == [(1, "os"), (3, "PurePath")]


def test_a_noqa_mark_exempts_only_a_patched_name():
    source = "from .engine import init_stream, stream_step  # noqa: F401\n"
    assert unused_imports(source) == [(1, "init_stream"), (1, "stream_step")]
    assert unused_imports(source, frozenset({"stream_step"})) == [(1, "init_stream")]
    assert unused_imports(source, frozenset({"init_stream", "stream_step"})) == []


_PATCHED = _patched()


@pytest.mark.parametrize("path", _sources(), ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_module_imports_a_name_it_never_reads(path):
    patched = _PATCHED.get(path, frozenset())
    assert unused_imports(path.read_text(encoding="utf-8"), patched) == []
