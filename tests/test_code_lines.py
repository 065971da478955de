import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

# 18 lines; the code lines are `import os`, `class A:`, the two lines of
# the string bound to x, `def f(self):` and `return 1`.
_MODULE = '''"""Module docstring
on two lines."""

import os  # a comment

# a whole-line comment


class A:
    """Class docstring."""

    x = """a multi-line
string that is code"""

    def f(self):
        """Function
        docstring."""
        return 1
'''


def test_counts_lines_and_code_lines_of_each_module(tmp_path):
    (tmp_path / "mod.py").write_text(_MODULE)
    (tmp_path / "empty.py").write_text("")
    (tmp_path / "notes.txt").write_text("not a module\n")
    r = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    rows = [line.split() for line in r.stdout.splitlines()]
    assert rows == [
        ["lines", "code", "module"],
        ["0", "0", "empty.py"],
        ["18", "6", "mod.py"],
        ["18", "6", "total"],
    ]


def test_a_literal_all_in_the_package_init_adds_an_exports_row(tmp_path):
    literal, computed = tmp_path / "literal", tmp_path / "computed"
    literal.mkdir()
    computed.mkdir()
    (literal / "__init__.py").write_text('__all__ = [\n    "a",\n    "b",\n]\n')
    (computed / "__init__.py").write_text('__all__ = sorted(["a", "b"])\n')
    rows = {}
    for d in (literal, computed):
        r = subprocess.run([sys.executable, str(SCRIPT), str(d)], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        rows[d.name] = [line.split() for line in r.stdout.splitlines()]
    assert rows["literal"] == [
        ["lines", "code", "module"],
        ["4", "4", "__init__.py"],
        ["4", "4", "total"],
        ["exports", "2"],
    ]
    assert rows["computed"][-1] == ["1", "1", "total"]


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, check=True, capture_output=True,
    )


def _rows(repo, *args):
    r = subprocess.run(
        [sys.executable, str(SCRIPT), *args], cwd=repo, capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    return [line.split() for line in r.stdout.splitlines()]


def test_rev_counts_the_files_of_a_git_revision(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    _git(tmp_path, "init", "-q")
    (pkg / "__init__.py").write_text('__all__ = ["a", "b"]\n')
    (pkg / "mod.py").write_text(_MODULE)
    (pkg / "sub" / "deep.py").write_text("x = 1\n")
    (pkg / "notes.txt").write_text("not a module\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    first = _rows(tmp_path, "pkg")
    (pkg / "__init__.py").write_text('__all__ = ["a"]\n')
    (pkg / "new.py").write_text("y = 2\n\n\nz = 3\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "second")
    second = _rows(tmp_path, "pkg")
    # An uncommitted file is read from the work tree only.
    (pkg / "loose.py").write_text("w = 4\n")
    assert first == [
        ["lines", "code", "module"],
        ["1", "1", "__init__.py"],
        ["18", "6", "mod.py"],
        ["19", "7", "total"],
        ["exports", "2"],
    ]
    assert second == [
        ["lines", "code", "module"],
        ["1", "1", "__init__.py"],
        ["18", "6", "mod.py"],
        ["4", "2", "new.py"],
        ["23", "9", "total"],
        ["exports", "1"],
    ]
    assert _rows(tmp_path, "--rev", "HEAD~1", "pkg") == first
    assert _rows(tmp_path, "--rev", "HEAD", "pkg") == second
    # From a subdirectory, DIR is relative to it, as in the work tree.
    assert _rows(pkg, "--rev", "HEAD~1", ".") == first


def test_an_unknown_rev_is_an_error(tmp_path):
    _git(tmp_path, "init", "-q")
    r = subprocess.run(
        [sys.executable, str(SCRIPT), "--rev", "nowhere", "pkg"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert r.returncode == 1 and "nowhere" in r.stderr
