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
