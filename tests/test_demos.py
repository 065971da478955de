import subprocess
import sys
from pathlib import Path

import pytest

from _cli import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_cleanly_and_writes_nothing(demo, tmp_path):
    r = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env(), capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout
    assert list(tmp_path.iterdir()) == []
