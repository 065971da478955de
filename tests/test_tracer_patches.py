"""The benchmark tracer's patch points must all resolve.

perfbench/tracing.py wraps each (module, attribute) in its PATCHES list
through getattr, so a refactor that drops or renames one of those names
breaks traced benchmark runs (`--trace 1`) without failing anything else.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name, attr, span", _patches())
def test_patch_point_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"
