import os
from pathlib import Path

import streamsir

CHECKOUT_SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_package_under_test_comes_from_the_first_pythonpath_entry_holding_it():
    # conftest appends this checkout's src after PYTHONPATH, so an entry the
    # caller names wins; without one, the tests check this checkout's code.
    entries = [e for e in os.environ.get("PYTHONPATH", "").split(os.pathsep) if e]
    holders = [
        Path(e).resolve() for e in entries if (Path(e) / "streamsir" / "__init__.py").is_file()
    ]
    want = holders[0] if holders else CHECKOUT_SRC
    assert Path(streamsir.__file__).resolve().is_relative_to(want)
