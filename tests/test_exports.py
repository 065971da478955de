"""streamsir.__all__ lists each public name once, and each one resolves.

A name dropped from the package's imports but left in __all__ breaks
only `from streamsir import *`, so nothing else would notice it;
test_unused_imports.py catches the reverse case, an import that nothing
reads or exports.
"""

import streamsir


def test_every_exported_name_resolves():
    missing = [name for name in streamsir.__all__ if not hasattr(streamsir, name)]
    assert missing == []


def test_every_exported_name_is_listed_once():
    names = list(streamsir.__all__)
    assert sorted(set(names)) == sorted(names)
