"""Run the `streamsir` CLI in a subprocess against the package under test.

The child process runs in a test's tmp directory, so an inherited relative
`PYTHONPATH` (such as `PYTHONPATH=src` from a checkout) no longer points at
the package there. The child environment therefore puts the absolute parent
directory of the `streamsir` package this process imported first on
`PYTHONPATH`: the child runs the same code the tests check, whatever its cwd,
and no other installed copy can shadow it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import streamsir

CLI = [sys.executable, "-m", "streamsir"]

PACKAGE_ROOT = str(Path(streamsir.__file__).resolve().parent.parent)


def child_env(env_extra=None):
    """The parent environment without STREAMSIR_OUTDIR, with PACKAGE_ROOT
    first on PYTHONPATH, then `env_extra` applied on top."""
    env = dict(os.environ)
    env.pop("STREAMSIR_OUTDIR", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        PACKAGE_ROOT + os.pathsep + inherited if inherited else PACKAGE_ROOT
    )
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(args, cwd, env_extra=None):
    """Run `python -m streamsir ARGS` in `cwd` under child_env(env_extra);
    returns the completed process."""
    return subprocess.run(
        CLI + args, cwd=cwd, env=child_env(env_extra), capture_output=True, text=True
    )
