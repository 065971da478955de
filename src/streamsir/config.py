"""Flat key=value configuration files shared by the command-line tools.

One setting per line, `key = value`, with `#` comments and blank lines
ignored.  Values are parsed as JSON where possible and fall back to bare
strings.  A string setting keeps its text
as written unless JSON reads a string from it, so paths need no quoting:
`out_dir = 2026` names the directory 2026.
Unknown keys are rejected rather than ignored: a typo that silently
reverts a setting to its default is worse than an error.  Flags given on
the command line override file values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .engine import DEFAULT_ALPHA
from .errors import ConfigError

_KERNELS = ("epanechnikov", "tabulated")
_MAX_GRID = 10**6  # largest estimate grid `fit` reads and writes


@dataclass(frozen=True)
class EngineConfig:
    """Resolved settings of one command-line invocation.

    Attributes mirror the accepted configuration keys; None means "not
    set" for overridable settings whose defaults depend on the data.
    """

    alpha: float = DEFAULT_ALPHA
    warmup: int | None = None
    boundary: float | None = None
    kernel: str = "epanechnikov"
    kernel_table: str | None = None
    grid_min: float = -3.0
    grid_max: float = 3.0
    grid_count: int = 121
    seed: int = 0
    n: int = 1000
    p: int = 10
    noise_std: float = 1.0
    input: str | None = None
    out_dir: str | None = None

    def grid_points(self) -> np.ndarray:
        """Evenly spaced estimate abscissas, endpoints included."""
        if self.grid_count == 1:
            return np.array([self.grid_min], dtype=np.float64)
        return np.linspace(self.grid_min, self.grid_max, self.grid_count)


# Every configuration key, one per EngineConfig field: key -> (type, flag help).
SETTINGS: dict[str, tuple[type, str]] = {
    "alpha": (float, "bandwidth exponent"),
    "warmup": (int, "warm-up length"),
    "boundary": (float, "slice boundary override"),
    "kernel": (str, "kernel name (epanechnikov or tabulated)"),
    "kernel_table": (str, "x,k CSV for the tabulated kernel"),
    "grid_min": (float, "left end of the estimate grid"),
    "grid_max": (float, "right end of the estimate grid"),
    "grid_count": (int, "number of grid points"),
    "seed": (int, "random seed"),
    "n": (int, "synthetic sample size"),
    "p": (int, "synthetic covariate dimension"),
    "noise_std": (float, "synthetic noise level"),
    "input": (str, "sample CSV to ingest instead of simulating"),
    "out_dir": (str, "artifact output directory"),
}


def _coerce(key: str, raw: Any) -> Any:
    kind = SETTINGS[key][0]
    if kind is int:
        # is_integer() is False for NaN and the infinities, which int() cannot take.
        integral = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
        if isinstance(raw, bool) or not integral:
            raise ConfigError(f"key {key!r} needs an integer, got {raw!r}", key=key)
        return int(raw)
    if kind is float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"key {key!r} needs a number, got {raw!r}", key=key)
        return float(raw)
    if not isinstance(raw, str) or not raw:
        raise ConfigError(f"key {key!r} needs a non-empty string, got {raw!r}", key=key)
    return raw


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse and validate a config file's text into a key-value dict."""
    out: dict[str, Any] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
        key, _, value_text = body.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in SETTINGS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}", key=key)
        if not value_text:
            raise ConfigError(f"line {line_no}: key {key!r} has no value", key=key)
        try:
            raw: Any = json.loads(value_text)
        except json.JSONDecodeError:
            raw = value_text
        if SETTINGS[key][0] is str and not isinstance(raw, str):
            raw = value_text
        out[key] = _coerce(key, raw)
    return out


def validate_config(cfg: EngineConfig) -> EngineConfig:
    """Cross-field validation; returns the config unchanged when valid."""
    if not (0.0 < cfg.alpha < 1.0):
        raise ConfigError(
            f"alpha must lie in the open interval (0, 1), got {cfg.alpha!r}", key="alpha"
        )
    if cfg.warmup is not None and cfg.warmup < 3:
        raise ConfigError("warmup must be at least 3", key="warmup")
    # For synthetic data p is known here; for CSV input the engine enforces
    # the same bound against the ingested dimension instead.
    if cfg.warmup is not None and cfg.input is None and cfg.warmup < cfg.p + 2:
        raise ConfigError(
            f"warmup must be at least p + 2 = {cfg.p + 2}", key="warmup"
        )
    if cfg.kernel not in _KERNELS:
        raise ConfigError(
            f"kernel must be one of {', '.join(_KERNELS)}, got {cfg.kernel!r}", key="kernel"
        )
    if cfg.kernel == "tabulated" and not cfg.kernel_table:
        raise ConfigError("kernel = tabulated requires kernel_table", key="kernel_table")
    if cfg.kernel != "tabulated" and cfg.kernel_table:
        raise ConfigError(
            f"kernel_table is read only with kernel = tabulated, got kernel = {cfg.kernel}",
            key="kernel_table",
        )
    if cfg.grid_count < 1:
        raise ConfigError("grid_count must be at least 1", key="grid_count")
    if cfg.grid_count > _MAX_GRID:
        raise ConfigError(f"grid_count must be at most {_MAX_GRID}", key="grid_count")
    for key in ("grid_min", "grid_max", "boundary", "noise_std"):
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}", key=key)
    if cfg.grid_count > 1 and not (cfg.grid_min < cfg.grid_max):
        raise ConfigError("grid_min must be below grid_max", key="grid_min")
    if cfg.n < 1:
        raise ConfigError("n must be positive", key="n")
    if cfg.p < 4:
        raise ConfigError("p must be at least 4 for the reference model", key="p")
    if cfg.noise_std < 0.0:
        raise ConfigError("noise_std must be non-negative", key="noise_std")
    return cfg


def load_config(path: str | Path | None, overrides: dict[str, Any]) -> EngineConfig:
    """Defaults, then file values, then non-None overrides, then validation."""
    values: dict[str, Any] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!s}: {exc}") from exc
        values.update(parse_config_text(text))
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in SETTINGS:
            raise ConfigError(f"unknown key {key!r}", key=key)
        values[key] = _coerce(key, value)
    return validate_config(replace(EngineConfig(), **values))
