import math
from dataclasses import fields, replace

import numpy as np
import pytest

from streamsir import ConfigError
from streamsir.config import (
    SETTINGS,
    EngineConfig,
    load_config,
    parse_config_text,
    validate_config,
)


def test_defaults_from_empty_document():
    assert parse_config_text("") == {}
    cfg = EngineConfig()
    validate_config(cfg)
    assert cfg.alpha == 0.35
    assert cfg.warmup is None
    assert cfg.kernel == "epanechnikov"
    assert cfg.n == 1000 and cfg.p == 10
    assert cfg.seed == 0


def test_settings_declare_every_config_field():
    assert list(SETTINGS) == [f.name for f in fields(EngineConfig)]


def test_comments_and_blank_lines_ignored():
    text = """
    # a comment
    alpha = 0.4

    seed = 7
    """
    values = parse_config_text(text)
    assert values == {"alpha": 0.4, "seed": 7}


def test_unknown_key_names_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("alpha = 0.4\nbogus = 1\n")


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError):
        parse_config_text("seed = true")


def test_grid_points_match_linspace():
    cfg = EngineConfig()
    assert np.array_equal(cfg.grid_points(), np.linspace(-3.0, 3.0, 121))
    single = EngineConfig(grid_count=1)
    pts = single.grid_points()
    assert pts.shape == (1,)


def test_alpha_bounds_name_the_interval():
    for bad in (0.0, 1.0, 1.2, -0.1):
        with pytest.raises(ConfigError, match=r"\(0, 1\)") as err:
            validate_config(EngineConfig(alpha=bad))
        assert err.value.key == "alpha"


def test_warmup_floor():
    with pytest.raises(ConfigError, match="at least 3"):
        validate_config(EngineConfig(warmup=2))
    with pytest.raises(ConfigError, match="p \\+ 2"):
        validate_config(EngineConfig(warmup=5, p=10))
    # With CSV input the dimension is unknown until ingest, so the
    # p-dependent floor is deferred to the engine.
    validate_config(EngineConfig(warmup=5, p=10, input="rows.csv"))


def test_kernel_choices():
    with pytest.raises(ConfigError, match="epanechnikov"):
        validate_config(EngineConfig(kernel="gauss"))
    with pytest.raises(ConfigError, match="kernel_table"):
        validate_config(EngineConfig(kernel="tabulated"))
    validate_config(EngineConfig(kernel="tabulated", kernel_table="k.csv"))


def test_a_kernel_table_without_the_tabulated_kernel_is_refused():
    # The table would be ignored and the fit would silently use Epanechnikov.
    with pytest.raises(ConfigError, match="kernel = tabulated") as err:
        validate_config(EngineConfig(kernel_table="k.csv"))
    assert err.value.key == "kernel_table"


def test_grid_validation():
    with pytest.raises(ConfigError, match="grid_count"):
        validate_config(EngineConfig(grid_count=0))
    with pytest.raises(ConfigError, match="grid_min"):
        validate_config(EngineConfig(grid_min=2.0, grid_max=-2.0))
    # A config file can name them too: JSON reads Infinity and NaN.
    for key, value in (("grid_min", "NaN"), ("grid_max", "Infinity"), ("grid_min", "-Infinity")):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            validate_config(replace(EngineConfig(), **parse_config_text(f"{key} = {value}\n")))
    for values in ({"grid_min": math.nan, "grid_count": 1}, {"grid_max": math.inf}):
        with pytest.raises(ConfigError, match="must be finite"):
            validate_config(EngineConfig(**values))


def test_model_parameters():
    # The synthetic model is always the reference one: no key names it.
    with pytest.raises(ConfigError, match="unknown key 'model'") as exc:
        parse_config_text("model = reference\n")
    assert exc.value.key == "model"
    with pytest.raises(ConfigError, match="n must be positive"):
        validate_config(EngineConfig(n=0))
    with pytest.raises(ConfigError, match="at least 4"):
        validate_config(EngineConfig(p=3))
    with pytest.raises(ConfigError, match="noise_std"):
        validate_config(EngineConfig(noise_std=-1.0))


@pytest.mark.parametrize("key", ["noise_std", "boundary"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_noise_level_or_boundary_is_refused(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite") as err:
        validate_config(EngineConfig(**{key: value}))
    assert err.value.key == key


def test_load_config_layers_overrides(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("alpha = 0.4\nn = 500\n")
    cfg = load_config(path, {"n": 750, "seed": None})
    assert cfg.alpha == 0.4  # from the file
    assert cfg.n == 750  # flag beats file
    assert cfg.seed == 0  # None override is "not given"


def test_load_config_without_file():
    cfg = load_config(None, {"alpha": 0.25})
    assert cfg.alpha == 0.25
    assert cfg.n == 1000


def test_numeric_strings_coerce():
    values = parse_config_text("alpha = 0.5\nn = 2000\ngrid_min = -1\n")
    assert values["alpha"] == 0.5
    assert isinstance(values["grid_min"], float) and values["grid_min"] == -1.0
    assert isinstance(values["n"], int) and values["n"] == 2000


@pytest.mark.parametrize(
    "text, value",
    [("out_dir = 2026", "2026"), ("kernel_table = 1e3", "1e3"), ("input = null", "null"),
     ("input = true", "true"), ("out_dir = [1, 2]", "[1, 2]"),
     ('input = "data set.csv"', "data set.csv")],
)
def test_string_keys_keep_their_text_unless_json_reads_a_string(text, value):
    key = text.split()[0]
    assert parse_config_text(text + "\n") == {key: value}


def test_an_empty_quoted_string_is_refused():
    with pytest.raises(ConfigError, match="key 'out_dir' needs a non-empty string"):
        parse_config_text('out_dir = ""\n')


@pytest.mark.parametrize("key", ["grid_count", "seed", "n", "p", "warmup"])
@pytest.mark.parametrize("value", ["1e400", "NaN", "Infinity", "-Infinity", "2.5"])
def test_integer_keys_refuse_non_integral_numbers(key, value):
    # JSON reads 1e400 as inf; int() of inf or nan would raise outside ConfigError.
    with pytest.raises(ConfigError, match=f"key '{key}' needs an integer") as exc:
        parse_config_text(f"{key} = {value}\n")
    assert exc.value.key == key
    with pytest.raises(ConfigError, match=f"key '{key}' needs an integer"):
        load_config(None, {key: float(value)})


def test_grid_count_has_a_ceiling():
    assert validate_config(EngineConfig(grid_count=10**6)).grid_count == 10**6
    for count in (10**6 + 1, 10**12):
        with pytest.raises(ConfigError, match="grid_count must be at most 1000000"):
            validate_config(EngineConfig(grid_count=count))
    with pytest.raises(ConfigError, match="grid_count must be at most"):
        load_config(None, {"grid_count": 1e12})
