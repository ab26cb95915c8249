import math
from pathlib import Path

import pytest

from lapsegan import config, ops
from lapsegan.config import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, RunConfig,
                             config_from_dict, load_config, parse_config_file)
from lapsegan.errors import ConfigError


class TestDefaults:
    def test_paper_hyperparameters(self):
        cfg = RunConfig()
        assert cfg.lr == 2e-4
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.5, 0.9, 1e-8)
        assert cfg.lambda_rank == 1.0
        assert cfg.resolution == 128

    def test_validate_catches_bad_values(self):
        with pytest.raises(ConfigError):
            RunConfig(resolution=96).validate()
        with pytest.raises(ConfigError):
            RunConfig(width_multiplier=1.5).validate()

    @pytest.mark.parametrize("key, value", [
        ("resolution", 96), ("width_multiplier", 1.5), ("batch_size", 0),
        ("generation_bn_mode", "ema"),
        ("iterations", -3), ("checkpoint_every", -4), ("log_every", -5),
        ("lr", -1.0), ("lr", 0.0), ("lr", math.nan),
        ("lambda_rank", -5.0), ("lambda_rank", math.nan),
        ("width_multiplier", math.nan), ("seed", -1)])
    def test_messages_name_the_bad_value(self, key, value):
        with pytest.raises(ConfigError, match=key) as err:
            RunConfig(**{key: value}).validate()
        assert f"{value}" in str(err.value)

    @pytest.mark.parametrize("key", ["iterations", "checkpoint_every", "log_every"])
    def test_schedule_lengths_at_least_one(self, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: 0}).validate()
        RunConfig(**{key: 1}).validate()


class TestFileParsing:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment line\nresolution = 64  # trailing comment\n"
                     "lambda_rank = 0.5\n\n")
        vals = parse_config_file(p)
        assert vals == {"resolution": 64, "lambda_rank": 0.5}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("learning_rate = 0.01\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("iterations = soon\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("resolution 64\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)


class TestPrecedence:
    def test_flags_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 3\niterations = 7\n")
        cfg = load_config(p, overrides={"seed": "11"})
        assert cfg.seed == 11 and cfg.iterations == 7

    def test_overrides_coerced(self):
        cfg = load_config(overrides={"width_multiplier": "0.125"})
        assert cfg.width_multiplier == 0.125

    def test_unknown_override(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"nope": "1"})


class TestEcho:
    def test_dict_round_trip(self):
        cfg = load_config(overrides={"resolution": "64", "seed": "5"})
        back = config_from_dict(cfg.as_dict())
        assert back == cfg

    def test_unknown_echo_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"resolution": 64, "mystery": 1})

    @pytest.mark.parametrize("key, value", [
        ("width_multiplier", "x"), ("batch_size", 2.5), ("seed", True),
        ("resolution", "64"), ("generation_bn_mode", 1), ("lr", None), ("lr", False)])
    def test_mistyped_echo_names_key_and_value(self, key, value):
        echo = {**RunConfig().as_dict(), key: value}
        with pytest.raises(ConfigError, match=f"{key} must be a .*got {value!r}"):
            config_from_dict(echo)

    def test_int_echo_of_float_key_loads(self):
        assert config_from_dict({**RunConfig().as_dict(), "lr": 1}).lr == 1


class TestSurface:
    def test_fields_and_defaults_pinned(self):
        """Every run key and its default. A new knob, or a changed default,
        is a deliberate edit of this table."""
        assert RunConfig().as_dict() == {
            "resolution": 128, "width_multiplier": 1.0, "batch_size": 2,
            "lr": 2e-4, "lambda_rank": 1.0, "generation_bn_mode": "running",
            "seed": 0, "iterations": 1000, "checkpoint_every": 500, "log_every": 1}
        assert not any(isinstance(v, bool) for v in RunConfig().as_dict().values())

    def test_bn_eps_reads_the_constant(self):
        """Batch norm's epsilon is no run key; the accessor reads ops.BN_EPS."""
        assert RunConfig().bn_eps is ops.BN_EPS
        with pytest.raises(TypeError):
            RunConfig(bn_eps=1e-3)

    def test_readme_names_every_key(self):
        """The README documents every run key and every retired one."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        keys = [*RunConfig().as_dict(), *config._RETIRED]
        assert [k for k in keys if f"`{k}`" not in readme] == []
