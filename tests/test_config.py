import pytest

from lapsegan.config import RunConfig, config_from_dict, load_config, parse_config_file
from lapsegan.errors import ConfigError
from lapsegan.models import build_discriminator


class TestDefaults:
    def test_paper_hyperparameters(self):
        cfg = RunConfig()
        assert cfg.lr == 2e-4
        assert cfg.beta1 == 0.5 and cfg.beta2 == 0.9
        assert cfg.lambda_rank == 1.0
        assert cfg.resolution == 128

    def test_validate_catches_bad_values(self):
        with pytest.raises(ConfigError):
            RunConfig(resolution=96).validate()
        with pytest.raises(ConfigError):
            RunConfig(width_multiplier=1.5).validate()
        with pytest.raises(ConfigError):
            RunConfig(loss_reduction="median").validate()

    @pytest.mark.parametrize("key", ["iterations", "checkpoint_every", "log_every"])
    def test_schedule_lengths_at_least_one(self, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: 0}).validate()
        RunConfig(**{key: 1}).validate()


class TestFileParsing:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment line\nresolution = 64  # trailing comment\n"
                     "lambda_rank = 0.5\ngram_batch_mean = true\n\n")
        vals = parse_config_file(p)
        assert vals == {"resolution": 64, "lambda_rank": 0.5,
                        "gram_batch_mean": True}

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
        cfg = load_config(overrides={"width_multiplier": "0.125",
                                     "gram_batch_mean": "false"})
        assert cfg.width_multiplier == 0.125
        assert cfg.gram_batch_mean is False

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


class TestTapResolution:
    def test_auto_follows_discriminator(self):
        cfg = RunConfig()
        assert cfg.tap_names(build_discriminator(128)) == ["conv1", "conv3"]
        assert cfg.tap_names(build_discriminator(64)) == ["conv2", "conv4"]

    def test_explicit_list_checked(self):
        cfg = RunConfig(gram_taps="conv2, conv5")
        assert cfg.tap_names(build_discriminator(128)) == ["conv2", "conv5"]
        cfg = RunConfig(gram_taps="convX")
        with pytest.raises(ConfigError):
            cfg.tap_names(build_discriminator(128))
