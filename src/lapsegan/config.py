"""Flat run configuration with defaults < config file < explicit overrides.

Every key has a default and unknown keys are rejected. The effective config
is echoed into every checkpoint and report so a run can be replayed from
its artifacts alone.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError


@dataclass
class RunConfig:
    resolution: int = 128
    width_multiplier: float = 1.0
    batch_size: int = 2
    lr: float = 2e-4            # fixed throughout training
    beta1: float = 0.5
    beta2: float = 0.9          # the quoted momentum; 0.999 selectable
    adam_eps: float = 1e-8
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    lambda_rank: float = 1.0
    gram_taps: str = "auto"     # "auto" = first and third discriminator convs
    gram_batch_mean: bool = False
    loss_reduction: str = "mean"     # content L1: mean | sum
    adv_form: str = "saturating"     # generator loss: saturating | nonsaturating
    generation_bn_mode: str = "running"  # running | batch statistics at generation
    g2_init: str = "g1"              # g1 | fresh
    seed: int = 0
    iterations: int = 1000
    checkpoint_every: int = 500
    log_every: int = 1

    def validate(self):
        if self.resolution not in (128, 64):
            raise ConfigError(f"resolution must be 128 or 64, got {self.resolution}")
        if not 0.0 < self.width_multiplier <= 1.0:
            raise ConfigError("width_multiplier must lie in (0,1]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.loss_reduction not in ("mean", "sum"):
            raise ConfigError(f"loss_reduction must be mean or sum, got {self.loss_reduction}")
        if self.adv_form not in ("saturating", "nonsaturating"):
            raise ConfigError(f"adv_form must be saturating or nonsaturating")
        if self.generation_bn_mode not in ("running", "batch"):
            raise ConfigError("generation_bn_mode must be running or batch")
        if self.g2_init not in ("g1", "fresh"):
            raise ConfigError("g2_init must be g1 or fresh")
        if min(self.iterations, self.checkpoint_every, self.log_every) < 1:
            raise ConfigError("iterations, checkpoint_every and log_every must be >= 1")
        return self

    def as_dict(self):
        return asdict(self)

    def tap_names(self, disc_spec):
        """Resolve the gram feature taps against a discriminator spec."""
        if self.gram_taps == "auto":
            return list(disc_spec.taps)
        names = [t.strip() for t in self.gram_taps.split(",") if t.strip()]
        known = {l.name for l in disc_spec.layers}
        for n in names:
            if n not in known:
                raise ConfigError(f"gram tap {n!r} is not a layer of the discriminator")
        if not names:
            raise ConfigError("gram_taps resolved to an empty list")
        return names


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key, raw):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_file(path):
    """Read a ``key = value`` file with ``#`` comments into a dict."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_config(path=None, overrides=None):
    """Defaults, then the optional file, then explicit overrides."""
    merged = {}
    if path is not None:
        merged.update(parse_config_file(path))
    for key, val in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(val, str):
            val = _coerce(key, val)
        merged[key] = val
    return RunConfig(**merged).validate()


def config_from_dict(d):
    """Rebuild a config echoed into an artifact (e.g. a checkpoint)."""
    unknown = set(d) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    return RunConfig(**d).validate()
