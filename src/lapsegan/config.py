"""Flat run configuration with defaults < config file < explicit overrides.

Every key has a default and unknown keys are rejected. The effective config
is echoed into every checkpoint and report so a run can be replayed from
its artifacts alone.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .models import RESOLUTIONS
from .ops import BN_EPS, BN_MOMENTUM

_CHOICES = {"resolution": RESOLUTIONS, "generation_bn_mode": ("running", "batch")}

# (keys, test, what each must be); NaN fails every test
_BOUNDS = (
    (("width_multiplier",), lambda v: 0.0 < v <= 1.0, "lie in (0,1]"),
    (("lr",), lambda v: math.isfinite(v) and v > 0.0, "be finite and > 0"),
    (("lambda_rank",), lambda v: math.isfinite(v) and v >= 0.0, "be finite and >= 0"),
    (("seed",), lambda v: v >= 0, "be >= 0"),
    (("batch_size", "iterations", "checkpoint_every", "log_every"),
     lambda v: v >= 1, "be >= 1"),
)

ADAM_BETA1 = 0.5  # Adam's fixed constants: the GAN momentum of Radford et al.
ADAM_BETA2 = 0.9  # (arXiv:1511.06434), then the second-moment decay and epsilon
ADAM_EPS = 1e-8   # of Kingma & Ba (arXiv:1412.6980)
# Keys that files written before 0.2.0 (gram_*, g2_init), 0.4.0 (bn_*),
# 0.5.0 (Adam's) or 0.6.0 (the loss forms) echo, with the one value still run.
_RETIRED = {"gram_taps": "auto", "gram_batch_mean": False, "g2_init": "g1",
            "bn_eps": BN_EPS, "bn_momentum": BN_MOMENTUM,
            "beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "adam_eps": ADAM_EPS,
            "adv_form": "saturating", "loss_reduction": "mean"}


@dataclass
class RunConfig:
    resolution: int = 128
    width_multiplier: float = 1.0
    batch_size: int = 2
    lr: float = 2e-4            # fixed throughout training
    lambda_rank: float = 1.0
    generation_bn_mode: str = "running"  # running | batch statistics at generation
    seed: int = 0
    iterations: int = 1000
    checkpoint_every: int = 500
    log_every: int = 1

    def validate(self):
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key} must be {' or '.join(map(str, allowed))}, "
                                  f"got {getattr(self, key)}")
        for keys, ok, must in _BOUNDS:
            for key in keys:
                if not ok(getattr(self, key)):
                    raise ConfigError(f"{key} must {must}, got {getattr(self, key)}")
        return self

    def as_dict(self):
        return asdict(self)

    @property
    def bn_eps(self):
        """Batch norm's fixed epsilon, ``ops.BN_EPS``. Not a run key; it stays
        because lapsebench's full-generate check and reference tests read it."""
        return BN_EPS


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# The JSON values an echo may hold per field type; a bool is never one.
_ECHO_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _coerce(key, raw):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
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
    """Rebuild a config echoed into an artifact (e.g. a checkpoint), which
    names every key, each holding a value of its field's type. A key retired
    in 0.2.0, 0.4.0, 0.5.0 or 0.6.0 is dropped if it holds the value now fixed."""
    for key, fixed in _RETIRED.items():
        if d.get(key, fixed) != fixed:
            raise ConfigError(f"{key} is retired and only {fixed!r} still runs, "
                              f"got {d[key]!r}")
    d = {k: v for k, v in d.items() if k not in _RETIRED}
    unknown, missing = set(d) - set(_FIELD_TYPES), set(_FIELD_TYPES) - set(d)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if missing:
        raise ConfigError(f"config echo lacks keys {sorted(missing)}")
    for key, value in d.items():
        kind = _FIELD_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, _ECHO_TYPES[kind]):
            raise ConfigError(f"{key} must be a {kind}, got {value!r}")
    return RunConfig(**d).validate()
