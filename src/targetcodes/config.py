"""Every run setting: ``Hyperparams`` and ``TrainConfig`` with their defaults
and data-free range checks, and the ``key = value`` codec of ``resolved.cfg``.
It imports nothing above ``codes``, so any module can use it without a cycle."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Optional

from .codes import SIGN, STE_CLIPPED, STE_PASSTHROUGH, TANH_SCALED
from .errors import ConfigError, DomainError

BASELINE = "baseline"
HTC = "htc"
LTC = "ltc"

MODES = (BASELINE, HTC, LTC)

# the train command's own defaults; every other key defaults to its field
CLI_DEFAULTS = {"mode": BASELINE, "out_dir": "run"}


@dataclass
class Hyperparams:
    """Weights, margins, and optimizer settings for one training run.

    ``margin`` defaults to the code length; halve it for long-tailed
    (imbalanced) training runs. Learning rates are grouped: the feature
    extractor, the newly added heads (classifier and semantic encoder),
    and the learnable codes each have their own rate. ``decay_epochs``
    are 0-based epoch indices at which every rate is multiplied by
    ``decay_factor``. Rates, weight decay, loss weights and the margin must
    be finite and non-negative, ``tanh_scale`` and ``decay_factor`` finite
    and positive, ``momentum`` in [0, 1), ``seed`` in [0, 2**64) and each
    decay epoch in [0, 2**32).
    """

    num_classes: int
    code_length: int = 512
    mse_weight: float = 1.0
    triplet_weight: float = 0.01
    corr_weight: float = 0.1
    margin: Optional[float] = None
    tanh_scale: float = 1.0
    lr_feature: float = 0.001
    lr_new: float = 0.01
    lr_codes: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 100
    batch_size: int = 16
    decay_epochs: tuple[int, ...] = (40, 70)
    decay_factor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "code_length"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if self.margin is None:
            self.margin = float(self.code_length)
        for name in (
            "mse_weight", "triplet_weight", "corr_weight",
            "lr_feature", "lr_new", "lr_codes", "weight_decay", "margin",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"{name} must be finite and non-negative, got {value}")
        for name in ("tanh_scale", "decay_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and positive, got {value}")
        if not 0 <= self.momentum < 1:
            raise DomainError(f"momentum must lie in [0, 1), got {self.momentum}")
        self.decay_epochs = tuple(int(e) for e in self.decay_epochs)
        # LTCK checkpoints store the seed as u64 and each decay epoch as u32
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not all(0 <= e < 2**32 for e in self.decay_epochs):
            raise DomainError(f"decay_epochs must lie in [0, 2**32), got {self.decay_epochs}")


@dataclass
class TrainConfig:
    """One training run: branch, hyperparameters, model dims, and outputs.

    ``out_dir`` of None keeps the run entirely in memory (no resolved.cfg,
    metrics file or checkpoints). Loss-component metrics are recorded as weighted
    contributions to the total, so a regularizer with weight zero reports
    exactly 0.0.
    """

    mode: str
    hp: Hyperparams
    feature_widths: tuple[int, ...] = (256, 128)
    encoder_hidden: int = 256
    activation: str = SIGN
    ste_rule: str = STE_CLIPPED
    decay_codes: bool = True
    eval_every: int = 1
    checkpoint_every: int = 0
    out_dir: Optional[str] = None
    train_data: Optional[str] = None
    test_data: Optional[str] = None

    def __post_init__(self):
        self.feature_widths = tuple(int(w) for w in self.feature_widths)

    def check(self) -> None:
        """Refuse, with ConfigError, a setting out of range whatever the data,
        and a path that would not read back from ``resolved.cfg``."""
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.activation not in (SIGN, TANH_SCALED):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.ste_rule not in (STE_CLIPPED, STE_PASSTHROUGH):
            raise ConfigError(f"unknown STE rule {self.ste_rule!r}")
        for name, value in (
            ("epochs", self.hp.epochs), ("eval_every", self.eval_every),
            ("encoder_hidden", self.encoder_hidden),
        ):
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.hp.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.hp.batch_size}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be at least 0, got {self.checkpoint_every}")
        if not self.feature_widths:
            raise ConfigError("feature_widths must name at least one layer")
        if min(self.feature_widths) < 1:
            raise ConfigError(f"feature_widths must be positive, got {self.feature_widths}")
        for key in ("out_dir", "train_data", "test_data"):
            path = getattr(self, key) or ""
            if _strip_comment(path) != path or any(c in path for c in "\r\n"):
                raise ConfigError(f"{key} {path!r} would not read back from resolved.cfg")


# annotation -> (parser, formatter); the annotations are the strings written
# in the dataclass bodies, since this module uses postponed evaluation
_CODECS = {
    "int": (int, str),
    "float": (float, repr),
    "Optional[float]": (float, repr),
    "str": (str, str),
    "Optional[str]": (str, str),
    "bool": (
        lambda s: {"true": True, "false": False}[s.lower()],
        lambda b: "true" if b else "false",
    ),
    "tuple[int, ...]": (
        lambda s: tuple(int(v) for v in s.split(",") if v.strip()),
        lambda t: ",".join(str(v) for v in t),
    ),
}

_HP_KEYS = {f.name for f in fields(Hyperparams)}
# key -> (parser, formatter) for every config key: the TrainConfig fields,
# with the Hyperparams fields in place of ``hp``, in declaration order
CONFIG_KEYS = {
    f.name: _CODECS[f.type]
    for outer in fields(TrainConfig)
    for f in (fields(Hyperparams) if outer.name == "hp" else (outer,))
}

# Settings a resume may change: how long to train, and where the files are.
RESUMABLE_KEYS = {"epochs", "checkpoint_every", "out_dir", "train_data", "test_data"}


def parse_setting(key: str, value: str):
    """Parse the text ``value`` of config key ``key``; unknown keys and bad
    values raise ConfigError."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return CONFIG_KEYS[key][0](value)
    except (ValueError, KeyError):
        raise ConfigError(f"bad value {value!r} for {key}") from None


def _strip_comment(line: str) -> str:
    """``line`` cut at a ``#`` that starts it or follows whitespace, stripped."""
    return re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()


def parse_config_file(path) -> dict:
    """Read flat `key = value` lines; blank lines are skipped, and a # at the
    start of a line or after whitespace starts a comment, so a path may hold
    one elsewhere. Unknown keys and text that is not UTF-8 are rejected."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    for line_no, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        try:
            values[key.strip()] = parse_setting(key.strip(), value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from None
    return values


def build_config(values: dict) -> TrainConfig:
    """The TrainConfig for parsed settings; absent keys take the dataclass
    defaults."""
    hp = Hyperparams(**{k: v for k, v in values.items() if k in _HP_KEYS})
    return TrainConfig(hp=hp, **{k: v for k, v in values.items() if k not in _HP_KEYS})


def settings(config: TrainConfig) -> dict:
    """``key -> value`` for every set key of ``config``, in file order."""
    values = ((k, getattr(config.hp if k in _HP_KEYS else config, k)) for k in CONFIG_KEYS)
    return {k: v for k, v in values if v is not None}


def format_config(config: TrainConfig) -> str:
    """Render ``config`` as a config file that parses back to an equal
    config; unset optional keys are left out."""
    return "".join(f"{k} = {CONFIG_KEYS[k][1](v)}\n" for k, v in settings(config).items())
