"""Project configuration: typed defaults plus TOML/JSON file loading.

A config file only needs to state what differs from the defaults; sections
and keys are validated strictly so typos fail loudly instead of silently
running with defaults. Recognized sections:

  [limits]       min / max joint positions (deg, deg, mm)
  [error_model]  simulator transmission-error parameters
  [trajectory]   direction, sparsity/sparsities, step, follow speeds
  [training]     model family, output mode, ridge, split, MLP hyperparameters
                 (flat keys; those naming ``nn.MlpConfig`` fields set it)
  [eval]         stream rates, sync tolerance, time scale, latency budget, load

Files are read with the stdlib TOML parser. JSON configs (same structure,
one object with the five sections) are accepted via the ``.json`` extension.
Every number in a file must be finite, and every error raised for a file
names that file. The section dataclasses write each value check in a form
that NaN fails, so an object built in code meets the same rules.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .core import DEFAULT_LIMITS, JointLimits, _finite, _read_json
from .data import SYNC_TOLERANCE_S
from .models import MODEL_KINDS, MODES, ON_ERROR
from .nn import MlpConfig
from .sim import CableErrorModel, SimError, check_load, default_error_model
from .trajectory import DEFAULT_SPEEDS, DEFAULT_STEP, DIRECTIONS


class ConfigError(ValueError):
    """Configuration file is malformed or contains invalid values."""


@dataclass(frozen=True)
class TrajectoryConfig:
    direction: str = "j2j3"
    sparsity: float = 1 / 2
    sparsities: tuple = (1 / 2, 1 / 3, 1 / 4)
    step: float = DEFAULT_STEP
    speeds: tuple = DEFAULT_SPEEDS

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError(
                f"trajectory.direction must be one of {DIRECTIONS}, got {self.direction!r}")
        for s in (self.sparsity, *self.sparsities):
            if not (0.0 < s <= 0.5):
                raise ConfigError(f"sparsity values must lie in (0, 1/2], got {s}")
        if not self.step > 0:
            raise ConfigError(f"trajectory.step must be positive, got {self.step}")
        if len(self.speeds) != 3 or not all(v > 0 for v in self.speeds):
            raise ConfigError(f"trajectory.speeds must be 3 positive values, got {self.speeds}")


@dataclass(frozen=True)
class TrainingConfig:
    model: str = "mlp"
    mode: str = ON_ERROR
    ridge: float = 0.0
    train_frac: float = 0.8
    seed: int = 0
    mlp: MlpConfig = MlpConfig()

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"training.model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.mode not in MODES:
            raise ConfigError(f"training.mode must be one of {MODES}, got {self.mode!r}")
        if not self.ridge >= 0:
            raise ConfigError(f"training.ridge must be >= 0, got {self.ridge}")
        if not (0.0 < self.train_frac < 1.0):
            raise ConfigError(f"training.train_frac must be in (0, 1), got {self.train_frac}")


@dataclass(frozen=True)
class EvalConfig:
    rates: tuple = (30.0, 100.0)
    sync_tolerance_s: float = SYNC_TOLERANCE_S
    time_scale: float = 1.0
    budget_hz: float = 1000.0
    latency_samples: int = 10_000
    repeats: int = 3
    load: str = "loaded"

    def __post_init__(self):
        if len(self.rates) != 2 or not all(r > 0 for r in self.rates):
            raise ConfigError(f"eval.rates must be 2 positive rates, got {self.rates}")
        if not self.sync_tolerance_s >= 0:
            raise ConfigError("eval.sync_tolerance_s must be >= 0")
        if not self.time_scale >= 1.0:
            raise ConfigError(f"eval.time_scale must be >= 1, got {self.time_scale}")
        if not (self.budget_hz > 0 and self.latency_samples >= 1
                and self.repeats >= 1):
            raise ConfigError("eval latency settings must be positive")
        try:
            check_load(self.load)
        except SimError as exc:
            raise ConfigError(f"eval.{exc}") from exc


@dataclass(frozen=True)
class Config:
    limits: JointLimits = DEFAULT_LIMITS
    error_model: CableErrorModel = field(default_factory=default_error_model)
    trajectory: TrajectoryConfig = TrajectoryConfig()
    training: TrainingConfig = TrainingConfig()
    eval: EvalConfig = EvalConfig()

    def to_dict(self) -> dict:
        return {name: dump(getattr(self, name))
                for name, (dump, _) in _SECTIONS.items()}


def _jsonable(obj):
    """A frozen dataclass as JSON-ready data: its fields, tuples as lists."""
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_jsonable(v) for v in obj]
    return obj


def _training_dict(training: TrainingConfig) -> dict:
    """The flat ``[training]`` table: the ``mlp`` fields sit beside the rest."""
    d = _jsonable(training)
    d.update(d.pop("mlp"))
    return d


def _training(d: dict) -> TrainingConfig:
    mlp = MlpConfig(**{f.name: d.pop(f.name) for f in fields(MlpConfig)})
    return TrainingConfig(**d, mlp=mlp)


#: Each config section: its JSON-ready form and its builder from that form.
_SECTIONS = {
    "limits": (JointLimits.to_dict, JointLimits.from_dict),
    "error_model": (_jsonable, lambda d: CableErrorModel(**d)),
    "trajectory": (_jsonable, lambda d: TrajectoryConfig(**d)),
    "training": (_training_dict, _training),
    "eval": (_jsonable, lambda d: EvalConfig(**d)),
}


def _merge_section(name: str, defaults: dict, overrides: dict) -> dict:
    """``defaults`` updated by ``overrides``, with every list as a tuple."""
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}")
    merged = {**defaults, **overrides}
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in merged.items()}


def load_config(path=None) -> Config:
    """Build a Config from a TOML/JSON file path (or defaults when None)."""
    if path is None:
        return Config()
    path = Path(path)
    if not path.is_file():
        what = "is not a file" if path.exists() else "not found"
        raise ConfigError(f"config file {what}: {path}")
    try:
        raw = (_read_json(path, ConfigError) if path.suffix.lower() == ".json"
               else tomllib.loads(path.read_text()))
    except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(
            f"{path}: unknown config section(s): {', '.join(sorted(unknown))}")
    for section in _SECTIONS:
        if section in raw and not isinstance(raw[section], dict):
            raise ConfigError(f"{path}: [{section}] must be a table of keys")
        for key, value in raw.get(section, {}).items():
            if not _finite(value):
                raise ConfigError(f"{path}: [{section}] {key} must be finite")

    base = Config()
    try:
        return Config(**{
            name: build(_merge_section(name, dump(getattr(base, name)),
                                       raw.get(name, {})))
            for name, (dump, build) in _SECTIONS.items()})
    except (ValueError, TypeError) as exc:     # ConfigError too: name the file
        raise ConfigError(f"{path}: {exc}") from exc
