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
Every number in a file must be finite, and every key must have the JSON
type of its default (or be a number where that is a list, or for
``eval.load``). An error for a file reads ``<file>: entry '<section>.<key>':
<reason>`` (``'<section>'`` for a section's value check). The section
dataclasses write each value check in a form that NaN fails, so an object
built in code meets the same rules.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .core import DEFAULT_LIMITS, JointLimits, _checked, _json_type, _read_json
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
        return {name: _table(getattr(self, name)) for name in _SECTIONS}


#: Each config section's dataclass. A dataclass field of a section (the
#: ``training`` section's ``mlp``) has its keys in the section's own table.
_SECTIONS = {"limits": JointLimits, "error_model": CableErrorModel,
             "trajectory": TrajectoryConfig, "training": TrainingConfig,
             "eval": EvalConfig}


def _table(section) -> dict:
    """A section as its flat JSON-ready table, tuples as lists."""
    out = {}
    for f in fields(section):
        v = getattr(section, f.name)
        out.update(_table(v) if is_dataclass(v) else {f.name: _jsonable(v)})
    return out


def _jsonable(value):
    return [_jsonable(v) for v in value] if isinstance(value, tuple) else value


def _built(cls, table: dict):
    """The dataclass ``cls`` from a flat section table that names each of
    its fields (and those of a dataclass field), with lists as tuples."""
    args = {}
    for f in fields(cls):
        v = _built(type(f.default), table) if is_dataclass(f.default) else table[f.name]
        args[f.name] = tuple(v) if isinstance(v, list) else v
    return cls(**args)


def _section_check(name: str, base: Config) -> tuple:
    """The check of config section ``name`` in a ``_checked`` table: each
    key of the JSON type of its value in ``base`` (or a number, where that
    is a list or ``eval.load``), built over ``base``'s values."""
    defaults = _table(getattr(base, name))
    keys = {k: ((_json_type(v), "number") if isinstance(v, list) or k == "load"
                else _json_type(v), None, False) for k, v in defaults.items()}
    return keys, lambda d: _built(_SECTIONS[name], {**defaults, **d})


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
    base = Config()
    return replace(base, **_checked(raw, {
        name: ("object", _section_check(name, base), False) for name in _SECTIONS
    }, path, ConfigError))
