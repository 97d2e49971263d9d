"""Project configuration: typed defaults plus TOML/JSON file loading.

A config file only needs to state what differs from the defaults; sections
and keys are validated strictly so typos fail loudly instead of silently
running with defaults. Recognized sections:

  [limits]       min / max joint positions (deg, deg, mm)
  [error_model]  simulator transmission-error parameters
  [trajectory]   direction, sparsity/sparsities, step, follow speeds
  [training]     model family, output mode, ridge, split, MLP hyperparameters
  [eval]         stream rates, sync tolerance, time scale, latency budget

Files are read with the stdlib TOML parser. JSON configs (same structure,
one object with the five sections) are accepted via the ``.json`` extension.
Every error raised for a file names that file.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field, fields
from pathlib import Path

from .core import DEFAULT_LIMITS, JointLimits
from .models import MODES, ON_ERROR
from .nn import MlpConfig
from .sim import CableErrorModel, default_error_model
from .trajectory import DEFAULT_SPEEDS, DEFAULT_STEP, DIRECTIONS

MODEL_KINDS = ("offset", "linear", "poly2", "mlp")


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
        if self.step <= 0:
            raise ConfigError(f"trajectory.step must be positive, got {self.step}")
        if len(self.speeds) != 3 or any(v <= 0 for v in self.speeds):
            raise ConfigError(f"trajectory.speeds must be 3 positive values, got {self.speeds}")

    def to_dict(self) -> dict:
        return {"direction": self.direction, "sparsity": self.sparsity,
                "sparsities": list(self.sparsities), "step": self.step,
                "speeds": list(self.speeds)}


@dataclass(frozen=True)
class TrainingConfig:
    model: str = "mlp"
    mode: str = ON_ERROR
    ridge: float = 0.0
    train_frac: float = 0.8
    seed: int = 0
    hidden: tuple = (100, 100)
    epochs: int = 200
    lr: float = 1e-3
    batch_size: int = 1024
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    kernel_l2: float = 5e-4
    kernel_l1: float = 0.0
    bias_l2: float = 0.0
    activity_l2: float = 0.0

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"training.model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.mode not in MODES:
            raise ConfigError(f"training.mode must be one of {MODES}, got {self.mode!r}")
        if self.ridge < 0:
            raise ConfigError(f"training.ridge must be >= 0, got {self.ridge}")
        if not (0.0 < self.train_frac < 1.0):
            raise ConfigError(f"training.train_frac must be in (0, 1), got {self.train_frac}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("training.epochs and training.batch_size must be >= 1")

    def mlp_config(self) -> MlpConfig:
        return MlpConfig(
            hidden=tuple(self.hidden), epochs=self.epochs, lr=self.lr,
            batch_size=self.batch_size, beta1=self.beta1, beta2=self.beta2,
            eps=self.eps, kernel_l2=self.kernel_l2, kernel_l1=self.kernel_l1,
            bias_l2=self.bias_l2, activity_l2=self.activity_l2)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["hidden"] = list(self.hidden)
        return d


@dataclass(frozen=True)
class EvalConfig:
    rates: tuple = (30.0, 100.0)
    sync_tolerance_s: float = 0.010
    time_scale: float = 1.0
    budget_hz: float = 1000.0
    latency_samples: int = 10_000
    repeats: int = 3
    hours: float = 6.0
    load: str = "loaded"

    def __post_init__(self):
        if len(self.rates) != 2 or any(r <= 0 for r in self.rates):
            raise ConfigError(f"eval.rates must be 2 positive rates, got {self.rates}")
        if self.sync_tolerance_s < 0:
            raise ConfigError("eval.sync_tolerance_s must be >= 0")
        if self.time_scale < 1.0:
            raise ConfigError(f"eval.time_scale must be >= 1, got {self.time_scale}")
        if self.budget_hz <= 0 or self.latency_samples < 1 or self.repeats < 1:
            raise ConfigError("eval latency settings must be positive")
        if self.hours <= 0:
            raise ConfigError(f"eval.hours must be positive, got {self.hours}")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["rates"] = list(self.rates)
        return d


@dataclass(frozen=True)
class Config:
    limits: JointLimits = DEFAULT_LIMITS
    error_model: CableErrorModel = field(default_factory=default_error_model)
    trajectory: TrajectoryConfig = TrajectoryConfig()
    training: TrainingConfig = TrainingConfig()
    eval: EvalConfig = EvalConfig()

    def to_dict(self) -> dict:
        return {
            "limits": self.limits.to_dict(),
            "error_model": self.error_model.to_dict(),
            "trajectory": self.trajectory.to_dict(),
            "training": self.training.to_dict(),
            "eval": self.eval.to_dict(),
        }


def default_config() -> Config:
    return Config()


def _merge_section(name: str, defaults: dict, overrides: dict) -> dict:
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}")
    merged = dict(defaults)
    merged.update(overrides)
    return merged


def _listify(d: dict, keys: tuple) -> dict:
    return {k: (tuple(v) if k in keys else v) for k, v in d.items()}


def load_config(path=None) -> Config:
    """Build a Config from a TOML/JSON file path (or defaults when None)."""
    if path is None:
        return default_config()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parse = json.loads if path.suffix.lower() == ".json" else tomllib.loads
    try:
        raw = parse(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError,
            tomllib.TOMLDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a table/object")

    known = ("limits", "error_model", "trajectory", "training", "eval")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(
            f"{path}: unknown config section(s): {', '.join(sorted(unknown))}")
    for section in known:
        if section in raw and not isinstance(raw[section], dict):
            raise ConfigError(f"{path}: [{section}] must be a table of keys")

    base = default_config()
    try:
        limits = JointLimits.from_dict(
            _merge_section("limits", base.limits.to_dict(), raw.get("limits", {})))
        error_model = CableErrorModel.from_dict(
            _merge_section("error_model", base.error_model.to_dict(),
                           raw.get("error_model", {})))
        trajectory = TrajectoryConfig(**_listify(
            _merge_section("trajectory", base.trajectory.to_dict(),
                           raw.get("trajectory", {})),
            ("sparsities", "speeds")))
        training = TrainingConfig(**_listify(
            _merge_section("training", base.training.to_dict(),
                           raw.get("training", {})),
            ("hidden",)))
        eval_cfg = EvalConfig(**_listify(
            _merge_section("eval", base.eval.to_dict(), raw.get("eval", {})),
            ("rates",)))
    except (ValueError, TypeError) as exc:     # ConfigError too: name the file
        raise ConfigError(f"{path}: {exc}") from exc
    return Config(limits, error_model, trajectory, training, eval_cfg)
