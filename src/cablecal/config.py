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
<reason>`` (``'<section>'`` for a section's value check).

This module writes no rule of its own: a section applies the checks of
the modules that use its values whenever it is built, from a file, an
option or code (``_Section``), so every value meets one rule. An option
sets one key, spelled as a file spells it, with ``Config.with_key``.
Settings become calls in one place: ``Config.generate``, ``record`` and
``split``.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from . import data as data_mod
from . import trajectory as traj_mod
from .core import DEFAULT_LIMITS, JointLimits, _checked, _json_type, _read_json
from .data import SYNC_TOLERANCE_S, check_tolerance, check_train_frac
from .evaluate import check_budget, check_repeats, check_samples, check_sparsities
from .models import ON_ERROR, check_kind, check_mode, check_ridge
from .nn import MlpConfig
from .sim import (CableErrorModel, check_load, check_rates, check_seed,
                  check_time_scale, default_error_model)
from .trajectory import (DEFAULT_SPEEDS, DEFAULT_STEP, check_direction,
                         check_sparsity, check_speeds, check_step)


class ConfigError(ValueError):
    """Configuration file is malformed or contains invalid values."""


class _Section:
    """A config section ``<name>Config``: ``CHECKS`` maps keys to the checks
    of the modules that use their values, and building the section runs
    each one and keeps the value it returns, a float field's as a Python
    float, so two spellings of one value (``20`` and ``20.0``, ``"250"``
    and ``250``) record one config; a refused value raises ConfigError
    naming ``<name>.<key>``."""

    def __post_init__(self):
        for f in fields(self):
            if f.name not in self.CHECKS:
                continue
            try:
                value = self.CHECKS[f.name](getattr(self, f.name))
            except (ValueError, TypeError) as exc:
                section = type(self).__name__.removesuffix("Config").lower()
                raise ConfigError(f"{section}.{f.name}: {exc}") from exc
            if isinstance(f.default, float):
                value = float(value)
            elif isinstance(f.default, tuple) and isinstance(f.default[0], float):
                value = tuple(map(float, value))
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class TrajectoryConfig(_Section):
    direction: str = "j2j3"
    sparsity: float = 1 / 2
    sparsities: tuple = (1 / 2, 1 / 3, 1 / 4)
    step: float = DEFAULT_STEP
    speeds: tuple = DEFAULT_SPEEDS

    CHECKS = {"direction": check_direction, "sparsity": check_sparsity,
              "sparsities": lambda v: tuple(map(check_sparsity, check_sparsities(v))),
              "step": check_step, "speeds": check_speeds}


@dataclass(frozen=True)
class TrainingConfig(_Section):
    model: str = "mlp"
    mode: str = ON_ERROR
    ridge: float = 0.0
    train_frac: float = 0.8
    seed: int = 0
    mlp: MlpConfig = MlpConfig()

    CHECKS = {"model": check_kind, "mode": check_mode, "ridge": check_ridge,
              "train_frac": check_train_frac, "seed": check_seed}


@dataclass(frozen=True)
class EvalConfig(_Section):
    rates: tuple = (30.0, 100.0)
    sync_tolerance_s: float = SYNC_TOLERANCE_S
    time_scale: float = 1.0
    budget_hz: float = 1000.0
    latency_samples: int = 10_000
    repeats: int = 3
    load: str = "loaded"

    CHECKS = {"rates": check_rates, "sync_tolerance_s": check_tolerance,
              "time_scale": check_time_scale, "budget_hz": check_budget,
              "latency_samples": check_samples, "repeats": check_repeats,
              "load": check_load}


@dataclass(frozen=True)
class Config:
    limits: JointLimits = DEFAULT_LIMITS
    error_model: CableErrorModel = field(default_factory=default_error_model)
    trajectory: TrajectoryConfig = TrajectoryConfig()
    training: TrainingConfig = TrainingConfig()
    eval: EvalConfig = EvalConfig()

    def to_dict(self) -> dict:
        return {name: _table(getattr(self, name)) for name in _SECTIONS}

    def with_key(self, key: str, value) -> Config:
        """This config with ``key``, ``"<section>.<key>"`` as a file spells it, set
        to ``value`` by its section's build and checks; a refusal names the key."""
        section, name = key.split(".")
        build = _section_check(section, self)[1]
        try:
            return replace(self, **{section: build({name: value})})
        except ValueError as exc:       # ``nn.MlpConfig`` names the field alone
            raise ConfigError(f"{key}: {str(exc).removeprefix(f'{key}: ')}") from exc

    def generate(self, direction: str, sparsity: float):
        return traj_mod.generate(direction, sparsity, self.limits,
                                 self.trajectory.step)

    def record(self, traj, seed: int):
        ev = self.eval
        return data_mod.record(traj, self.error_model, seed=seed, load=ev.load,
                               rates=ev.rates, time_scale=ev.time_scale,
                               limits=self.limits, speeds=self.trajectory.speeds)

    def split(self, bags, full_features: bool = False) -> tuple:
        """Pair each bag's streams, concatenate them and split (train, test)."""
        parts = [data_mod.synchronize(b, self.eval.sync_tolerance_s, full_features)
                 for b in bags]
        ds = parts[0] if len(parts) == 1 else data_mod.concat(parts)
        return data_mod.split_and_normalize(ds, self.training.train_frac)


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
