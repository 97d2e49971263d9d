"""Hardware-free calibration toolkit for cable-driven positioning joints.

The package covers the full loop: coverage-trajectory generation, a
simulator with a configurable cable transmission-error model, dual-rate
stream recording and synchronization, calibration model fitting (fixed
offset, linear, quadratic, MLP) in reported-error or absolute modes, and
evaluation of accuracy, drift decay, and servo-budget latency.
"""

__version__ = "0.1.0"    # set before the submodules, as manifest reads it

from .config import Config, ConfigError, load_config
from .core import DEFAULT_LIMITS, FULL_SCHEMA, FeatureSchema, JointLimits
from .data import (Dataset, NormStats, RecordedBag, concat, load_bag,
                   load_dataset, record, save_bag, save_dataset,
                   split_and_normalize, synchronize)
from .evaluate import (LatencyReport, RmseReport, Score, ScoreTable,
                       bench_latency, decay_curve, direction_sweep,
                       evaluate_model, feature_robustness, rmse)
from .manifest import RunManifest, load_manifest
from .models import (END_TO_END, ON_ERROR, CalibrationModel, FixedOffsetModel,
                     LinearModel, MlpModel, PolyModel, deserialize, fit_linear,
                     fit_mlp, fit_offset, fit_poly2, serialize)
from .nn import LARGE_CONFIG, Mlp, MlpConfig, train_mlp
from .sim import CableErrorModel, SimSession, default_error_model
from .trajectory import (DIRECTIONS, Trajectory, generate, load, save,
                         trajectory_duration)

__all__ = [
    "CableErrorModel", "CalibrationModel", "Config", "ConfigError",
    "DEFAULT_LIMITS", "DIRECTIONS", "Dataset", "END_TO_END", "FULL_SCHEMA",
    "FeatureSchema", "FixedOffsetModel", "JointLimits", "LARGE_CONFIG",
    "LatencyReport", "LinearModel", "Mlp", "MlpConfig", "MlpModel",
    "NormStats", "ON_ERROR", "PolyModel", "RecordedBag", "RmseReport",
    "RunManifest", "Score", "ScoreTable", "SimSession", "Trajectory",
    "bench_latency", "concat", "decay_curve", "default_error_model",
    "deserialize", "direction_sweep", "evaluate_model", "feature_robustness",
    "fit_linear", "fit_mlp", "fit_offset", "fit_poly2", "generate", "load",
    "load_bag", "load_config", "load_dataset", "load_manifest", "record",
    "rmse", "save", "save_bag", "save_dataset",
    "serialize", "split_and_normalize", "synchronize", "train_mlp",
    "trajectory_duration", "__version__",
]
