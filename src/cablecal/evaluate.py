"""Accuracy, drift-decay, sweep and latency evaluation for fitted models.

Conventions used throughout:

  * RMSE is per joint, in native units (deg, deg, mm).
  * Improvement percentages are always model RMSE / fixed-offset RMSE --
    the fixed-offset baseline is the denominator, never the raw error.
  * Hour buckets are left-closed [h, h+1) relative to the first sample
    of the evaluation window.
  * Latency is measured per sample (batch 1) on the pure-Python predict
    path with a monotonic clock; a model passes iff its p99 beats the
    servo budget period.

Reports are plain dataclasses with ``to_rows()`` producing long-format
dicts, ready for CSV emission or plotting elsewhere. The direction sweep
takes every setting from the run's ``Config``, which records and splits
its sessions, and fits through ``models.fit``.
"""

from __future__ import annotations

import csv
import gc
import operator
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .core import _replacing, _rule, write_json
from .data import Dataset, synchronize
from .models import CalibrationModel, fit, fit_linear, fit_mlp, fit_offset
from .nn import LARGE_CONFIG, MlpConfig
from .trajectory import DIRECTIONS

if TYPE_CHECKING:       # config imports this module's rules
    from .config import Config

JOINTS = ("j1", "j2", "j3")


class EvalError(ValueError):
    pass


#: The checks of the servo budget (Hz), the timed calls per run and the runs.
check_budget = _rule("budget_hz", "a finite number > 0", lambda v: v > 0, EvalError)
check_samples = _rule("latency_samples", "an integer >= 1",
                      lambda v: operator.index(v) >= 1, EvalError)
check_repeats = _rule("repeats", "an integer >= 1", lambda v: operator.index(v) >= 1,
                      EvalError)
#: The checks of the sweep's sparsities and directions: at least one of each.
check_sparsities = _rule("sparsities", "a list of at least one sparsity", len,
                         EvalError, number=False)
check_directions = _rule("directions", "a list of at least one direction", len,
                         EvalError, number=False)


def rmse(pred, truth) -> np.ndarray:
    """Per-column root-mean-square error between two equally shaped matrices."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise EvalError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return np.sqrt(np.mean((pred - truth) ** 2, axis=0))


# --------------------------------------------------------------------------
# accuracy reports


@dataclass(frozen=True)
class RmseReport:
    """Per-joint accuracy of one model over one sample window."""

    raw: np.ndarray           # (3,) uncorrected RMSE
    fixed_offset: np.ndarray  # (3,) fixed-offset baseline RMSE
    model: np.ndarray         # (3,) evaluated model RMSE
    n_samples: int
    bucket_hour: Optional[int] = None

    def __post_init__(self):
        for a in (self.raw, self.fixed_offset, self.model):
            if np.any(np.asarray(a) < 0):
                raise EvalError("RMSE cannot be negative")

    @property
    def percentage(self) -> np.ndarray:
        """Model RMSE as a fraction of the fixed-offset baseline."""
        base = np.asarray(self.fixed_offset, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(self.model) / base

    def to_rows(self) -> list:
        return [{"joint": joint, "bucket_hour": self.bucket_hour,
                 "n_samples": self.n_samples, "raw_rmse": float(self.raw[j]),
                 "fixed_offset_rmse": float(self.fixed_offset[j]),
                 "model_rmse": float(self.model[j]),
                 "percentage": float(self.percentage[j])}
                for j, joint in enumerate(JOINTS)]


def evaluate_model(model: CalibrationModel, ds: Dataset,
                   offset_model: CalibrationModel,
                   bucket_hour: Optional[int] = None) -> RmseReport:
    """RMSE report for one model on one dataset, with baselines."""
    return RmseReport(
        raw=rmse(ds.reported, ds.targets),
        fixed_offset=rmse(offset_model.predict_batch(ds.inputs), ds.targets),
        model=rmse(model.predict_batch(ds.inputs), ds.targets),
        n_samples=len(ds),
        bucket_hour=bucket_hour,
    )


def decay_curve(model: CalibrationModel, ds: Dataset,
                offset_model: CalibrationModel) -> list:
    """Hour-by-hour RMSE reports over a long session.

    Buckets are left-closed [h, h+1) hours relative to the first sample
    time; empty buckets are absent from the returned list.
    """
    hours = np.floor((ds.t - ds.t[0]) / 3600.0).astype(int)
    return [evaluate_model(model, ds.take(hours == h), offset_model, bucket_hour=int(h))
            for h in np.unique(hours)]


# --------------------------------------------------------------------------
# latency


@dataclass(frozen=True)
class LatencyReport:
    """Single-sample inference timing for one model vs a servo budget."""

    kind: str
    mode: str
    n_samples: int
    repeats: int
    budget_hz: float
    p50_s: float          # median across runs of each run's percentile
    p95_s: float
    p99_s: float
    runs: tuple           # per-run dicts with p50_s/p95_s/p99_s/passed
    throughput_hz: float
    passed: bool
    p99_spread: float     # max/min - 1 of p99 across runs

    def to_dict(self) -> dict:
        return {**self.__dict__, "runs": [dict(r) for r in self.runs]}

    def to_rows(self) -> list:
        return [{
            "model": self.kind, "mode": self.mode,
            "p50_ms": self.p50_s * 1e3, "p95_ms": self.p95_s * 1e3,
            "p99_ms": self.p99_s * 1e3,
            "throughput_hz": self.throughput_hz,
            "budget_hz": self.budget_hz, "passed": self.passed,
            "n_samples": self.n_samples, "repeats": self.repeats,
            "p99_spread": self.p99_spread,
        }]


def bench_latency(model: CalibrationModel, X, n_samples: int = 10_000,
                  budget_hz: float = 1000.0, repeats: int = 3) -> LatencyReport:
    """Time the batch-1 predict path over ``n_samples`` calls per run, each
    run after 200 untimed warm-up calls.

    The rows the calls read (row i % len(X) for call i, so at most the
    first max(200, n_samples)) are pre-converted to Python lists so the
    measurement covers the model arithmetic, not input marshalling. The
    garbage collector is paused during timed sections.
    """
    check_samples(n_samples)
    check_budget(budget_hz)
    check_repeats(repeats)
    rows = np.asarray(X, dtype=float)[:max(200, n_samples)].tolist()
    if not rows:
        raise EvalError("need at least one feature row to benchmark")
    n_rows = len(rows)
    predict = model.predict
    clock = time.perf_counter_ns

    runs = []
    for _ in range(repeats):
        for i in range(200):
            predict(rows[i % n_rows])
        samples = np.empty(n_samples)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for i in range(n_samples):
                row = rows[i % n_rows]
                t0 = clock()
                predict(row)
                samples[i] = clock() - t0
        finally:
            if gc_was_enabled:
                gc.enable()
        p50, p95, p99 = np.percentile(samples, (50, 95, 99)) / 1e9
        runs.append({"p50_s": float(p50), "p95_s": float(p95),
                     "p99_s": float(p99),
                     "passed": bool(p99 < 1.0 / budget_hz)})

    p50, p95, p99 = (float(np.median([r[k] for r in runs]))
                     for k in ("p50_s", "p95_s", "p99_s"))
    p99s = [r["p99_s"] for r in runs]
    return LatencyReport(
        kind=model.kind, mode=model.mode, n_samples=n_samples,
        repeats=repeats, budget_hz=budget_hz,
        p50_s=p50, p95_s=p95, p99_s=p99, runs=tuple(runs),
        throughput_hz=1.0 / p50 if p50 > 0 else float("inf"),
        passed=bool(p99 < 1.0 / budget_hz),
        p99_spread=float(max(p99s) / min(p99s) - 1.0) if min(p99s) > 0 else 0.0,
    )


# --------------------------------------------------------------------------
# direction sweep


@dataclass(frozen=True)
class Score:
    """One fit's per-joint test RMSE, and that RMSE as a fraction of the
    fixed offset's, under the ``labels`` that name the fit in a table."""

    labels: dict
    rmse: np.ndarray        # (3,)
    percentage: np.ndarray  # (3,) vs fixed offset
    n_train: int
    n_test: int


@dataclass(frozen=True)
class ScoreTable:
    scores: tuple

    def to_rows(self) -> list:
        """One row per score and joint: the labels, then the joint's rmse,
        percentage and the row counts."""
        return [{**s.labels, "joint": joint, "rmse": float(s.rmse[j]),
                 "percentage": float(s.percentage[j]),
                 "n_train": s.n_train, "n_test": s.n_test}
                for s in self.scores for j, joint in enumerate(JOINTS)]


def _scores(train: Dataset, test: Dataset, offset_labels: dict, fits) -> list:
    """Score the fixed offset fit on ``train`` and each ``(labels, model,
    test set)`` of ``fits``; every percentage divides by the offset's RMSE
    on ``test``, and every score counts the rows of ``train`` and ``test``."""
    base = rmse(fit_offset(train).predict_batch(test.inputs), test.targets)
    scores = [Score(offset_labels, base, base / base, len(train), len(test))]
    for labels, model, on in fits:
        r = rmse(model.predict_batch(on.inputs), on.targets)
        scores.append(Score(labels, r, r / base, len(train), len(test)))
    return scores


def direction_sweep(cfg: Config, directions: Sequence = DIRECTIONS,
                    kinds: Sequence = ("linear",), seed: int = 0) -> ScoreTable:
    """Fit and score each model kind per trajectory direction on one session
    per configured sparsity, recorded and split together through ``cfg``.
    The fixed-offset baseline is always scored and is the percentage
    denominator; each score is labelled by ``direction`` and ``model``."""
    check_directions(directions)
    tr = cfg.training
    scores = []
    for i, direction in enumerate(directions):
        train, test = cfg.split(
            cfg.record(cfg.generate(direction, sp), seed * 10007 + i * 101 + j)
            for j, sp in enumerate(cfg.trajectory.sparsities))
        scores += _scores(train, test, {"direction": direction, "model": "offset"},
                          (({"direction": direction, "model": kind},
                            fit(kind, train, tr.mode, tr.ridge, tr.mlp, seed), test)
                           for kind in kinds))
    return ScoreTable(tuple(scores))


# --------------------------------------------------------------------------
# feature robustness


def _subsample(ds: Dataset, n: int) -> Dataset:
    # A "short training set" is the leading slice of the recording, not a
    # thinned version of the whole session: thinning would still cover the
    # full workspace and time span, hiding the failure mode this study is
    # supposed to expose.
    return ds if n >= len(ds) else ds.take(np.arange(n))


def feature_robustness(train_bag, test_bag, *, n_train: Optional[int] = None,
                       seed: int = 0, mlp_config: Optional[MlpConfig] = None,
                       large_config: Optional[MlpConfig] = None) -> ScoreTable:
    """Compare fits on the selected 16 inputs vs the full 138-feature vector.

    The same training rows feed every fit, with only the input selection
    changing; all models score on the held-out bag.  When ``n_train`` is
    given, training is restricted to the first ``n_train`` rows of the
    recording (a short contiguous session).  Reported fits: fixed offset,
    linear on both masks, the standard MLP on the selected mask and the
    large regularized MLP on the full mask, each labelled by ``fit`` and
    ``mask``.
    """
    mlp_config = mlp_config if mlp_config is not None else MlpConfig()
    large_config = large_config if large_config is not None else LARGE_CONFIG

    sel_train = synchronize(train_bag)
    full_train = synchronize(train_bag, full_features=True)
    sel_test = synchronize(test_bag)
    full_test = synchronize(test_bag, full_features=True)
    if n_train is not None:
        sel_train = _subsample(sel_train, n_train)
        full_train = _subsample(full_train, n_train)

    sel, full = {"mask": "selected16"}, {"mask": "full138"}
    fits = (({"fit": "linear-selected", **sel}, fit_linear(sel_train), sel_test),
            ({"fit": "linear-full", **full}, fit_linear(full_train), full_test),
            ({"fit": "mlp-selected", **sel},
             fit_mlp(sel_train, config=mlp_config, seed=seed), sel_test),
            ({"fit": "mlp-large-full", **full},
             fit_mlp(full_train, config=large_config, seed=seed), full_test))
    return ScoreTable(tuple(_scores(sel_train, sel_test, {"fit": "offset", **sel}, fits)))


# --------------------------------------------------------------------------
# report emission


def write_report(rows: list, doc, csv_path) -> None:
    """``rows`` (same-keyed dicts) as a long-format CSV and ``doc`` as its
    JSON sidecar, both replaced together."""
    if not rows:
        raise EvalError("no rows to write")
    csv_path = Path(csv_path)
    with _replacing(csv_path, csv_path.with_suffix(".json")) as (fh, side):
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        write_json(doc, side)
