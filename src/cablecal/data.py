"""Recording, synchronization and dataset plumbing.

A recorded bag holds the simulator's two raw streams (30 Hz state with the
full feature vector, 100 Hz ground truth) plus schema and session metadata,
persisted as a directory of two CSV files and a JSON header. Synchronization
pairs each state sample with its nearest-in-time truth sample inside a
tolerance, yielding a flat dataset of (features, truth, reported) rows ready
for model fitting. Bags and datasets are saved in the file format that
``core`` owns; this module only names their files and columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (_SCHEMA_CHECK, DEFAULT_LIMITS, FULL_SCHEMA, REPORTED_JOINTS,
                   FeatureSchema, _checked, _read_json, _read_matrix,
                   _replacing, _rule, _write_matrix, write_json)
from .sim import (CableErrorModel, SimSession, StateStream, TrajectoryFollower,
                  TruthStream, check_load)
from .trajectory import DEFAULT_SPEEDS, Trajectory

#: Default pairing tolerance: well under half a 30 Hz state period.
SYNC_TOLERANCE_S = 0.010


class EmptyDatasetError(ValueError):
    """Synchronization produced no pairs within tolerance."""


class DataError(ValueError):
    pass


#: The checks of the pairing tolerance (s) and the training share of rows.
check_tolerance = _rule("sync_tolerance_s", "a finite number >= 0", lambda v: v >= 0,
                        DataError)
check_train_frac = _rule("train_frac", "a finite number in (0, 1)", lambda v: 0 < v < 1,
                         DataError)


# --------------------------------------------------------------------------
# recorded bags


def _reported(schema: FeatureSchema) -> FeatureSchema:
    """``schema``, if it names every column of ``REPORTED_JOINTS``, which
    ``synchronize`` reads; else DataError names the missing columns."""
    missing = [n for n in REPORTED_JOINTS if n not in schema.names]
    if missing:
        raise DataError(f"no reported joint column(s) {', '.join(map(repr, missing))}")
    return schema


def _bag_headers(schema: FeatureSchema) -> tuple:
    """The columns of a bag's state.csv and truth.csv: time, then features."""
    return ["t", *schema.names], ["t", "q1", "q2", "q3"]


@dataclass(frozen=True)
class RecordedBag:
    state: StateStream
    truth: TruthStream
    schema: FeatureSchema
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.state.features.shape[1] != self.schema.dim_full:
            raise DataError("state feature width does not match schema")
        _reported(self.schema)
        for t in (self.state.t, self.truth.t):
            if not (np.isfinite(t).all() and np.all(np.diff(t) > 0)):
                raise DataError(
                    "stream timestamps must be finite and strictly increasing")


def record(policy_or_traj, error_model: CableErrorModel, *, duration=None,
           load="unloaded", rates=(30.0, 100.0), seed=0, time_scale=1.0,
           limits=DEFAULT_LIMITS, speeds=DEFAULT_SPEEDS) -> RecordedBag:
    """Run one simulated session and package the streams as a bag."""
    policy = (TrajectoryFollower(policy_or_traj, speeds)
              if isinstance(policy_or_traj, Trajectory) else policy_or_traj)
    session = SimSession(error_model, limits, rates, seed, time_scale)
    state, truth = session.run(policy, duration, load)
    meta = {    # the values the session used, however they were spelled
        "load": check_load(load),
        "seed": seed,
        "rates": list(session.rates),
        "time_scale": session.time_scale,
        "duration_s": float(session.clock),
    }
    if isinstance(policy_or_traj, Trajectory):
        meta["trajectory"] = {"direction": policy_or_traj.direction,
                              "sparsity": policy_or_traj.sparsity}
    return RecordedBag(state, truth, FULL_SCHEMA, meta)


def save_bag(bag: RecordedBag, bag_dir) -> None:
    """Persist as a directory: state.csv, truth.csv, metadata.json, all
    three replaced together."""
    bag_dir = Path(bag_dir)
    bag_dir.mkdir(parents=True, exist_ok=True)
    with _replacing(bag_dir / "state.csv", bag_dir / "truth.csv",
                    bag_dir / "metadata.json") as (state, truth, side):
        write_json({"schema": bag.schema.to_dict(),
                    "metadata": bag.metadata}, side)
        state_header, truth_header = _bag_headers(bag.schema)
        _write_matrix(state, state_header, [bag.state.t, bag.state.features])
        _write_matrix(truth, truth_header, [bag.truth.t, bag.truth.q])


def load_bag(bag_dir) -> RecordedBag:
    bag_dir = Path(bag_dir)
    side_path = bag_dir / "metadata.json"
    head = _checked(_read_json(side_path, DataError), {
        "schema": ("object", (_SCHEMA_CHECK[0],
                              lambda d: _reported(_SCHEMA_CHECK[1](d))), True),
        "metadata": ("object", None, False),
    }, side_path, DataError)
    schema = head["schema"]
    state_header, truth_header = _bag_headers(schema)
    state = _read_matrix(bag_dir / "state.csv", state_header, DataError)
    truth = _read_matrix(bag_dir / "truth.csv", truth_header, DataError)
    return RecordedBag(StateStream(state[:, 0], state[:, 1:]),
                       TruthStream(truth[:, 0], truth[:, 1:]), schema,
                       head.get("metadata", {}))


# --------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class NormStats:
    """Per-feature mean/sd with degenerate (sd = 0) features flagged.

    Degenerate features get sd forced to 1, which maps a constant column to
    exactly zero after centering.
    """

    mean: np.ndarray
    sd: np.ndarray
    degenerate: np.ndarray  # bool per feature

    def __post_init__(self):
        if not (self.sd > 0).all():     # as fit writes it; NaN fails too
            raise ValueError(f"sd must be > 0, got {self.sd.min()}")

    @classmethod
    def fit(cls, X: np.ndarray) -> "NormStats":
        mean = X.mean(axis=0)
        sd = X.std(axis=0)
        degenerate = sd == 0.0
        return cls(mean, np.where(degenerate, 1.0, sd), degenerate)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.sd

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "sd": self.sd.tolist(),
                "degenerate": self.degenerate.astype(bool).tolist()}


def _norm_check(width: int) -> tuple:
    """The check of a ``NormStats`` entry of ``width`` features in a
    ``_checked`` table, for dataset sidecars and poly2 model files alike."""
    return ({"mean": ("number", (width,), True), "sd": ("number", (width,), True),
             "degenerate": ("boolean", (width,), True)},
            lambda d: NormStats(**d))


@dataclass(frozen=True)
class Dataset:
    """Synchronized training rows: inputs + truth targets + raw reported.

    ``inputs`` holds raw (unnormalized) feature values for the columns
    selected by ``schema``; ``norm`` (when attached by split_and_normalize
    or a fit) carries train-set statistics for those columns.
    """

    t: np.ndarray         # (N,) state-stream timestamps
    inputs: np.ndarray    # (N, D)
    targets: np.ndarray   # (N, 3) ground-truth positions
    reported: np.ndarray  # (N, 3) reported positions
    schema: FeatureSchema
    norm: Optional[NormStats] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.t)
        if n == 0:
            raise EmptyDatasetError("dataset has no rows")
        if not (len(self.inputs) == len(self.targets) == len(self.reported) == n):
            raise DataError("row count mismatch across dataset arrays")
        if self.inputs.shape[1] != self.schema.dim_selected:
            raise DataError(
                f"inputs have {self.inputs.shape[1]} columns, schema selects {self.schema.dim_selected}")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def errors(self) -> np.ndarray:
        """Per-row joint error: truth - reported (the on-error target)."""
        return self.targets - self.reported

    def take(self, idx) -> "Dataset":
        """The rows at ``idx`` (a slice, a boolean mask or an index array),
        with this dataset's ``norm`` and a copy of its ``meta``."""
        return Dataset(self.t[idx], self.inputs[idx], self.targets[idx],
                       self.reported[idx], self.schema, self.norm,
                       dict(self.meta))


def synchronize(bag: RecordedBag, tolerance: float = SYNC_TOLERANCE_S,
                full_features: bool = False) -> Dataset:
    """Pair state samples with nearest-in-time truth samples.

    Each state sample pairs with its nearest truth sample when their
    timestamps differ by at most ``tolerance`` (equidistant cases take the
    earlier truth sample). The pairing is injective on truth samples: if
    two state samples claim the same truth sample, the closer one wins
    (ties again to the earlier). Unpaired state samples are dropped.
    ``full_features`` keeps all 138 columns instead of the selected 16.
    """
    check_tolerance(tolerance)
    ts, tt = bag.state.t, bag.truth.t
    if len(ts) == 0 or len(tt) == 0:
        raise EmptyDatasetError("cannot synchronize empty streams")
    pos = np.searchsorted(tt, ts)
    left = np.clip(pos - 1, 0, len(tt) - 1)
    right = np.clip(pos, 0, len(tt) - 1)
    d_left = np.abs(ts - tt[left])
    d_right = np.abs(ts - tt[right])
    nearest = np.where(d_left <= d_right, left, right)
    dist = np.minimum(d_left, d_right)
    ok = dist <= tolerance

    # enforce injectivity on truth: among state samples sharing a truth
    # index, keep the closest (the earliest on ties)
    cand = np.flatnonzero(ok)
    if len(cand) == 0:
        raise EmptyDatasetError(
            f"no state/truth pairs within tolerance {tolerance}s")
    order = cand[np.lexsort((cand, dist[cand], nearest[cand]))]
    first = np.ones(len(order), dtype=bool)
    first[1:] = nearest[order[1:]] != nearest[order[:-1]]

    idx = np.sort(order[first])
    schema = bag.schema.with_all_selected() if full_features else bag.schema
    # one gather per output, from the transposed view, so no full-width
    # copy of the state rows is made and the result stays F-ordered
    feats_t = bag.state.features.T
    X = feats_t[np.ix_(schema.selected_indices(), idx)].T
    targets = bag.truth.q[nearest[idx]]
    rep_cols = [bag.schema.index_of(name) for name in REPORTED_JOINTS]
    reported = feats_t[np.ix_(rep_cols, idx)].T
    meta = dict(bag.metadata)
    meta["sync_tolerance_s"] = float(tolerance)
    return Dataset(bag.state.t[idx], X, targets, reported, schema, None, meta)


def split_and_normalize(ds: Dataset, train_frac: float = 0.8) -> tuple:
    """Contiguous time-block split; stats fitted on train, attached to both.

    Sessions with drift must never be shuffled across the split boundary,
    so the first ``train_frac`` of rows (by recorded order) become the
    training block.
    """
    if len(ds) < 2:
        raise DataError("need at least 2 rows to split")
    check_train_frac(train_frac)
    n_train = min(max(int(round(len(ds) * train_frac)), 1), len(ds) - 1)
    ds = replace(ds, norm=NormStats.fit(ds.inputs[:n_train]))
    return ds.take(slice(0, n_train)), ds.take(slice(n_train, None))


def concat(datasets: list) -> Dataset:
    """Row-wise concatenation of datasets sharing one schema/mask."""
    if not datasets:
        raise EmptyDatasetError("nothing to concatenate")
    schema = datasets[0].schema
    if any(d.schema != schema for d in datasets):
        raise DataError("cannot concat datasets with different schemas/masks")
    return Dataset(np.concatenate([d.t for d in datasets]),
                   np.vstack([d.inputs for d in datasets]),
                   np.vstack([d.targets for d in datasets]),
                   np.vstack([d.reported for d in datasets]), schema, None,
                   {"sources": [d.meta for d in datasets]})


def _dataset_header(width: int) -> list:
    """The columns of a dataset CSV: t, x_0..x_{width-1}, q*_true, q*_rep."""
    return ["t", *(f"x_{i}" for i in range(width)),
            *(f"q{j}_{s}" for s in ("true", "rep") for j in (1, 2, 3))]


def save_dataset(ds: Dataset, csv_path) -> None:
    """The dataset CSV (``_dataset_header``) + JSON schema sidecar, both
    replaced together."""
    csv_path = Path(csv_path)
    header = _dataset_header(ds.inputs.shape[1])
    with _replacing(csv_path, csv_path.with_suffix(".json")) as (fh, side):
        write_json({
            "schema": ds.schema.to_dict(),
            "norm": ds.norm.to_dict() if ds.norm is not None else None,
            "meta": ds.meta,
        }, side)
        _write_matrix(fh, header, [ds.t, ds.inputs, ds.targets, ds.reported])


def load_dataset(csv_path) -> Dataset:
    csv_path = Path(csv_path)
    side_path = csv_path.with_suffix(".json")
    side = _checked(_read_json(side_path, DataError), {
        "schema": ("object", _SCHEMA_CHECK, True),
        "norm": lambda got: (("object", "null"),
                             _norm_check(got["schema"].dim_selected), False),
        "meta": ("object", None, False),
    }, side_path, DataError)
    D = side["schema"].dim_selected
    mat = _read_matrix(csv_path, _dataset_header(D), DataError)
    # F-ordered inputs, as synchronize returns them: the same bits in every fit
    return Dataset(mat[:, 0], np.asfortranarray(mat[:, 1:1 + D]),
                   mat[:, 1 + D:4 + D], mat[:, 4 + D:7 + D], side["schema"],
                   side.get("norm"), side.get("meta", {}))
