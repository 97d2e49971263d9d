"""Shared joint-space types for the 3 positioning joints of a cable-driven arm.

Units are fixed across the whole toolkit: joint 1 and joint 2 are revolute
(degrees), joint 3 is prismatic (millimetres). Every position-like quantity
that crosses a module boundary uses this (deg, deg, mm) convention; joint
limits hold their bounds as (j1, j2, j3) tuples of floats.

The module also owns the artifact file format. Every bag, dataset,
trajectory, model, report and manifest file is written through
``_replacing``, which replaces all the files of one artifact together or
none of them, as ``%.17g`` CSV (``_write_matrix``) or indented JSON
(``write_json``), and read back through the checked ``_read_matrix`` and
``_read_json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Channel suffixes for the 8 motor/joint channels of one arm
#: (7 arm joints plus the grasper channel).
CHANNELS = ("j1", "j2", "j3", "j4", "j5", "j6", "j7", "grasper")


class SchemaError(ValueError):
    """Feature schema is inconsistent or does not match the expected layout."""


@dataclass(frozen=True)
class JointLimits:
    """Inclusive per-joint position limits, with derived center and range.

    ``min`` and ``max`` are (j1 deg, j2 deg, j3 mm) tuples of floats, so
    limits compare and hash by value. The center is c = 0.5 * (max + min)
    and the range is r = max - min, computed per joint; both are used by the
    trajectory scaling rules.
    """

    min: tuple
    max: tuple

    def __post_init__(self) -> None:
        for name in ("min", "max"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != (3,) or not np.isfinite(a).all():
                raise ValueError(f"limits {name} must be 3 finite numbers, "
                                 f"got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(a.tolist()))
        if not all(lo < hi for lo, hi in zip(self.min, self.max)):
            raise ValueError(f"limits must satisfy min < max per joint: "
                             f"{self.min} vs {self.max}")

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.array(self.max) + np.array(self.min))

    @property
    def range(self) -> np.ndarray:
        return np.array(self.max) - np.array(self.min)

    def to_dict(self) -> dict:
        return {"min": list(self.min), "max": list(self.max)}

    @classmethod
    def from_dict(cls, d: dict) -> "JointLimits":
        return cls(d["min"], d["max"])


def _finite(value) -> bool:
    """No NaN or infinity in a parsed JSON or TOML value. Lists and tables
    are walked to any depth, ragged ones too (per-layer weights), and a
    numeric string inside a list, such as ``"nan"``, counts as a number;
    other values (strings, booleans, dates) pass."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        try:
            return bool(np.isfinite(np.asarray(value, dtype=float)).all())
        except (TypeError, ValueError):     # ragged or not all numeric
            return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def json_digest(obj) -> str:
    """sha256 (hex) of ``obj`` as compact, key-sorted JSON: the one digest
    behind schema hashes, model checksums and manifest config hashes."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


#: Simulator defaults; real robots override these in the config file.
DEFAULT_LIMITS = JointLimits((0, 0, 0), (90, 90, 250))


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered robot-state feature catalog plus the model-input selection mask.

    The name list fixes the column order of every recorded stream, dataset
    and trained model; a schema hash ties those artifacts together so a
    model can refuse inputs laid out differently.
    """

    names: tuple
    selected_mask: tuple

    def __post_init__(self) -> None:
        if len(self.names) != len(self.selected_mask):
            raise SchemaError("names and selected_mask must have equal length")
        if len(set(self.names)) != len(self.names):
            raise SchemaError("feature names must be unique")

    @property
    def dim_full(self) -> int:
        return len(self.names)

    @property
    def dim_selected(self) -> int:
        return int(sum(1 for m in self.selected_mask if m))

    def selected_indices(self) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.selected_mask, dtype=bool))

    def selected_names(self) -> tuple:
        return tuple(n for n, m in zip(self.names, self.selected_mask) if m)

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def hash(self) -> str:
        return json_digest(self.to_dict())

    def with_all_selected(self) -> "FeatureSchema":
        return FeatureSchema(self.names, tuple(True for _ in self.names))

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "selected_mask": [bool(m) for m in self.selected_mask],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        return cls(tuple(d["names"]), tuple(bool(m) for m in d["selected_mask"]))


def _block(prefix: str) -> list:
    return [f"{prefix}_{ch}" for ch in CHANNELS]


def build_full_schema() -> FeatureSchema:
    """Build the 138-dimensional robot-state catalog emitted by the simulator.

    Layout (counts in parentheses):
      operating status (6): timestamp, run_level, sublevel, last_sequence,
        arm_type, grasper_desired
      per-channel blocks (12 x 8): encoder values/offsets, motor and joint
        positions, motor and joint velocities, desired joint/motor positions
        and velocities, motor currents, motor torques
      end-effector Jacobian velocity and force (6 + 6)
      measured and desired end-effector pose, xyz + rotation matrix (12 + 12)

    The default selection mask picks joint positions and motor torques
    (8 + 8 = 16 inputs).
    """
    names: list = [
        "timestamp",
        "run_level",
        "sublevel",
        "last_sequence",
        "arm_type",
        "grasper_desired",
    ]
    for prefix in (
        "encoder_value",
        "encoder_offset",
        "motor_position",
        "joint_position",
        "motor_velocity",
        "joint_velocity",
        "desired_joint_position",
        "desired_motor_position",
        "desired_joint_velocity",
        "desired_motor_velocity",
        "motor_current",
        "motor_torque",
    ):
        names.extend(_block(prefix))
    names.extend(f"jacobian_velocity_{i}" for i in range(6))
    names.extend(f"jacobian_force_{i}" for i in range(6))
    for which in ("ee", "desired_ee"):
        names.extend(f"{which}_pos_{ax}" for ax in "xyz")
        names.extend(f"{which}_rot_{r}{c}" for r in range(3) for c in range(3))

    mask = tuple(
        n.startswith("joint_position_") or n.startswith("motor_torque_") for n in names
    )
    schema = FeatureSchema(tuple(names), mask)
    if schema.dim_full != 138 or schema.dim_selected != 16:
        raise SchemaError(
            f"catalog layout drifted: {schema.dim_full} features, "
            f"{schema.dim_selected} selected"
        )
    return schema


#: Canonical schema instance shared by recorder, datasets and models.
FULL_SCHEMA = build_full_schema()


@contextmanager
def _replacing(*paths):
    """One text handle per path, each on a temporary sibling; every path is
    replaced only when the block completes, so a failed write leaves all the
    previous files as they were and no temporary file behind. Newlines are
    written untranslated, so every artifact has the same bytes on every
    platform."""
    paths = [Path(p) for p in paths]
    tmps = [p.with_name(f".{p.name}.tmp") for p in paths]
    try:
        with ExitStack() as stack:
            yield tuple(stack.enter_context(
                open(t, "w", encoding="utf-8", newline="")) for t in tmps)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def write_json(obj, fh) -> None:
    """Indented, key-sorted JSON plus a trailing newline."""
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


#: Rows formatted per ``%`` call when writing a CSV: as fast as 64 rows
#: on a 139-column bag (per-row calls are 2x slower on 4-column truth),
#: and a 16-row chunk holds about 0.16 MB of text and float objects.
_CSV_CHUNK_ROWS = 16


def _write_matrix(fh, header: list, blocks) -> None:
    """Write 1-D and 2-D column blocks side by side as ``%.17g`` CSV.

    The bytes equal ``np.savetxt(fh, np.column_stack(blocks),
    fmt="%.17g", delimiter=",", header=",".join(header), comments="")``,
    but rows are formatted a small chunk at a time, so the blocks are never
    copied into one matrix. ``%.17g`` reloads every float bit-identically.
    """
    cols = [b.reshape(-1, 1) if b.ndim == 1 else b for b in blocks]
    row_fmt = ",".join(["%.17g"] * sum(c.shape[1] for c in cols)) + "\n"
    fh.write(",".join(header) + "\n")
    for s in range(0, len(cols[0]), _CSV_CHUNK_ROWS):
        chunk = np.concatenate([c[s:s + _CSV_CHUNK_ROWS] for c in cols], axis=1)
        fh.write(row_fmt * len(chunk) % tuple(chunk.ravel().tolist()))


def _read_matrix(path: Path, width: int, error) -> np.ndarray:
    """A CSV with one header line, checked to be ``width`` columns of finite
    values; ``error`` (the caller's error class) names the file and, for a
    non-finite value, the first bad row."""
    try:
        mat = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc
    if mat.shape[1] != width:
        raise error(f"{path}: {mat.shape[1]} columns, expected {width}")
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if len(bad):
        raise error(f"{path}: row {bad[0]} holds NaN or infinite values")
    return mat


def _read_json(path: Path, error) -> dict:
    """The top-level object of a JSON file; ``error`` (the caller's error
    class) names the file when it is not valid JSON or not an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:       # JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: top level must be a JSON object")
    return doc
