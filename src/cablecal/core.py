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
``_read_json``. The CSV text is built by numpy (``_format_17g``) and is
byte-identical to Python's ``%``: digits come from one long-double
rounding of the value times an exact power of ten, and a value that
rounding cannot settle is formatted by ``%`` itself. Where long double is
IEEE double, that is every nonzero value: the same bytes, at the speed of
``%``.
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
            try:
                a = np.asarray(getattr(self, name), dtype=float)
                ok = a.shape == (3,) and np.isfinite(a).all()
            except OverflowError:       # an integer too large for a float
                ok = False
            if not ok:
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
    """No NaN, infinity or integer too large for a float in a parsed JSON or
    TOML value. Lists and tables are walked to any depth, ragged ones too
    (per-layer weights), and a numeric string inside a list, such as
    ``"nan"``, counts as a number; other values (strings, booleans, dates)
    pass."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        try:
            return bool(np.isfinite(np.asarray(value, dtype=float)).all())
        except (TypeError, ValueError, OverflowError):  # ragged, not numeric
            return all(_finite(v) for v in value)       # or a huge integer
    try:
        return not isinstance(value, (int, float)) or math.isfinite(value)
    except OverflowError:           # an integer too large for a float
        return False


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


#: Values formatted per chunk when writing a CSV (whole rows, at least
#: one): the chunk's arrays take about 0.8 MB, and on a 2-vCPU x86 machine
#: 4096 values formatted faster than 2048 or 8192.
_CSV_CHUNK_VALUES = 4096

#: Longest ``%.17g`` text of a float64, as in ``-2.2250738585072014e-308``.
_TEXT_WIDTH = 24

#: 10**k for k = 0..20, exact in float64 (as is every power up to 10**22)
#: and so in long double.
_POW10 = np.array([float(10 ** k) for k in range(21)], dtype=np.longdouble)

#: How far from one half the fraction of a value scaled to 17 integer
#: digits must lie for numpy to round it: at least twice the long-double
#: rounding error of a scaled value below 10**17. Where long double is
#: IEEE double this is about 22, so no value is rounded there.
_TIE_BAND = 1e17 * float(np.finfo(np.longdouble).eps)

_DIGIT = np.arange(17, dtype=np.int8)[:, None]
_ZERO, _POINT, _MINUS = (np.uint8(ord(c)) for c in "0.-")


def _format_17g(values: np.ndarray, text: np.ndarray) -> None:
    """Write the ``'%.17g' % v`` text of each float64 ``values[i]`` into
    ``text[:, i]`` (``_TEXT_WIDTH`` rows of uint8), padded with NUL bytes.

    A value takes the vectorised path when ``%.17g`` prints it in fixed
    notation, with its decimal exponent e = floor(log10|v|) in -4..16, or
    when it is ±0. Its 17 significant digits are D = round(|v| * 10**(16-e)),
    and the product is rounded once, in long double (a 64-bit significand
    on x86), because both factors are exact there. If the product's fraction
    lies more than ``_TIE_BAND`` from one half, D is the correctly rounded
    value that Python's ``%`` prints too. e is clipped to -4..16, so a value
    outside that range scales to a D of other than 17 digits. Every value
    that fails a check is formatted by Python's ``%`` itself: the half-way
    band (exact ties included), an estimate of e that 10**16 <= D < 10**17
    refutes (a misestimate or a carry into another decade), scientific
    notation, NaN, infinities and subnormals. About 2% of a recorded bag's
    values take that path; where long double is IEEE double, all but ±0 do,
    and the bytes stay the same.
    """
    m = len(values)
    mag = np.abs(values)
    zero = mag == 0
    np.copyto(mag, 1e17, where=~(mag <= 1e17))  # NaN, inf: 18 digits
    e = np.clip(np.floor(np.log10(mag + zero)), -4, 16).astype(np.int8)
    scaled = mag.astype(np.longdouble)      # ±0: e = 0 and D = 0
    scaled *= _POW10[16 - e]
    whole = scaled.astype(np.uint64)        # truncates: scaled >= 0
    scaled -= whole
    frac = scaled.astype(np.float64) - 0.5
    d = whole + (frac > 0)
    fast = (np.abs(frac) > _TIE_BAND) & (d >= 10 ** 16) & (d < 10 ** 17)
    fast |= zero

    # the 17 digits, position-major: d -> 1 + 4 groups of 4 -> digits
    hi, lo = np.divmod(d, 10 ** 8)
    hi, lo = hi.astype(np.uint32), lo.astype(np.uint32)
    groups = np.empty((5, m), np.uint16)
    q = lo // 10000
    groups[4], groups[3] = lo - q * 10000, q
    q = hi // 10000
    groups[2], hi = hi - q * 10000, q
    q = hi // 10000
    groups[1], groups[0] = hi - q * 10000, q
    digits = np.empty((17, m), np.uint8)
    digits[0] = groups[0]
    rest = groups[1:]
    for j in range(3, -1, -1):
        q = rest // 10
        digits[1 + j::4] = rest - q * 10
        rest = q

    # keep the integer digits and every digit up to the last nonzero one
    keep = digits != 0
    for k in range(15, -1, -1):
        keep[k] |= keep[k + 1]
    keep |= _DIGIT <= e
    digits += _ZERO
    digits *= keep                          # trimmed digits become NUL

    # sign, "0.000" prefix for e < 0, digits with the point after digit e
    small = e < 0
    point = e + 1 + small * (16 - e)        # 17: no point among the digits
    np.multiply(np.signbit(values), _MINUS, out=text[0])
    np.multiply(small, _ZERO, out=text[1])
    np.multiply(small, _POINT, out=text[2])
    for j in range(3):
        np.multiply(e < -1 - j, _ZERO, out=text[3 + j])
    body = text[6:]                         # 18 slots: 17 digits, 1 point
    np.multiply(digits, _DIGIT < point, out=body[:17])
    body[17] = 0
    body[1:] += digits * (_DIGIT + 1 > point)
    body[:17] += (keep & (_DIGIT == point)) * _POINT

    slow = np.flatnonzero(~fast)
    if len(slow):
        pad = "".join(("%.17g" % v).ljust(_TEXT_WIDTH, "\0")
                      for v in values[slow].tolist())
        text[:, slow] = np.frombuffer(pad.encode("ascii"), np.uint8).reshape(
            len(slow), _TEXT_WIDTH).T


def _write_matrix(fh, header: list, blocks) -> None:
    """Write 1-D and 2-D column blocks side by side as ``%.17g`` CSV.

    The bytes equal ``np.savetxt(fh, np.column_stack(blocks),
    fmt="%.17g", delimiter=",", header=",".join(header), comments="")``,
    but rows are formatted a chunk of about ``_CSV_CHUNK_VALUES`` values
    at a time, so the blocks are never copied into one matrix. Each chunk
    is cast to float64 (an object that has no float value raises), its
    text is built by ``_format_17g`` in a fixed-width byte table, and the
    padding is dropped before one ``write``. ``%.17g`` reloads every float
    bit-identically.
    """
    cols = [b.reshape(-1, 1) if b.ndim == 1 else b for b in blocks]
    width = sum(c.shape[1] for c in cols)
    rows = max(1, _CSV_CHUNK_VALUES // width)
    table = np.empty((_TEXT_WIDTH + 1, rows, width), np.uint8)
    table[-1] = ord(",")                    # the separator after each value
    table[-1, :, -1] = ord("\n")
    table = table.reshape(_TEXT_WIDTH + 1, rows * width)
    fh.write(",".join(header) + "\n")
    for s in range(0, len(cols[0]), rows):
        chunk = np.concatenate([c[s:s + rows] for c in cols], axis=1)
        values = chunk.astype(np.float64, copy=False).ravel()
        text = table[:, :len(values)]
        _format_17g(values, text[:-1])
        fh.write(text.T.tobytes().translate(None, b"\0").decode("ascii"))


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
