"""Zig-zag calibration trajectory generation in 3-joint space.

``generate`` makes every trajectory in three array steps. A base raster
sweeps joint 1 back and forth across a centered unit cube,
stepping joint 2 between passes and joint 3 between planes. Rotating that
raster yields seven direction classes (which joint axes are swept without
gaps). One module table owns them: it maps each class to its rotation,
translation and shrink into the unit cube, and ``DIRECTIONS`` is its key
order. An affine map then places the result inside the joint limits with a
per-class span rule: with c the limit center and r the range (per joint),
single-joint classes occupy c +- r/(2*sqrt(3)), two-joint classes
c +- sqrt(2)*r/(2*sqrt(3)), and the three-joint class the full c +- r/2.
Trajectories are saved in the CSV + JSON sidecar format that ``core`` owns.
The sidecar's ``direction``, ``sparsity``, ``limits`` and ``step`` are all
required, so an older sidecar (``normalized``, ``meta``, no ``step``) is refused."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (DEFAULT_LIMITS, JointLimits, _checked, _read_json,
                   _read_matrix, _replacing, _rule, _write_matrix,
                   write_json)

_SQRT3 = math.sqrt(3.0)

#: Default densification step, as a fraction of the normalized range.
DEFAULT_STEP = 1.0 / 200.0

#: Default follower sweep speeds per joint: deg/s, deg/s, mm/s.
DEFAULT_SPEEDS = (3.0, 3.0, 9.5)


class TrajectoryError(ValueError):
    pass


#: The columns of a trajectory CSV: the waypoint ordinal, then the joints.
_HEADER = ("t_index", "j1", "j2", "j3")


#: The checks of the trajectory settings: raster spacing as a fraction of
#: the normalized range, densification step, follower speeds per joint.
check_sparsity = _rule("sparsity", "a finite number in (0, 1/2]", lambda v: 0 < v <= 0.5,
                       TrajectoryError)
check_step = _rule("step", "a finite number > 0", lambda v: v > 0, TrajectoryError)
check_speeds = _rule("speeds", "3 finite numbers > 0", lambda v: v > 0, TrajectoryError,
                     count=3)


@dataclass(frozen=True)
class Trajectory:
    """An ordered joint-space path inside ``limits`` (waypoints in
    deg/deg/mm), with the settings ``generate`` made it from."""

    waypoints: np.ndarray          # (N, 3) float
    direction: str
    sparsity: float
    limits: JointLimits = DEFAULT_LIMITS
    step: float = DEFAULT_STEP

    def __len__(self) -> int:
        return len(self.waypoints)


def _rot(axis: int, deg: float) -> np.ndarray:
    """Rotation by ``deg`` about joint axis ``axis`` (0, 1, 2 for j1, j2, j3)."""
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    i, j = (axis + 1) % 3, (axis + 2) % 3
    m = np.eye(3)
    m[i, i] = m[j, j] = c
    m[i, j], m[j, i] = -s, s
    return m


@dataclass(frozen=True)
class DirectionTransform:
    """Affine map plus elementwise shrink: p' = shrink * (rot @ p + trans).

    The shrink is applied last, to the translated position only, and keeps
    rotated multi-joint diagonals inside the unit cube.
    """

    rotation: np.ndarray
    translation: np.ndarray
    shrink: np.ndarray

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return (pts @ self.rotation.T + self.translation) * self.shrink


def _placed(direction: str, rotation: np.ndarray) -> DirectionTransform:
    """Re-center a rotated raster at (.5,.5,.5): an n-joint class (n > 1)
    spans +-sqrt(n)/2 on its n mixed axes, so those are translated by
    sqrt(n)/2 and shrunk by 1/sqrt(n); other axes move by 1/2, unshrunk."""
    n = direction.count("j")
    g = np.array([math.sqrt(n) if n > 1 and f"j{j}" in direction else 1.0
                  for j in (1, 2, 3)])
    tr = DirectionTransform(rotation, 0.5 * g, 1.0 / g)
    for a in (tr.rotation, tr.translation, tr.shrink):
        a.setflags(write=False)
    return tr


#: Direction class -> map from the centered base raster into the unit cube.
#: Single-joint classes rotate the raster 90 degrees so the requested joint
#: becomes the swept axis; two-joint classes tilt 45 degrees so two joints
#: co-move during sweeps; the three-joint class composes two 45-degree tilts.
_TRANSFORMS = {d: _placed(d, rot) for d, rot in (
    ("j1", np.eye(3)),
    ("j2", _rot(2, 90.0)),
    ("j3", _rot(1, 90.0)),
    ("j1j2", _rot(2, 45.0)),
    ("j2j3", _rot(0, 45.0) @ _rot(2, 90.0)),
    ("j1j3", _rot(1, -45.0)),
    ("j1j2j3", _rot(1, 45.0) @ _rot(0, 45.0)),
)}

DIRECTIONS = tuple(_TRANSFORMS)

check_direction = _rule("direction", f"one of {DIRECTIONS}",
                        DIRECTIONS.__contains__, TrajectoryError, number=False)


def direction_transform(direction: str) -> DirectionTransform:
    """Map from the centered base raster frame into the unit cube: the
    class's table entry, whose arrays are read-only."""
    return _TRANSFORMS[check_direction(direction)]


def span_fraction(direction: str) -> float:
    """Per-joint span of a scaled trajectory as a fraction of the range r:
    sqrt(n / 3) for a class that sweeps n joints ('j1j3': n = 2)."""
    direction_transform(direction)
    return math.sqrt(direction.count("j")) / _SQRT3


def _raster_corners(sparsity: float) -> np.ndarray:
    check_sparsity(sparsity)
    n = math.ceil(1.0 / sparsity - 1e-9)
    levels = np.linspace(-0.5, 0.5, n + 1)
    pts: list = []
    flip = False
    for kz, z in enumerate(levels):
        ys = levels if kz % 2 == 0 else levels[::-1]
        for y in ys:
            x0, x1 = (0.5, -0.5) if flip else (-0.5, 0.5)
            pts.append((x0, float(y), float(z)))
            pts.append((x1, float(y), float(z)))
            flip = not flip
    return np.array(pts)


def _densify(waypoints: np.ndarray, step: float) -> np.ndarray:
    """Subdivide segments so consecutive points differ by <= step (inf-norm).

    Original waypoints are kept exactly, so the +-0.5 extremes survive
    densification bit-for-bit.
    """
    check_step(step)
    delta = np.diff(waypoints, axis=0)
    k = np.maximum(np.ceil(np.abs(delta).max(axis=1) / step), 1).astype(np.intp)
    seg = np.repeat(np.arange(len(k)), k)       # segment of each new point
    i = np.arange(1, len(seg) + 1) - np.repeat(np.cumsum(k) - k, k)
    frac = i / k[seg]
    return np.concatenate([waypoints[:1],
                           waypoints[seg] + delta[seg] * frac[:, None]])


def _raster(sparsity: float, step: float) -> np.ndarray:
    """Serpentine raster on the centered cube [-0.5, 0.5]^3 (direction j1):
    joint 1 is swept back and forth without gaps, joint 2 steps by
    ``sparsity`` per pass and joint 3 per plane, each pass reversing sweep
    sign; points are densified so spacing never exceeds ``step``."""
    return _densify(_raster_corners(sparsity), step)


def _scaled(pts: np.ndarray, direction: str, limits: JointLimits) -> np.ndarray:
    """Unit-cube points placed inside the joint limits: the bounding box of
    each joint coordinate is mapped onto the class target interval c +- f*r/2
    (f from :func:`span_fraction`), so every direction shares the center c
    exactly and the three-joint class spans the full limit range."""
    c, r, f = limits.center, limits.range, span_fraction(direction)
    tgt_lo, tgt_hi = c - 0.5 * f * r, c + 0.5 * f * r
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    flat = hi - lo < 1e-12           # a joint the raster does not move
    return np.where(flat, 0.5 * (tgt_lo + tgt_hi), tgt_lo + (pts - lo) * (tgt_hi - tgt_lo)
                    / np.where(flat, 1.0, hi - lo))


def generate(direction: str, sparsity: float, limits: JointLimits = DEFAULT_LIMITS,
             step: float = DEFAULT_STEP) -> Trajectory:
    """Base raster -> direction transform -> scale to limits, in one call."""
    pts = direction_transform(direction).apply(_raster(sparsity, step))
    return Trajectory(_scaled(pts, direction, limits), direction, float(sparsity),
                      limits, float(step))


def trajectory_duration(traj: Trajectory, speeds=DEFAULT_SPEEDS) -> float:
    """Execution time (s) under a constant-speed follower.

    Each segment takes max_j |delta_j| / speed_j: joints move simultaneously
    and the slowest-finishing joint paces the segment.
    """
    return float(segment_times(traj.waypoints, speeds)[-1]) if len(traj) else 0.0


def segment_times(points: np.ndarray, speeds=DEFAULT_SPEEDS) -> np.ndarray:
    """Cumulative arrival time at every waypoint, starting from 0."""
    sp = np.asarray(check_speeds(speeds), dtype=float)
    if len(points) == 0:
        return np.zeros(0)
    seg = (np.abs(np.diff(points, axis=0)) / sp).max(axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def save(traj: Trajectory, csv_path) -> None:
    """Write waypoints as CSV plus a JSON sidecar of generation settings,
    both replaced together.

    CSV columns are ``_HEADER``, written at ``%.17g`` so a load
    round-trips bit-identically.
    """
    csv_path = Path(csv_path)
    sidecar = {"direction": traj.direction, "sparsity": traj.sparsity,
               "limits": traj.limits.to_dict(), "step": traj.step}
    with _replacing(csv_path, csv_path.with_suffix(".json")) as (fh, side):
        _write_matrix(fh, _HEADER, [np.arange(len(traj)), traj.waypoints])
        write_json(sidecar, side)


def load(csv_path) -> Trajectory:
    """Read a trajectory written by :func:`save` (sidecar required); a
    malformed file raises ``TrajectoryError`` naming the file, and the bad
    entry or the first row that is not finite or out of ``t_index`` order."""
    csv_path = Path(csv_path)
    rows = _read_matrix(csv_path, _HEADER, TrajectoryError)
    bad = np.flatnonzero(rows[:, 0] != np.arange(len(rows)))
    if len(bad):
        raise TrajectoryError(f"{csv_path}: row {bad[0]} has t_index "
                              f"{rows[bad[0], 0]:g}, expected {bad[0]}")
    side_path = csv_path.with_suffix(".json")
    side = _checked(_read_json(side_path, TrajectoryError), {
        "direction": ("string", check_direction, True),
        "sparsity": ("number", check_sparsity, True),
        "limits": ("object", ({"min": ("number", (3,), True),
                               "max": ("number", (3,), True)},
                              lambda d: JointLimits(**d)), True),
        "step": ("number", check_step, True),
    }, side_path, TrajectoryError)
    return Trajectory(rows[:, 1:], **side)
