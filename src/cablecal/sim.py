"""Synthetic cable-driven 3-joint robot with a configurable transmission error.

The simulator follows a motion policy (trajectory follower, random sinusoids,
or a hold), and emits two timestamped streams: a robot-state stream with the
full 138-feature vector (reported positions, torques, auxiliary channels) and
a denser ground-truth stream. Ground truth is the policy output; the reported
positions add a cable-transmission error composed of a constant offset,
linear position and torque couplings, motion-direction hysteresis, slow drift
that grows with operating time and load, and measurement noise.

The error is defined in the reported (motor-side) frame:

    reported - truth = offset + P @ reported + S @ torque + hysteresis
                       + drift(t, load) + noise

so with hysteresis, drift and noise disabled the reported/torque features
relate to the error exactly linearly, and a linear regression can recover the
generating coefficients. Reported positions are obtained by solving the
implicit relation ((I - P) @ reported = truth + the remaining terms).

The robot's own constants (gear ratios, encoder, torque-proxy and Jacobian
coefficients) are module constants, built once; their arrays are read-only.
The state vector's layout is ``core.STATE_BLOCKS``: the simulator walks that
table and writes each column of a block, made by name, into one matrix.

Everything is deterministic given the session seed; a session can be run in
chunks that share the clock, drift history, hysteresis state and rng, which
is how multi-hour decay studies and homing sequences are built.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from .core import CHANNELS, DEFAULT_LIMITS, STATE_BLOCKS, JointLimits, _real, _rule
from .trajectory import DEFAULT_SPEEDS, Trajectory, segment_times


class LimitViolationError(RuntimeError):
    """Motion policy commanded a position outside the configured limits."""


class SimError(ValueError):
    pass


# --------------------------------------------------------------------------
# error model


#: The checks of the stream rates (state, truth; Hz), the time scale and the seed.
check_rates = _rule("rates", "2 finite numbers > 0", lambda v: v > 0, SimError, count=2)
check_time_scale = _rule("time_scale", "a finite number >= 1", lambda v: v >= 1, SimError)
check_seed = _rule("seed", "an integer >= 0", lambda v: operator.index(v) >= 0, SimError)


_check_grams = _rule("load", "'unloaded', 'loaded', 'idle' or grams >= 0",
                     lambda v: not isinstance(v, bool) and 0 <= float(v) < math.inf,
                     SimError, number=False)


def check_load(load):
    """``load`` as ``SimSession.run`` reads it: 'unloaded', 'loaded' or
    'idle' as given, or a finite mass in grams >= 0 (a number or numeric
    string) as a float. Anything else raises SimError."""
    return load if load in ("unloaded", "loaded", "idle") else float(_check_grams(load))


@dataclass(frozen=True)
class CableErrorModel:
    """Per-joint transmission-error parameters (deg/deg/mm units throughout).

    ``position_gain`` and ``stiffness_gain`` are 3x3 rows-on-output matrices:
    diagonals couple a joint to its own position/torque, off-diagonals are the
    cross couplings. Drift rates are per simulated hour; ``drift_rate_loaded``
    applies at ``load_ref_g`` grams and scales linearly in between.
    """

    offset: tuple = (0.0, 0.0, 0.0)
    position_gain: tuple = ((0.0,) * 3,) * 3
    stiffness_gain: tuple = ((0.0,) * 3,) * 3
    hysteresis_width: tuple = (0.0, 0.0, 0.0)
    drift_rate_unloaded: tuple = (0.0, 0.0, 0.0)
    drift_rate_loaded: tuple = (0.0, 0.0, 0.0)
    drift_rate_idle: tuple = (0.0, 0.0, 0.0)
    noise_sd: tuple = (0.0, 0.0, 0.0)
    aux_noise_sd: float = 0.0
    homing_offset_sd: tuple = (0.0, 0.0, 0.0)
    load_ref_g: float = 500.0

    def __post_init__(self):
        # every field becomes floats: a tuple field a tuple of floats (a scalar
        # applies to every joint)
        for f in fields(self):
            v = getattr(self, f.name)
            shape = () if isinstance(f.default, float) else (3, 3) if "gain" in f.name else (3,)
            a = np.array(v, dtype=object)
            a = np.full(3, v, dtype=object) if shape == (3,) and a.ndim == 0 else a
            if a.shape != shape or not all(map(_real, a.flat)):
                raise SimError(f"{f.name} must be finite numbers of shape {shape}, got {v!r}")
            t = a.astype(float).tolist()
            object.__setattr__(self, f.name, tuple(map(tuple, t)) if a.ndim == 2
                               else tuple(t) if shape else t)
        if min(self.hysteresis_width + self.noise_sd + (self.aux_noise_sd,)) < 0:
            raise SimError("hysteresis widths and noise sds must be non-negative")
        if not self.load_ref_g > 0:
            raise SimError(f"load_ref_g must be > 0, got {self.load_ref_g!r}")

    @property
    def b(self) -> np.ndarray:
        return np.array(self.offset)

    @property
    def P(self) -> np.ndarray:
        return np.array(self.position_gain)

    @property
    def S(self) -> np.ndarray:
        return np.array(self.stiffness_gain)

    def grams(self, load):
        """``load``, as ``check_load`` takes it, in grams: 'unloaded' is 0
        and 'loaded' ``load_ref_g``; 'idle' stays 'idle'."""
        load = check_load(load)
        return {"unloaded": 0.0, "loaded": self.load_ref_g}.get(load, load)

    def drift_rate_per_s(self, load) -> np.ndarray:
        """Drift rate (units/s) for a load, as ``grams`` reads it."""
        g = self.grams(load)
        if g == "idle":
            return np.array(self.drift_rate_idle) / 3600.0
        lo = np.array(self.drift_rate_unloaded)
        hi = np.array(self.drift_rate_loaded)
        return (lo + (hi - lo) * (g / self.load_ref_g)) / 3600.0


def default_error_model() -> CableErrorModel:
    """Tuned default: raw per-joint RMSE near (2 deg, 8 deg, 11.7 mm) on a
    20-minute random test session, with enough structure that fixed-offset,
    linear and MLP calibration separate cleanly."""
    return CableErrorModel(
        offset=(-4.28, 3.96, -13.39),
        position_gain=(
            (0.022, 0.004, 0.0008),
            (0.006, 0.035, 0.0012),
            (-0.010, 0.014, 0.005),
        ),
        stiffness_gain=(
            (0.25, 0.02, 0.0),
            (0.03, 0.35, 0.0),
            (0.0, 0.05, 0.30),
        ),
        hysteresis_width=(0.12, 0.18, 0.10),
        drift_rate_unloaded=(0.055, 0.020, 0.012),
        drift_rate_loaded=(0.150, 0.180, 0.100),
        drift_rate_idle=(0.0, 0.0, 0.0),
        noise_sd=(0.06, 0.07, 0.10),
        aux_noise_sd=0.05,
        homing_offset_sd=(0.02, 0.20, 0.02),
    )


def noiseless_linear_model() -> CableErrorModel:
    """Default gains with hysteresis, drift and every noise source zeroed.

    Under this model the reported/torque features relate to the error
    exactly linearly, so regression recovers the generating coefficients.
    """
    return replace(
        default_error_model(),
        hysteresis_width=(0.0, 0.0, 0.0),
        drift_rate_unloaded=(0.0, 0.0, 0.0),
        drift_rate_loaded=(0.0, 0.0, 0.0),
        drift_rate_idle=(0.0, 0.0, 0.0),
        noise_sd=(0.0, 0.0, 0.0),
        aux_noise_sd=0.0,
    )


def apply_homing(model: CableErrorModel, rng: np.random.Generator) -> CableErrorModel:
    """Encoder re-registration event: perturb offsets, keep other gains.

    Returns a new model with offset += N(0, homing_offset_sd) per joint.
    Hysteresis *state* lives in the session, which also resets it on homing.
    """
    delta = rng.normal(0.0, 1.0, size=3) * np.array(model.homing_offset_sd)
    return replace(model, offset=tuple(np.array(model.offset) + delta))


# --------------------------------------------------------------------------
# motion policies


class TrajectoryFollower:
    """Tracks a scaled trajectory at constant per-joint speeds, then holds."""

    def __init__(self, traj: Trajectory, speeds=DEFAULT_SPEEDS):
        if len(traj) < 2:
            raise SimError("cannot follow a trajectory with fewer than 2 waypoints")
        self._pts = traj.waypoints
        self._t = segment_times(traj.waypoints, speeds)
        self.duration = float(self._t[-1])

    def positions(self, t):
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.duration)
        return np.stack([np.interp(t, self._t, self._pts[:, j]) for j in range(3)], axis=1)

    def velocities(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self._t, t, side="right") - 1, 0, len(self._t) - 2)
        dt = self._t[idx + 1] - self._t[idx]
        v = (self._pts[idx + 1] - self._pts[idx]) / dt[:, None]
        v[(t <= 0) | (t >= self.duration)] = 0.0
        return v


class HoldPolicy:
    """Holds one position forever (idle sessions)."""

    duration = math.inf

    def __init__(self, position):
        self._q = np.asarray(position, dtype=float).reshape(3)

    def positions(self, t):
        return np.tile(self._q, (len(np.asarray(t)), 1))

    def velocities(self, t):
        return np.zeros((len(np.asarray(t)), 3))


#: Average segment speed of ``RandomSinusoidPolicy`` as a fraction of the
#: joint's maximum speed.
SINUSOID_SPEED_RANGE = (0.25, 2.0 / math.pi)

_check_horizon = _rule("horizon", "a finite number > 0", lambda v: v > 0, SimError)


class RandomSinusoidPolicy:
    """Each joint independently chases random targets with cosine easing.

    Targets are uniform over the joint limits; average segment speeds are
    uniform in ``SINUSOID_SPEED_RANGE`` times the joint's ``DEFAULT_SPEEDS``
    entry. Cosine easing peaks at pi/2 times the average speed, so the upper
    fraction of 2/pi keeps instantaneous velocity within the maximum speed.
    Position and velocity are continuous (velocity is zero at every target).
    """

    def __init__(self, limits: JointLimits = DEFAULT_LIMITS, seed: int = 0,
                 horizon: float = 7200.0):
        rng = np.random.default_rng(seed)
        self.duration = float(_check_horizon(horizon))
        lo, hi = limits.min, limits.max
        self._knots = []
        self._values = []
        for j in range(3):
            t, q = [0.0], [float(rng.uniform(lo[j], hi[j]))]
            while t[-1] < horizon:
                target = float(rng.uniform(lo[j], hi[j]))
                v = float(rng.uniform(*SINUSOID_SPEED_RANGE)) * DEFAULT_SPEEDS[j]
                seg = max(abs(target - q[-1]) / v, 1e-3)
                t.append(t[-1] + seg)
                q.append(target)
            self._knots.append(np.array(t))
            self._values.append(np.array(q))

    def _segments(self, j, t):
        kt, kv = self._knots[j], self._values[j]
        idx = np.clip(np.searchsorted(kt, t, side="right") - 1, 0, len(kt) - 2)
        s = (t - kt[idx]) / (kt[idx + 1] - kt[idx])
        s = np.clip(s, 0.0, 1.0)
        return kv[idx], kv[idx + 1], kt[idx + 1] - kt[idx], s

    def positions(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty((len(t), 3))
        for j in range(3):
            q0, q1, _, s = self._segments(j, t)
            out[:, j] = q0 + (q1 - q0) * 0.5 * (1.0 - np.cos(np.pi * s))
        return out

    def velocities(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty((len(t), 3))
        for j in range(3):
            q0, q1, T, s = self._segments(j, t)
            out[:, j] = (q1 - q0) * 0.5 * np.pi / T * np.sin(np.pi * s)
        return out


# --------------------------------------------------------------------------
# robot constants (torque proxy and feature synthesis)


def _read_only(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


GEAR_RATIO = _read_only([12.0, 12.0, 4.0])          # motor turns per joint unit
COUNTS_PER_UNIT = _read_only([180.0, 180.0, 60.0])  # encoder counts per joint unit
ENCODER_OFFSET_COUNTS = _read_only([1000.0, 2000.0, 3000.0])
LOOKAHEAD_S = 0.05          # desired = reported + lookahead * velocity
EXT_REF_MM = 250.0          # normalizes j3 to an extension fraction
RUN_LEVEL, ARM_TYPE, GRASPER_DESIRED = 3.0, 0.0, 45.0   # status channels
PLACEHOLDER_POSITIONS = (15.0, -40.0, 25.0, 10.0, 30.0)  # joints 4-7 + grasper
#: Gravity/load torque proxy: rows are the tau_j coefficients on
#: (1, sin q1, cos q1, sin q2, cos q2, extension); the gravity part doubles
#: at TORQUE_DOUBLING_G grams of load, and the motion-direction (friction)
#: part is TORQUE_FRICTION.
TORQUE_GRAVITY = _read_only([[2.0, 1.5, 0.0, 0.0, 0.8, 1.2],
                             [2.5, 0.0, 1.2, 1.0, 0.0, 1.5],
                             [1.0, 0.0, 0.0, 0.0, 0.0, 2.0]])
TORQUE_DOUBLING_G = 500.0
TORQUE_FRICTION = _read_only([0.30, 0.30, 0.20])
#: Fixed maps from joint velocity and torque to the 6 end-effector Jacobian
#: velocity and force channels.
JACOBIAN_VELOCITY_MAP = _read_only(np.random.default_rng(101).uniform(-1, 1, (6, 3)))
JACOBIAN_FORCE_MAP = _read_only(np.random.default_rng(102).uniform(-1, 1, (6, 3)))


def motor_torques(q: np.ndarray, dirsign: np.ndarray, grams: float) -> np.ndarray:
    """Gravity/load torque proxy plus direction-dependent friction.

    Monotone in load mass and in arm extension (q3) at the default
    coefficients; the friction term carries the motion-direction sign so
    torque features contain (nonlinearly mixed) hysteresis information.
    """
    q1, q2 = np.radians(q[:, 0]), np.radians(q[:, 1])
    ext = q[:, 2] / EXT_REF_MM
    basis = np.stack([np.ones_like(q1), np.sin(q1), np.cos(q1),
                      np.sin(q2), np.cos(q2), ext], axis=1)
    grav = basis @ TORQUE_GRAVITY.T
    return (1.0 + grams / TORQUE_DOUBLING_G) * grav + dirsign * TORQUE_FRICTION


def _forward_fill_sign(v: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Sign of velocity with zeros replaced by the last nonzero sign."""
    s = np.sign(v)
    last = np.maximum.accumulate(np.where(s != 0, np.arange(len(s))[:, None], -1), axis=0)
    return np.where(last >= 0, np.take_along_axis(s, np.maximum(last, 0), axis=0), initial)


def _ee_pose(q: np.ndarray):
    """Spherical-arm pose proxy: insertion q3 rotated by q1 about the base
    axis and q2 about the elevated axis. Yields its 12 columns, xyz then
    row-major R; each row of three is made when the walk asks for it."""
    a, b = np.radians(q[:, 0]), np.radians(q[:, 1])
    r = q[:, 2]
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    yield from (r * sb * ca, r * sb * sa, -r * cb)
    yield from (ca * cb, -sa, ca * sb)
    yield from (sa * cb, ca, sa * sb)
    yield from (-sb, 0.0, cb)


# --------------------------------------------------------------------------
# load profiles


@dataclass(frozen=True)
class LoadProfile:
    """Schedule of (t_start, t_end, load) intervals, load = grams or 'idle',
    back to back from t = 0 as ``SimSession`` builds them from its ``run``
    calls; ``drift_at`` is defined from 0 to the last interval's end.
    """

    intervals: tuple

    def __post_init__(self):
        prev_end = 0.0
        for t0, t1, load in self.intervals:
            if t0 != prev_end or t1 <= t0:
                raise SimError(f"intervals must run back to back from 0: {self.intervals}")
            prev_end = t1

    def drift_at(self, t: np.ndarray, model: CableErrorModel) -> np.ndarray:
        """Accumulated drift bias (N, 3): integral of the load-dependent rate."""
        knots = [0.0]
        cum = [np.zeros(3)]
        for t0, t1, load in self.intervals:
            knots.append(t1)
            cum.append(cum[-1] + model.drift_rate_per_s(load) * (t1 - t0))
        cum = np.stack(cum)
        return np.stack([np.interp(t, knots, cum[:, j]) for j in range(3)], axis=1)


# --------------------------------------------------------------------------
# session


class StateStream(NamedTuple):
    t: np.ndarray          # (N,) simulated seconds
    features: np.ndarray   # (N, 138) per FULL_SCHEMA


class TruthStream(NamedTuple):
    t: np.ndarray  # (M,)
    q: np.ndarray  # (M, 3)


class SimSession:
    """A deterministic simulated recording session, runnable in chunks.

    Chunks share the simulated clock, load/drift history, hysteresis sign
    state, sequence counter and rng, so decay and homing studies compose
    from consecutive ``run`` calls. ``time_scale`` k > 1 keeps the simulated
    clock (and all drift math) at full span while emitting k-fold fewer
    samples.
    """

    def __init__(self, error_model: CableErrorModel, limits: JointLimits = DEFAULT_LIMITS,
                 rates=(30.0, 100.0), seed: int = 0, time_scale: float = 1.0):
        self.error_model = error_model
        self.limits = limits
        self.rates = tuple(map(float, check_rates(rates)))
        self.time_scale = float(check_time_scale(time_scale))
        self.rng = np.random.default_rng(check_seed(seed))
        self.clock = 0.0
        self._last_dir = np.zeros(3)
        self._seq = 0
        self._load_history: list = []

    def home(self) -> None:
        """Homing event: re-randomize offsets, reset hysteresis sign state."""
        self.error_model = apply_homing(self.error_model, self.rng)
        self._last_dir = np.zeros(3)

    def run(self, policy, duration: Optional[float] = None,
            load="unloaded") -> tuple:
        """Advance the session, returning (StateStream, TruthStream).

        ``policy`` is any object with a ``duration`` in seconds and
        ``positions(t)`` and ``velocities(t)`` that map an (N,) array of
        policy times to (N, 3) joint arrays, such as ``TrajectoryFollower``,
        ``RandomSinusoidPolicy`` or ``HoldPolicy``. Policy time starts at 0
        for each run call; ``duration`` defaults to the policy's. ``load``
        is read by ``CableErrorModel.grams``.
        """
        if duration is None:
            duration = policy.duration
        if not (duration > 0 and math.isfinite(duration)):
            raise SimError(f"duration must be positive and finite, got {duration}")
        load = self.error_model.grams(load)
        t0 = self.clock
        self._load_history.append((t0, t0 + duration, load))
        profile = LoadProfile(tuple(self._load_history))

        state_dt = self.time_scale / self.rates[0]
        truth_dt = self.time_scale / self.rates[1]
        n_state = max(int(math.floor(duration / state_dt)), 1)
        n_truth = max(int(math.floor(duration / truth_dt)), 1)
        ts = t0 + np.arange(n_state) * state_dt
        tt = t0 + np.arange(n_truth) * truth_dt

        q_true_t = policy.positions(tt - t0)    # no rng: made before the state matrix
        q_true_s = policy.positions(ts - t0)
        v_true_s = policy.velocities(ts - t0)
        self._check_limits(q_true_s)

        em = self.error_model
        dirsign = _forward_fill_sign(v_true_s, self._last_dir)
        # every sample lies inside this run's own load interval
        tau = motor_torques(q_true_s, dirsign, 0.0 if load == "idle" else float(load))
        rhs = q_true_s + em.b   # then stiffness, hysteresis, drift, noise, in this order
        rhs += tau @ em.S.T
        rhs += dirsign * np.array(em.hysteresis_width)
        rhs += profile.drift_at(ts, em)
        rhs += self.rng.normal(0.0, 1.0, (n_state, 3)) * np.array(em.noise_sd)
        q_rep = rhs @ np.linalg.inv(np.eye(3) - em.P).T
        self._last_dir = dirsign[-1].copy()
        del q_true_s, v_true_s, dirsign, rhs    # let go before the state matrix exists

        features = self._features(ts, q_rep, tau)

        self.clock = t0 + duration
        self._seq += n_state
        return StateStream(ts, features), TruthStream(tt, q_true_t)

    def _check_limits(self, q: np.ndarray) -> None:
        lo = np.array(self.limits.min) - 1e-9
        hi = np.array(self.limits.max) + 1e-9
        if not np.all((q >= lo) & (q <= hi)):     # NaN is out of bounds too
            j = int(np.argmax(np.maximum(lo - q, q - hi).max(axis=0)))
            raise LimitViolationError(
                f"policy leaves joint limits on j{j + 1}: "
                f"range [{q[:, j].min():.3f}, {q[:, j].max():.3f}] vs [{lo[j]:.3f}, {hi[j]:.3f}]"
            )

    def _features(self, ts, q_rep, tau) -> np.ndarray:
        """The (N, 138) state matrix: ``STATE_BLOCKS`` walked in order, each
        block's columns made by name in layout order as the walk reaches them,
        and each column (an (N,) array or a number) written into one matrix as
        it arrives. The last five columns of an 8-channel block, joints 4-7 and
        the grasper, then take their aux noise from one draw, in table order."""
        n = len(ts)
        v_rep = np.gradient(q_rep, ts, axis=0) if n >= 2 else np.zeros_like(q_rep)
        desired = q_rep + LOOKAHEAD_S * v_rep
        gear, counts, enc_off = GEAR_RATIO, COUNTS_PER_UNIT, ENCODER_OFFSET_COUNTS
        aux_sd = self.error_model.aux_noise_sd
        ph, zero5 = PLACEHOLDER_POSITIONS, (0.0,) * 5
        values = {      # name -> the block's columns in layout order
            "status": lambda: (ts, RUN_LEVEL, 0.0, self._seq + np.arange(n, dtype=float),
                               ARM_TYPE, GRASPER_DESIRED),
            "encoder_value": lambda: (*(q_rep * counts + enc_off).T, *ph),
            "encoder_offset": lambda: (*enc_off, *zero5),
            "motor_position": lambda: (*(q_rep * gear).T, *ph),
            "joint_position": lambda: (*q_rep.T, *ph),
            "motor_velocity": lambda: (*(v_rep * gear).T, *zero5),
            "joint_velocity": lambda: (*v_rep.T, *zero5),
            "desired_joint_position": lambda: (*desired.T, *ph),
            "desired_motor_position": lambda: (*(desired * gear).T, *ph),
            "desired_joint_velocity": lambda: (*v_rep.T, *zero5),
            "desired_motor_velocity": lambda: (*(v_rep * gear).T, *zero5),
            "motor_current": lambda: (*(tau * 0.8 + 0.1).T, *(0.05,) * 5),
            "motor_torque": lambda: (*tau.T, *zero5),
            "jacobian_velocity": lambda: (v_rep @ JACOBIAN_VELOCITY_MAP.T).T,
            "jacobian_force": lambda: (tau @ JACOBIAN_FORCE_MAP.T).T,
            "ee": lambda: _ee_pose(q_rep),
            "desired_ee": lambda: _ee_pose(desired),
        }
        out = np.empty((n, sum(len(columns) for _, columns, _ in STATE_BLOCKS)))
        end = 0
        for name, columns, _ in STATE_BLOCKS:
            start, end, made = end, end + len(columns), 0
            for column in values[name]() if name in values else ():
                if made < len(columns):
                    out[:, start + made] = column
                made += 1
            if name not in values or made != len(columns):
                got = "no values" if name not in values else f"{made} columns"
                raise SimError(f"state block '{name}': {got}, the layout has {len(columns)}")
            if aux_sd > 0 and len(columns) == len(CHANNELS):    # joints 4-7, grasper
                out[:, end - 5:end] += self.rng.normal(0.0, aux_sd, (5, n)).T
        return out
