import copy
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablecal.core import DEFAULT_LIMITS, FULL_SCHEMA, JointLimits
from cablecal import data
from cablecal import sim as sm
from cablecal import trajectory as tj


def feat(stream, name):
    return stream.features[:, FULL_SCHEMA.index_of(name)]


def reported(stream):
    return np.stack([feat(stream, f"joint_position_j{j}") for j in (1, 2, 3)], axis=1)


def torques(stream):
    return np.stack([feat(stream, f"motor_torque_j{j}") for j in (1, 2, 3)], axis=1)


def short_traj():
    return tj.generate("j2j3", 0.5, step=0.02)


def session(policy_or_traj, em, **kwargs):
    """The (state, truth) streams of one recorded session."""
    bag = data.record(policy_or_traj, em, **kwargs)
    return bag.state, bag.truth


# --- identity / offset-only oracles ---------------------------------------

def test_zero_model_reports_truth():
    state, truth = session(short_traj(), sm.CableErrorModel(),
                           rates=(50.0, 50.0), seed=1, duration=10.0)
    assert np.array_equal(state.t, truth.t)
    assert np.max(np.abs(reported(state) - truth.q)) < 1e-12


def test_offset_only_model():
    em = sm.CableErrorModel(offset=(1.0, -2.0, 3.0))
    state, truth = session(short_traj(), em, rates=(50.0, 50.0),
                           seed=1, duration=10.0)
    err = reported(state) - truth.q
    assert np.max(np.abs(err - [1.0, -2.0, 3.0])) < 1e-12


def test_noiseless_linear_identity():
    # with hysteresis/drift/noise off, error == offset + P@rep + S@tau exactly
    em = sm.noiseless_linear_model()
    state, truth = session(short_traj(), em, rates=(40.0, 40.0),
                           seed=3, duration=30.0)
    err = reported(state) - truth.q
    pred = em.b + reported(state) @ em.P.T + torques(state) @ em.S.T
    assert np.max(np.abs(err - pred)) < 1e-9


# --- determinism -----------------------------------------------------------

def test_bit_identical_given_seed():
    em = sm.default_error_model()
    a = session(short_traj(), em, seed=7, duration=20.0)
    b = session(short_traj(), em, seed=7, duration=20.0)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[0].t, b[0].t)
    assert np.array_equal(a[1].q, b[1].q)


def test_seed_changes_noise():
    em = sm.default_error_model()
    a = session(short_traj(), em, seed=7, duration=20.0)
    b = session(short_traj(), em, seed=8, duration=20.0)
    assert not np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].q, b[1].q)  # truth is noise-free


def test_truth_independent_of_error_model():
    a = session(short_traj(), sm.CableErrorModel(), seed=1, duration=20.0)
    b = session(short_traj(), sm.default_error_model(), seed=1, duration=20.0)
    assert np.array_equal(a[1].q, b[1].q)


# --- hysteresis -------------------------------------------------------------

def test_hysteresis_jump_on_reversal():
    em = sm.CableErrorModel(hysteresis_width=(0.5, 0.0, 0.0))
    # triangle wave on j1: forward then backward
    pts = np.array([[0.0, 45, 125], [30.0, 45, 125], [0.0, 45, 125]])
    traj = tj.Trajectory(pts, "j1", 0.5, DEFAULT_LIMITS)
    state, truth = session(traj, em, rates=(50.0, 50.0), seed=0)
    err = reported(state)[:, 0] - truth.q[:, 0]
    tau1 = torques(state)[:, 0]
    fric = sm.TORQUE_FRICTION[0]
    base = err - em.S[0, 0] * tau1  # remove stiffness-coupled part
    fwd = base[(state.t > 1.0) & (state.t < 8.0)]
    bwd = base[state.t > 12.0]
    assert np.allclose(fwd, 0.5, atol=1e-9)
    assert np.allclose(bwd, -0.5, atol=1e-9)


def test_no_hysteresis_before_motion_starts():
    em = sm.CableErrorModel(hysteresis_width=(0.5, 0.5, 0.5))
    sess = sm.SimSession(em, seed=0)
    state, truth = sess.run(sm.HoldPolicy([45, 45, 125]), duration=5.0, load="idle")
    err = reported(state) - truth.q[: len(state.t)]
    # dirsign stays 0 while idle: no hysteresis term, no friction torque sign
    assert np.max(np.abs(err)) < 1e-12


# --- drift -------------------------------------------------------------------

def test_drift_matches_analytic_integral():
    em = sm.default_error_model()
    prof = sm.LoadProfile(((0.0, 7200.0, 500.0),))
    t = np.array([0.0, 1800.0, 3600.0, 7200.0])
    got = prof.drift_at(t, em)
    want = np.outer(t / 3600.0, em.drift_rate_loaded)
    assert np.max(np.abs(got - want)) < 1e-12


def test_drift_monotone_in_load():
    em = sm.default_error_model()
    t = np.linspace(0, 6 * 3600.0, 25)
    loaded = sm.LoadProfile(((0.0, t[-1], 500.0),)).drift_at(t, em)
    unloaded = sm.LoadProfile(((0.0, t[-1], 0.0),)).drift_at(t, em)
    assert np.all(loaded >= unloaded - 1e-15)


def test_drift_interpolates_between_loads():
    em = sm.default_error_model()
    r250 = em.drift_rate_per_s(250.0)
    mid = 0.5 * (np.array(em.drift_rate_unloaded) + np.array(em.drift_rate_loaded)) / 3600.0
    assert np.allclose(r250, mid)
    assert np.allclose(em.drift_rate_per_s("idle"), np.array(em.drift_rate_idle) / 3600.0)


@pytest.mark.parametrize("name, grams", [("unloaded", 0.0), ("loaded", 500.0)])
def test_drift_rate_takes_load_names_as_run_does(name, grams):
    em = sm.default_error_model()
    assert np.array_equal(em.drift_rate_per_s(name), em.drift_rate_per_s(grams))
    held = sm.HoldPolicy([45, 45, 125])
    runs = [sm.SimSession(em, seed=2).run(held, duration=600.0, load=load)[0]
            for load in (name, grams)]
    assert np.array_equal(runs[0].features, runs[1].features)


def test_idle_accrues_idle_rate_only():
    em = replace(sm.default_error_model(), drift_rate_idle=(1.0, 0.0, 0.0))
    prof = sm.LoadProfile(((0.0, 3600.0, "idle"),))
    got = prof.drift_at(np.array([3600.0]), em)
    assert got[0, 0] == pytest.approx(1.0)
    assert got[0, 1] == got[0, 2] == 0.0


# --- homing ------------------------------------------------------------------

def test_homing_zero_sd_is_noop():
    em = replace(sm.default_error_model(), homing_offset_sd=(0.0, 0.0, 0.0))
    out = sm.apply_homing(em, np.random.default_rng(0))
    assert out == em


def test_homing_perturbs_only_offsets():
    em = sm.default_error_model()
    out = sm.apply_homing(em, np.random.default_rng(1))
    assert out.offset != em.offset
    assert out.position_gain == em.position_gain
    assert out.stiffness_gain == em.stiffness_gain
    assert out.noise_sd == em.noise_sd


def test_session_homing_leaves_truth_untouched():
    em = sm.default_error_model()
    pol = sm.RandomSinusoidPolicy(seed=5, horizon=40.0)
    s1 = sm.SimSession(em, seed=2)
    s1.run(pol, duration=20.0)
    s1.home()
    _, truth_after = s1.run(pol, duration=20.0)

    s2 = sm.SimSession(em, seed=2)
    s2.run(pol, duration=20.0)
    _, truth_plain = s2.run(pol, duration=20.0)
    assert np.array_equal(truth_after.q, truth_plain.q)


# --- random policy ------------------------------------------------------------

def test_random_policy_deterministic():
    a = sm.RandomSinusoidPolicy(seed=9, horizon=60.0)
    b = sm.RandomSinusoidPolicy(seed=9, horizon=60.0)
    t = np.linspace(0, 60, 500)
    assert np.array_equal(a.positions(t), b.positions(t))


def test_random_policy_covers_limits():
    pol = sm.RandomSinusoidPolicy(seed=4, horizon=1200.0)
    t = np.arange(0, 1200.0, 0.2)
    q = pol.positions(t)
    lim = DEFAULT_LIMITS
    for j in range(3):
        r = lim.range[j]
        assert q[:, j].min() < lim.min[j] + 0.05 * r
        assert q[:, j].max() > lim.max[j] - 0.05 * r
        assert q[:, j].min() >= lim.min[j] - 1e-9
        assert q[:, j].max() <= lim.max[j] + 1e-9


def test_random_policy_velocity_bounded():
    pol = sm.RandomSinusoidPolicy(seed=4, horizon=300.0)
    v = pol.velocities(np.arange(0, 300.0, 0.05))
    for j in range(3):
        assert np.max(np.abs(v[:, j])) <= tj.DEFAULT_SPEEDS[j] + 1e-9


def test_limit_violation_raises():
    small = JointLimits((20, 20, 50), (70, 70, 200))
    with pytest.raises(sm.LimitViolationError):
        session(short_traj(), sm.CableErrorModel(), seed=0,
                limits=small, duration=30.0)


def test_nan_position_is_a_limit_violation():
    # NaN compares False both ways, so only an in-bounds test refuses it
    with pytest.raises(sm.LimitViolationError, match="j1"):
        sm.SimSession(sm.default_error_model()).run(
            sm.HoldPolicy([float("nan"), 45, 125]), duration=1.0)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0])
def test_random_policy_rejects_bad_horizon(horizon):
    with pytest.raises(sm.SimError, match="horizon"):
        sm.RandomSinusoidPolicy(seed=1, horizon=horizon)


# --- torque proxy ---------------------------------------------------------------

def test_torque_monotone_in_load_and_extension():
    q = np.array([[30.0, 50.0, 100.0]])
    d = np.zeros((1, 3))
    t0 = sm.motor_torques(q, d, 0.0)
    t500 = sm.motor_torques(q, d, 500.0)
    assert np.all(t500 > t0)
    q_ext = q.copy()
    q_ext[0, 2] = 200.0
    assert np.all(sm.motor_torques(q_ext, d, 0.0) > t0)


@pytest.mark.parametrize("first", ["loaded", "idle"])
def test_idle_chunk_torques_carry_no_load(first):
    pol = sm.RandomSinusoidPolicy(seed=4, horizon=100.0)
    chunks = {}
    for load in ("idle", 0.0, "loaded"):
        sess = sm.SimSession(sm.default_error_model(), seed=1)
        sess.run(pol, duration=10.0, load=first)
        chunks[load] = torques(sess.run(pol, duration=10.0, load=load)[0])
    assert np.array_equal(chunks["idle"], chunks[0.0])
    assert not np.array_equal(chunks["loaded"], chunks[0.0])


def _forward_fill_sign_ref(v, initial):
    """The original per-column loop form of ``sim._forward_fill_sign``."""
    s = np.sign(v)
    out = np.empty_like(s)
    for j in range(s.shape[1]):
        col = s[:, j]
        idx = np.arange(len(col))
        has = col != 0
        last = np.maximum.accumulate(np.where(has, idx, -1))
        out[:, j] = np.where(last >= 0, col[np.maximum(last, 0)], initial[j])
    return out


@settings(max_examples=100, deadline=None)
@given(v=st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 0.0, 1.5, -2.0, 1e-300])] * 3),
                  max_size=20),
       initial=st.tuples(*[st.sampled_from([-1.0, 0.0, 1.0])] * 3))
def test_forward_fill_sign_matches_reference_loop(v, initial):
    v = np.array(v, dtype=float).reshape(-1, 3)
    got = sm._forward_fill_sign(v, np.array(initial))
    want = _forward_fill_sign_ref(v, np.array(initial))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_torque_carries_direction_sign():
    q = np.array([[30.0, 50.0, 100.0]])
    up = sm.motor_torques(q, np.ones((1, 3)), 0.0)
    dn = sm.motor_torques(q, -np.ones((1, 3)), 0.0)
    assert np.allclose(up - dn, 2 * sm.TORQUE_FRICTION)


# --- streams, rates, time scale -------------------------------------------------

def test_dual_rates_and_counts():
    state, truth = session(short_traj(), sm.CableErrorModel(),
                           rates=(30.0, 100.0), seed=0, duration=20.0)
    assert len(state.t) == 600
    assert len(truth.t) == 2000
    assert np.all(np.diff(state.t) > 0)
    assert np.all(np.diff(truth.t) > 0)


def test_time_scale_thins_samples_keeps_clock():
    em = sm.default_error_model()
    pol = sm.HoldPolicy([45, 45, 125])
    s1 = sm.SimSession(em, seed=0, time_scale=1.0)
    s10 = sm.SimSession(em, seed=0, time_scale=10.0)
    a, _ = s1.run(pol, duration=100.0, load=500.0)
    b, _ = s10.run(pol, duration=100.0, load=500.0)
    assert len(b.t) == len(a.t) // 10
    assert s1.clock == s10.clock == 100.0
    # sample grids cover the same simulated clock span
    assert np.min(np.abs(a.t - b.t[-1])) < 1e-9


def test_chunked_session_continues_clock_and_sequence():
    em = sm.default_error_model()
    sess = sm.SimSession(em, seed=0)
    pol = sm.RandomSinusoidPolicy(seed=1, horizon=100.0)
    s1, _ = sess.run(pol, duration=10.0)
    s2, _ = sess.run(pol, duration=10.0)
    assert s2.t[0] >= s1.t[-1]
    seq1 = feat(s1, "last_sequence")
    seq2 = feat(s2, "last_sequence")
    assert seq2[0] == seq1[-1] + 1


def test_drift_continues_across_chunks():
    # pure drift model (no position gain, so no implicit-solve amplification)
    em = sm.CableErrorModel(drift_rate_unloaded=(3600.0, 0.0, 0.0))
    pol = sm.HoldPolicy([45, 45, 125])
    sess = sm.SimSession(em, seed=0)
    a, ta = sess.run(pol, duration=10.0)
    b, tb = sess.run(pol, duration=10.0)
    err_a = reported(a)[:, 0] - ta.q[: len(a.t), 0]
    err_b = reported(b)[:, 0] - tb.q[: len(b.t), 0]
    # drift rate 1 unit/s (3600/h): second chunk starts exactly 10 units higher
    assert err_b[0] - err_a[0] == pytest.approx(10.0, abs=1e-9)


# --- run's error arithmetic -------------------------------------------------------

def _reported_ref(sess, policy, duration, load):
    """The reported positions of the next ``sess.run(policy, duration, load)``
    by the original out-of-place formulas, the load as one gram value per
    row, from the session as it stands before the call."""
    em, rng = sess.error_model, copy.deepcopy(sess.rng)
    load, t0 = em.grams(load), sess.clock
    profile = sm.LoadProfile((*sess._load_history, (t0, t0 + duration, load)))
    dt = sess.time_scale / sess.rates[0]
    ts = t0 + np.arange(max(int(math.floor(duration / dt)), 1)) * dt
    q = policy.positions(ts - t0)
    dirsign = sm._forward_fill_sign(policy.velocities(ts - t0), sess._last_dir)
    q1, q2 = np.radians(q[:, 0]), np.radians(q[:, 1])
    grav = np.stack([np.ones_like(q1), np.sin(q1), np.cos(q1), np.sin(q2), np.cos(q2),
                     q[:, 2] / sm.EXT_REF_MM], axis=1) @ sm.TORQUE_GRAVITY.T
    grams = np.full(len(ts), 0.0 if load == "idle" else float(load))
    tau = (1.0 + grams / sm.TORQUE_DOUBLING_G)[:, None] * grav + dirsign * sm.TORQUE_FRICTION
    drift = profile.drift_at(ts, em)
    noise = rng.normal(0.0, 1.0, (len(ts), 3)) * np.array(em.noise_sd)
    rhs = q + em.b + tau @ em.S.T + dirsign * np.array(em.hysteresis_width) + drift + noise
    return rhs @ np.linalg.inv(np.eye(3) - em.P).T


@pytest.mark.parametrize("time_scale", [1.0, 2.5])
@pytest.mark.parametrize("aux_sd", [0.05, 0.0], ids=["aux-noise", "no-aux-noise"])
def test_run_reports_the_reference_sum_bit_for_bit(aux_sd, time_scale):
    em = replace(sm.default_error_model(), aux_noise_sd=aux_sd)
    sess = sm.SimSession(em, seed=13, time_scale=time_scale)
    pol = sm.RandomSinusoidPolicy(seed=4, horizon=100.0)
    for load in ("unloaded", "loaded", "idle", 250.0):     # one chunk each, homed between
        want = _reported_ref(sess, pol, 10.0, load)
        state, _ = sess.run(pol, duration=10.0, load=load)
        assert reported(state).tobytes() == want.tobytes(), load
        sess.home()


def test_record_peaks_within_one_and_two_fifths_state_matrices():
    pol = sm.RandomSinusoidPolicy(seed=5, horizon=110.0)
    tracemalloc.start()
    try:
        bag = data.record(pol, sm.default_error_model(), duration=100.0, load="loaded")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the state matrix is written column by column into one preallocated
    # array; writing whole blocks, each made apart, peaks at about 1.54
    # matrices, and joining blocks made apart at about 2.3
    assert bag.state.features.shape == (3000, FULL_SCHEMA.dim_full)
    assert peak <= 1.40 * bag.state.features.nbytes


# --- feature block ---------------------------------------------------------------

def test_feature_schema_blocks():
    em = sm.default_error_model()
    state, _ = session(short_traj(), em, seed=0, duration=20.0)
    assert state.features.shape[1] == 138
    sel = state.features[:, FULL_SCHEMA.selected_indices()]
    assert sel.shape[1] == 16
    assert np.array_equal(sel[:, :3], reported(state))
    assert np.array_equal(sel[:, 8:11], torques(state))
    assert np.array_equal(feat(state, "timestamp"), state.t)


def test_placeholders_constant_without_aux_noise():
    em = sm.noiseless_linear_model()
    state, _ = session(short_traj(), em, seed=0, duration=20.0)
    for name in ("joint_position_j5", "motor_torque_grasper", "encoder_value_j7"):
        col = feat(state, name)
        assert np.all(col == col[0])


def test_placeholders_noisy_with_aux_noise():
    em = sm.default_error_model()
    state, _ = session(short_traj(), em, seed=0, duration=20.0)
    assert np.std(feat(state, "joint_position_j5")) > 0


def test_desired_positions_derive_from_reported():
    em = sm.default_error_model()
    state, _ = session(short_traj(), em, seed=0, duration=20.0)
    v = np.stack([feat(state, f"joint_velocity_j{j}") for j in (1, 2, 3)], axis=1)
    want = reported(state) + sm.LOOKAHEAD_S * v
    got = np.stack([feat(state, f"desired_joint_position_j{j}") for j in (1, 2, 3)], axis=1)
    assert np.max(np.abs(got - want)) < 1e-12


def test_monotone_leak_features_present():
    # timestamp and last_sequence are strictly increasing (the deliberately
    # dangerous columns for full-feature robustness studies)
    em = sm.default_error_model()
    state, _ = session(short_traj(), em, seed=0, duration=20.0)
    assert np.all(np.diff(feat(state, "timestamp")) > 0)
    assert np.all(np.diff(feat(state, "last_sequence")) > 0)


def test_invalid_session_params():
    em = sm.CableErrorModel()
    with pytest.raises(sm.SimError):
        sm.SimSession(em, rates=(0.0, 100.0))
    with pytest.raises(sm.SimError):
        sm.SimSession(em, time_scale=0.5)
    with pytest.raises(sm.SimError):
        sm.SimSession(em).run(sm.HoldPolicy([1, 1, 1]), duration=-5.0)
    with pytest.raises(sm.SimError):
        sm.CableErrorModel(noise_sd=(-1.0, 0.0, 0.0))


def test_array_constants_are_read_only():
    arrays = {k: v for k, v in vars(sm).items() if isinstance(v, np.ndarray)}
    assert {"GEAR_RATIO", "TORQUE_GRAVITY", "JACOBIAN_FORCE_MAP"} <= set(arrays)
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0
        assert a.flat[0] != 1.0, name


@pytest.mark.parametrize("load, want", [
    ("unloaded", "unloaded"), ("loaded", "loaded"), ("idle", "idle"),
    (0, 0.0), (250, 250.0), ("500", 500.0), (12.5, 12.5)])
def test_check_load_accepts_named_loads_and_grams(load, want):
    got = sm.check_load(load)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("load", ["heavy", "", -5, -0.5, float("nan"),
                                  float("inf"), "inf", True, None, [500]])
def test_check_load_rejects_anything_else(load):
    with pytest.raises(sm.SimError, match="load"):
        sm.check_load(load)
    with pytest.raises(sm.SimError, match="load"):
        sm.SimSession(sm.CableErrorModel()).run(
            sm.HoldPolicy([45, 45, 125]), duration=1.0, load=load)


def test_load_profile_validation():
    with pytest.raises(sm.SimError):
        sm.LoadProfile(((0.0, 10.0, 0.0), (5.0, 15.0, 0.0)))  # overlap
    with pytest.raises(sm.SimError):
        sm.LoadProfile(((10.0, 5.0, 0.0),))  # inverted


# --- every feature column, by name -------------------------------------------

def _channel_blocks(q, v, desired, tau):
    """The twelve 8-channel blocks in the order their placeholder channels
    draw aux noise: (prefix, the three joints' values, the five fills)."""
    gear, counts, enc_off = sm.GEAR_RATIO, sm.COUNTS_PER_UNIT, sm.ENCODER_OFFSET_COUNTS
    ph, zero5 = sm.PLACEHOLDER_POSITIONS, (0.0,) * 5
    return [
        ("encoder_value", q * counts + enc_off, ph),
        ("encoder_offset", np.tile(enc_off, (len(q), 1)), zero5),
        ("motor_position", q * gear, ph),
        ("joint_position", q, ph),
        ("motor_velocity", v * gear, zero5),
        ("joint_velocity", v, zero5),
        ("desired_joint_position", desired, ph),
        ("desired_motor_position", desired * gear, ph),
        ("desired_joint_velocity", v, zero5),
        ("desired_motor_velocity", v * gear, zero5),
        ("motor_current", tau * 0.8 + 0.1, (0.05,) * 5),
        ("motor_torque", tau, zero5),
    ]


def _expected_columns(ts, q, tau, seq, rng, aux_sd) -> dict:
    """Every FULL_SCHEMA column by name, from its definition; ``rng`` is the
    session's generator as it stood before the features were drawn."""
    n = len(ts)
    v = np.gradient(q, ts, axis=0)
    desired = q + sm.LOOKAHEAD_S * v
    cols = {
        "timestamp": ts,
        "run_level": np.full(n, sm.RUN_LEVEL),
        "sublevel": np.zeros(n),
        "last_sequence": seq + np.arange(n, dtype=float),
        "arm_type": np.full(n, sm.ARM_TYPE),
        "grasper_desired": np.full(n, sm.GRASPER_DESIRED),
    }
    for prefix, main, fill in _channel_blocks(q, v, desired, tau):
        for j in range(3):
            cols[f"{prefix}_j{j + 1}"] = main[:, j]
        for ch, value in zip(("j4", "j5", "j6", "j7", "grasper"), fill):
            noise = rng.normal(0.0, aux_sd, n) if aux_sd > 0 else 0.0
            cols[f"{prefix}_{ch}"] = np.full(n, value) + noise
    # the maps are fixed draws, the same floats on every release
    jv = v @ np.random.default_rng(101).uniform(-1, 1, (6, 3)).T
    jf = tau @ np.random.default_rng(102).uniform(-1, 1, (6, 3)).T
    for i in range(6):
        cols[f"jacobian_velocity_{i}"] = jv[:, i]
        cols[f"jacobian_force_{i}"] = jf[:, i]
    for which, joints in (("ee", q), ("desired_ee", desired)):
        # insertion r rotated by a about the base axis and b about the elevated one
        a, b, r = np.radians(joints[:, 0]), np.radians(joints[:, 1]), joints[:, 2]
        ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
        rot = ((ca * cb, -sa, ca * sb),
               (sa * cb, ca, sa * sb),
               (-sb, np.zeros(n), cb))
        for ax, col in zip("xyz", (r * sb * ca, r * sb * sa, -r * cb)):
            cols[f"{which}_pos_{ax}"] = col
        for i in range(3):
            for j in range(3):
                cols[f"{which}_rot_{i}{j}"] = rot[i][j]
    return cols


@pytest.mark.parametrize("edit, message", [
    (lambda blocks: blocks + (("spare", ("spare_0",), False),),
     "state block 'spare': no values, the layout has 1"),
    (lambda blocks: tuple((n, c[:5] if n == "jacobian_force" else c, s)
                          for n, c, s in blocks),
     "state block 'jacobian_force': 6 columns, the layout has 5"),
], ids=["missing-values", "width"])
def test_features_refuse_a_block_the_table_and_values_disagree_on(
        monkeypatch, edit, message):
    monkeypatch.setattr(sm, "STATE_BLOCKS", edit(sm.STATE_BLOCKS))
    with pytest.raises(sm.SimError, match=re.escape(message)):
        sm.SimSession(sm.default_error_model()).run(sm.HoldPolicy([45, 45, 125]),
                                                    duration=1.0)


@pytest.mark.parametrize("em", [sm.default_error_model(), sm.noiseless_linear_model()],
                         ids=["aux-noise", "no-aux-noise"])
def test_every_feature_column_matches_its_definition(monkeypatch, em):
    seen = {}
    features = sm.SimSession._features

    def spy(self, ts, q_rep, tau):
        seen.update(ts=ts, q=q_rep, tau=tau, seq=self._seq,
                    rng=copy.deepcopy(self.rng))
        return features(self, ts, q_rep, tau)

    monkeypatch.setattr(sm.SimSession, "_features", spy)
    sess = sm.SimSession(em, seed=11)
    pol = sm.RandomSinusoidPolicy(seed=4, horizon=100.0)
    sess.run(pol, duration=5.0)
    state, _ = sess.run(pol, duration=10.0, load="loaded")   # seq starts > 0
    assert seen["seq"] == 150
    want = _expected_columns(seen["ts"], seen["q"], seen["tau"], seen["seq"],
                             seen["rng"], em.aux_noise_sd)
    assert sorted(want) == sorted(FULL_SCHEMA.names)
    assert state.features.shape == (300, FULL_SCHEMA.dim_full)
    for i, name in enumerate(FULL_SCHEMA.names):
        assert np.array_equal(state.features[:, i], want[name]), name
