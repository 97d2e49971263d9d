"""End-to-end acceptance checks.

Each test exercises one headline behaviour of the toolkit on pinned
seeds and tolerances, and emits a single ``[PASS]``/``[FAIL]`` verdict
line (replayed in the terminal summary by conftest).  The protocols are
deliberately self-contained: every expected value is either hand-derived
in the test body or computed from the generating model, never read back
from the code under test.
"""

import functools
import math
import re
import time

import numpy as np

from cablecal.core import DEFAULT_LIMITS, FULL_SCHEMA
from cablecal.data import (RecordedBag, concat, load_dataset, record,
                           save_dataset, split_and_normalize, synchronize)
from cablecal.evaluate import bench_latency, decay_curve, feature_robustness, rmse
from cablecal.models import (END_TO_END, ON_ERROR, deserialize, fit_linear,
                             fit_mlp, fit_offset, fit_poly2, serialize)
from cablecal.nn import Adam, Mlp, MlpConfig, train_mlp
from cablecal.sim import (HoldPolicy, SimSession, StateStream,
                          TrajectoryFollower, TruthStream,
                          default_error_model, noiseless_linear_model)
from cablecal.trajectory import DIRECTIONS, direction_transform, generate


def criterion(num, desc):
    """Wrap a test so it reports one [PASS]/[FAIL] line for criterion ``num``."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(num, desc, "FAIL")
                raise
            _report(num, desc, "PASS")

        return wrapper

    return deco


def _report(num, desc, status):
    line = f"[{status}] criterion {num}: {desc}"
    print(line)
    try:
        import conftest

        conftest.CRITERION_LINES.append(line)
    except ImportError:  # pragma: no cover - running outside the test dir
        pass


SPARSITIES = (1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6)


# --------------------------------------------------------------------------


@criterion(1, "zig-zag trajectories stay in limits with shared center and exact spans")
def test_criterion_01_trajectory_geometry():
    t0 = time.perf_counter()
    lim = DEFAULT_LIMITS
    ctr, rng_ = lim.center, lim.range
    # The raster fills a unit cube that is rotated to the commanded
    # direction and then shrunk to fit the limits again; with k of 3
    # joints named, every axis ends up spanning sqrt(k/3) of its range.
    frac = {1: 1 / math.sqrt(3), 2: math.sqrt(2) / math.sqrt(3), 3: 1.0}
    for d in DIRECTIONS:
        f = frac[len(re.findall(r"j(\d)", d))]
        for s in SPARSITIES:
            traj = generate(d, s)
            pts = traj.waypoints
            assert np.all(pts >= np.asarray(lim.min) - 1e-9 * rng_)
            assert np.all(pts <= np.asarray(lim.max) + 1e-9 * rng_)
            center = 0.5 * (pts.max(axis=0) + pts.min(axis=0))
            assert np.all(np.abs(center - ctr) <= 1e-9 * rng_)
            span = pts.max(axis=0) - pts.min(axis=0)
            assert np.all(np.abs(span - f * rng_) <= 1e-12 * rng_)
    assert time.perf_counter() - t0 < 10.0


@criterion(2, "direction transform matches hand-coded homogeneous matrices")
def test_criterion_02_transform_oracle():
    # Oracle transforms assembled by hand from elementary axis rotations
    # composed with the translation that recenters the cube at (1/2,)*3:
    #   j2     : +90 deg about the j3 axis
    #   j1j2   : +45 deg about the j3 axis
    #   j1j2j3 : +45 deg about j3, then ~35.26 deg (atan(1/sqrt 2)) about j2
    s2, s3 = math.sqrt(2.0), math.sqrt(3.0)
    oracle = {
        "j2": np.array([
            [0.0, -1.0, 0.0, 0.5],
            [1.0, 0.0, 0.0, 0.5],
            [0.0, 0.0, 1.0, 0.5],
            [0.0, 0.0, 0.0, 1.0],
        ]),
        "j1j2": np.array([
            [0.5, -0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0, 0.5],
            [0.0, 0.0, 1.0, 0.5],
            [0.0, 0.0, 0.0, 1.0],
        ]),
        "j1j2j3": np.array([
            [(s2 / 2) / s3, 0.5 / s3, 0.5 / s3, 0.5],
            [0.0, (s2 / 2) / s3, -(s2 / 2) / s3, 0.5],
            [-(s2 / 2) / s3, 0.5 / s3, 0.5 / s3, 0.5],
            [0.0, 0.0, 0.0, 1.0],
        ]),
    }
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-0.5, 0.5, (1000, 3))
    for d, mat in oracle.items():
        out = direction_transform(d).apply(pts)
        expected = pts @ mat[:3, :3].T + mat[:3, 3]
        assert np.max(np.abs(out - expected)) < 1e-12


@criterion(3, "linear fit recovers noiseless generating coefficients")
def test_criterion_03_noiseless_linear_recovery():
    t0 = time.perf_counter()
    em = noiseless_linear_model()
    traj = generate("j1j2j3", 1 / 3)
    # 25/100 Hz: the truth grid is a superset of the state grid, so
    # pairing is exact and no interpolation error enters the fit.
    bag = record(traj, em, seed=3, time_scale=10.0, rates=(25.0, 100.0))
    train, test = split_and_normalize(synchronize(bag), train_frac=0.8)
    lin = fit_linear(train)

    # reported = (I - P)^-1 (true + b + S tau), hence
    # error = true - reported = -(b + P @ reported + S @ tau).
    P = np.array(em.position_gain)
    S = np.array(em.stiffness_gain)
    b = np.array(em.offset)

    def relerr(est, true):
        return np.max(np.abs(est - true)) / np.max(np.abs(true))

    assert relerr(lin.weights[0:3, :], -P.T) < 1e-6
    assert relerr(lin.weights[8:11, :], -S.T) < 1e-6
    assert relerr(lin.intercept, -b) < 1e-6
    r = rmse(lin.predict_batch(test.inputs), test.targets)
    assert np.all(r < 1e-6)
    assert time.perf_counter() - t0 < 5.0


@criterion(4, "on-error and end-to-end linear predictions coincide")
def test_criterion_04_linear_mode_equivalence():
    em = default_error_model()
    traj = generate("j1j3", 1 / 3)
    bag = record(traj, em, seed=44, time_scale=20.0)
    train, test = split_and_normalize(synchronize(bag), train_frac=0.8)
    a = fit_linear(train, ON_ERROR)
    b = fit_linear(train, END_TO_END)
    for ds in (train, test):
        diff = np.abs(a.predict_batch(ds.inputs) - b.predict_batch(ds.inputs))
        assert np.max(diff) < 1e-9


@criterion(5, "MLP gradients, Adam step and seeded reproducibility are exact")
def test_criterion_05_mlp_correctness():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 5))
    Y = rng.normal(size=(12, 3))
    cfg = MlpConfig(hidden=(8, 6), epochs=1, batch_size=12, kernel_l2=1e-3,
                    kernel_l1=1e-4, bias_l2=1e-3, activity_l2=1e-4)

    # central finite differences over every parameter entry
    net = Mlp(5, 3, cfg, seed=0)
    _, grads = net.loss_and_grads(X, Y)
    worst = 0.0
    eps = 1e-6
    for p, g in zip(net.parameters(), grads):
        for idx in np.ndindex(p.shape):
            keep = p[idx]
            p[idx] = keep + eps
            lp = net.loss_and_grads(X, Y)[0]
            p[idx] = keep - eps
            lm = net.loss_and_grads(X, Y)[0]
            p[idx] = keep
            num = (lp - lm) / (2 * eps)
            rel = abs(num - g[idx]) / max(abs(num), abs(g[idx]), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4

    # single Adam step: from zero moment state the bias corrections cancel
    # the (1 - beta) factors exactly, so theta' = theta - lr g / (|g| + eps)
    net = Mlp(5, 3, cfg, seed=0)
    params = net.parameters()
    before = [p.copy() for p in params]
    _, grads = net.loss_and_grads(X, Y)
    opt = Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    opt.step(params, grads)
    for p0, g, p1 in zip(before, grads, params):
        expected = p0 - cfg.lr * g / (np.abs(g) + cfg.eps)
        assert np.max(np.abs(p1 - expected)) < 1e-12

    # fixed seed => bit-identical weights after a full training run
    cfg2 = MlpConfig(hidden=(8, 6), epochs=5, batch_size=4)
    net_a, _ = train_mlp(X, Y, cfg2, seed=7)
    net_b, _ = train_mlp(X, Y, cfg2, seed=7)
    for wa, wb in zip(net_a.parameters(), net_b.parameters()):
        assert wa.tobytes() == wb.tobytes()


@criterion(6, "residual-target MLP beats direct-target MLP on every joint and seed")
def test_criterion_06_on_error_training_advantage():
    em = default_error_model()
    traj = generate("j1j2j3", 1 / 3)
    bag = record(traj, em, seed=6, time_scale=20.0)
    train, test = split_and_normalize(synchronize(bag), train_frac=0.8)
    cfg = MlpConfig(epochs=200)
    for seed in (0, 1, 2):
        on_err = fit_mlp(train, ON_ERROR, config=cfg, seed=seed)
        e2e = fit_mlp(train, END_TO_END, config=cfg, seed=seed)
        r_on = rmse(on_err.predict_batch(test.inputs), test.targets)
        r_e2e = rmse(e2e.predict_batch(test.inputs), test.targets)
        assert np.all(r_on < r_e2e)


@criterion(7, "calibration hierarchy raw > offset > linear ~ MLP with required reductions")
def test_criterion_07_calibration_hierarchy():
    t0 = time.perf_counter()
    em = default_error_model()
    parts = []
    for k, s in enumerate((1 / 2, 1 / 3, 1 / 4)):
        traj = generate("j2j3", s)
        parts.append(synchronize(record(traj, em, seed=10 + k, time_scale=2.0)))
    train, test = split_and_normalize(concat(parts), train_frac=0.8)

    off = fit_offset(train)
    lin = fit_linear(train)
    mlp = fit_mlp(train, config=MlpConfig(epochs=200), seed=0)
    raw = rmse(test.reported, test.targets)
    r_off = rmse(off.predict_batch(test.inputs), test.targets)
    r_lin = rmse(lin.predict_batch(test.inputs), test.targets)
    r_mlp = rmse(mlp.predict_batch(test.inputs), test.targets)

    assert np.all(raw > r_off)
    assert np.all(r_off > r_lin)
    assert np.all(r_mlp <= 1.2 * r_lin)
    assert np.all(r_off <= 0.5 * raw)       # offset removes >= 50% of raw error
    assert np.all(r_lin <= 0.4 * r_off)     # learned models remove >= 60%
    assert np.all(r_mlp <= 0.4 * r_off)     # of the fixed-offset residual
    assert time.perf_counter() - t0 < 300.0


SIX_HOURS = 6 * 3600.0


def _six_hour_bag(em, policy_fn, load, seed, time_scale):
    """One continuous session built from consecutive policy chunks."""
    sess = SimSession(em, seed=seed, time_scale=time_scale)
    st_t, st_f, tr_t, tr_q = [], [], [], []
    while sess.clock < SIX_HOURS - 1e-6:
        policy = policy_fn()
        d = policy.duration if math.isfinite(policy.duration) else SIX_HOURS
        d = min(d, SIX_HOURS - sess.clock)
        state, truth = sess.run(policy, d, load=load)
        st_t.append(state.t)
        st_f.append(state.features)
        tr_t.append(truth.t)
        tr_q.append(truth.q)
    return RecordedBag(StateStream(np.concatenate(st_t), np.vstack(st_f)),
                       TruthStream(np.concatenate(tr_t), np.vstack(tr_q)),
                       FULL_SCHEMA, {"duration_s": sess.clock})


@criterion(8, "six-hour drift: idle curves flat, loaded errors grow for all models")
def test_criterion_08_drift_decay():
    em = default_error_model()
    traj = generate("j2j3", 1 / 2)

    train_bag = record(traj, em, seed=80, time_scale=2.0, load="loaded")
    train, _ = split_and_normalize(synchronize(train_bag), train_frac=0.95)
    off = fit_offset(train)
    models = {
        "offset": off,
        "linear": fit_linear(train),
        "mlp": fit_mlp(train, config=MlpConfig(epochs=200), seed=0),
    }

    loaded = synchronize(_six_hour_bag(em, lambda: TrajectoryFollower(traj),
                                       "loaded", 81, 120.0))
    idle = synchronize(_six_hour_bag(em, lambda: HoldPolicy(DEFAULT_LIMITS.center),
                                     "idle", 82, 60.0))

    for name, model in models.items():
        load_curve = np.array([r.model for r in decay_curve(model, loaded, off)])
        idle_curve = np.array([r.model for r in decay_curve(model, idle, off)])
        assert load_curve.shape[0] == 6 and idle_curve.shape[0] == 6
        # idle: flat within 15% of the per-joint mean across all 6 hours
        dev = np.abs(idle_curve - idle_curve.mean(axis=0)) / idle_curve.mean(axis=0)
        assert np.max(dev) <= 0.15
        # loaded: hour 5 strictly worse than hour 0 on every joint
        assert np.all(load_curve[5] > load_curve[0])
        if name == "offset":
            assert load_curve[5, 0] > 1.1 * load_curve[0, 0]  # j1 degradation


@criterion(9, "full-feature linear overfits short sessions; selected features stay robust")
def test_criterion_09_feature_robustness():
    em = default_error_model()
    traj = generate("j2j3", 1 / 2)
    train_bag = record(traj, em, seed=31, time_scale=2.0)
    test_bag = record(traj, em, seed=32, time_scale=2.0)
    rep = feature_robustness(train_bag, test_bag, n_train=1200, seed=0)
    by = {s.labels["fit"]: s for s in rep.scores}

    lin_full = np.mean(by["linear-full"].percentage)
    mlp_sel = np.mean(by["mlp-selected"].percentage)
    mlp_large = np.mean(by["mlp-large-full"].percentage)
    assert lin_full > 1.0                                        # worse than offset
    assert np.all(by["linear-selected"].rmse < by["offset"].rmse)  # per joint
    assert mlp_sel <= mlp_large <= lin_full


@criterion(10, "offset/linear meet the 1 kHz budget; MLP is at least 20x slower than linear")
def test_criterion_10_latency_budget():
    em = default_error_model()
    traj = generate("j1j2j3", 1 / 3)
    bag = record(traj, em, seed=7, time_scale=20.0)
    train, test = split_and_normalize(synchronize(bag), train_frac=0.8)
    off = fit_offset(train)
    lin = fit_linear(train)
    mlp = fit_mlp(train, config=MlpConfig(epochs=10), seed=0)

    reports = {name: bench_latency(m, test.inputs, n_samples=10_000, repeats=3)
               for name, m in (("offset", off), ("linear", lin), ("mlp", mlp))}
    for name in ("offset", "linear"):
        rep = reports[name]
        assert rep.n_samples == 10_000 and rep.repeats == 3
        assert all(run["p99_s"] < 1e-3 for run in rep.runs)  # every run in budget
    # stability-robust ratio: even the fastest MLP run is >= 20x the
    # slowest linear run at the median
    mlp_p50 = min(r["p50_s"] for r in reports["mlp"].runs)
    lin_p50 = max(r["p50_s"] for r in reports["linear"].runs)
    assert mlp_p50 >= 20.0 * lin_p50


@criterion(11, "stream pairing is lossless at nominal rates; files round-trip bit-identically")
def test_criterion_11_data_plumbing(tmp_path):
    em = default_error_model()
    traj = generate("j2j3", 1 / 4)
    # true 30/100 Hz grids: every state stamp is within 10 ms of a truth stamp
    bag = record(traj, em, seed=90, time_scale=1.0, duration=60.0,
                 rates=(30.0, 100.0))
    ds = synchronize(bag, tolerance=0.010)
    assert len(ds) == len(bag.state.t)

    # dataset round trip
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(ds, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.with_suffix(".json").read_bytes() == p2.with_suffix(".json").read_bytes()

    # model round trips, all four kinds
    train, _ = split_and_normalize(ds, train_frac=0.8)
    fits = (fit_offset(train), fit_linear(train),
            fit_poly2(train), fit_mlp(train, config=MlpConfig(epochs=2), seed=0))
    for k, model in enumerate(fits):
        f1, f2 = tmp_path / f"m{k}a.ccm", tmp_path / f"m{k}b.ccm"
        serialize(model, f1)
        serialize(deserialize(f1), f2)
        assert f1.read_bytes() == f2.read_bytes()


@criterion(12, "homing perturbations degrade j2 less when training spans a homing event")
def test_criterion_12_homing_study():
    em = default_error_model()
    traj = generate("j2j3", 1 / 3)
    sess = SimSession(em, seed=5, time_scale=10.0)
    segments = []
    for k in range(6):
        if k > 0:
            sess.home()
        state, truth = sess.run(TrajectoryFollower(traj))
        bag = RecordedBag(state, truth, FULL_SCHEMA, {"duration_s": sess.clock})
        segments.append(synchronize(bag))

    no_homing = fit_linear(segments[0])
    spans_one = fit_linear(concat([segments[0], segments[1]]))
    r_a, r_b = (np.array([rmse(m.predict_batch(s.inputs), s.targets) for s in segments])
                for m in (no_homing, spans_one))

    # model trained before any homing: every post-homing segment is worse on j2
    assert np.all(r_a[1:, 1] > r_a[0, 1])
    deg_a = r_a[1:, 1].mean() - r_a[0, 1]
    deg_b = r_b[1:, 1].mean() - r_b[0, 1]
    assert deg_a > 0.05
    assert deg_b < deg_a
