"""Evaluation-layer tests: metrics, bucketing, sweeps and the latency bench.

Metric oracles are hand-computed. Sweep/robustness tests run the simulator
at high time-scale so they stay fast; the expensive end-to-end protocols
live in the acceptance suite.
"""

import csv
import json

import numpy as np
import pytest

from cablecal.config import Config, EvalConfig, TrajectoryConfig
from cablecal.core import FULL_SCHEMA, _replacing, write_json
from cablecal.data import Dataset, record, synchronize
from cablecal.evaluate import (EvalError, LatencyReport, RmseReport, bench_latency,
                               decay_curve, direction_sweep, evaluate_model,
                               feature_robustness, rmse, segment_rmse,
                               write_report)
from cablecal.models import (FixedOffsetModel, fit_linear, fit_mlp,
                             fit_offset)
from cablecal.nn import MlpConfig
from cablecal.sim import CableErrorModel, default_error_model, noiseless_linear_model
from cablecal.trajectory import generate

REP = (0, 1, 2)


def make_dataset(err, t=None, seed=0):
    """Dataset with inputs random, reported = position columns, truth offset by err."""
    err = np.atleast_2d(np.asarray(err, dtype=float))
    n = len(err)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 16)) * 10.0 + 20.0
    reported = X[:, list(REP)].copy()
    t = np.arange(n) * 0.03 if t is None else np.asarray(t, dtype=float)
    return Dataset(t, X, reported + err, reported, FULL_SCHEMA)


def zero_model():
    return FixedOffsetModel("on-error", FULL_SCHEMA, np.empty((0, 3)), [0.0, 0.0, 0.0])


# --------------------------------------------------------------------------
# rmse


def test_rmse_zero_when_exact():
    a = np.random.default_rng(0).normal(size=(40, 3))
    assert np.array_equal(rmse(a, a), np.zeros(3))


def test_rmse_constant_error():
    truth = np.zeros((25, 3))
    assert np.allclose(rmse(truth + 1.0, truth), (1.0, 1.0, 1.0))


def test_rmse_alternating_signs_has_zero_mean_but_unit_rmse():
    n = 30
    err = np.tile([[1.0], [-1.0]], (n // 2, 3))
    truth = np.zeros((n, 3))
    assert np.allclose(err.mean(axis=0), 0.0)
    assert np.allclose(rmse(truth + err, truth), (1.0, 1.0, 1.0))


def test_rmse_hand_computed():
    pred = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 1.0]])
    truth = np.zeros((2, 3))
    want = (np.sqrt((9 + 16) / 2), 0.0, 1.0)
    assert np.allclose(rmse(pred, truth), want)


def test_rmse_shape_mismatch():
    with pytest.raises(ValueError):
        rmse(np.zeros((3, 3)), np.zeros((4, 3)))


# --------------------------------------------------------------------------
# reports


def test_percentage_uses_fixed_offset_denominator():
    rep = RmseReport(raw=np.array([10.0, 10.0, 10.0]),
                     fixed_offset=np.array([2.0, 4.0, 5.0]),
                     model=np.array([1.0, 1.0, 1.0]), n_samples=100)
    assert np.allclose(rep.percentage, (0.5, 0.25, 0.2))


def test_negative_rmse_rejected():
    with pytest.raises(ValueError):
        RmseReport(raw=np.array([-1.0, 0.0, 0.0]),
                   fixed_offset=np.ones(3), model=np.ones(3), n_samples=1)


def test_evaluate_model_baselines():
    ds = make_dataset(np.full((200, 3), [1.0, -2.0, 0.5]))
    off = fit_offset(ds)
    rep = evaluate_model(off, ds, off)
    assert np.allclose(rep.raw, (1.0, 2.0, 0.5))
    assert np.allclose(rep.model, 0.0, atol=1e-12)
    assert np.allclose(rep.model, rep.fixed_offset)
    assert rep.n_samples == 200
    rows = rep.to_rows()
    assert len(rows) == 3 and rows[0]["joint"] == "j1"


# --------------------------------------------------------------------------
# decay curves


def segment_errors():
    """90 rows in hour buckets 0, 1 and 3 with distinct error levels."""
    t = np.concatenate([np.linspace(0, 3000, 30),
                        np.linspace(3600, 6600, 30),
                        np.linspace(3 * 3600, 3 * 3600 + 3000, 30)])
    err = np.zeros((90, 3))
    err[:30, 0] = 1.0
    err[30:60, 0] = 2.0
    err[60:, 0] = 0.5
    return t, err


def test_decay_curve_buckets_and_absent_hours():
    t, err = segment_errors()
    ds = make_dataset(err, t=t)
    reports = decay_curve(zero_model(), ds, zero_model())
    assert [r.bucket_hour for r in reports] == [0, 1, 3]  # hour 2 absent
    assert [r.n_samples for r in reports] == [30, 30, 30]
    assert np.allclose([r.model[0] for r in reports], [1.0, 2.0, 0.5])
    # zero-offset model == raw by construction
    for r in reports:
        assert np.allclose(r.model, r.raw)


def test_decay_hour0_matches_whole_window_rmse():
    t, err = segment_errors()
    ds = make_dataset(err, t=t)
    first = decay_curve(zero_model(), ds, zero_model())[0]
    sel = ds.t - ds.t[0] < 3600.0
    want = rmse(ds.reported[sel], ds.targets[sel])
    assert np.allclose(first.raw, want)


def test_decay_buckets_are_left_closed():
    t = np.array([0.0, 3599.999, 3600.0, 7199.0])
    err = np.zeros((4, 3))
    ds = make_dataset(err, t=t)
    reports = decay_curve(zero_model(), ds, zero_model())
    assert [r.bucket_hour for r in reports] == [0, 1]
    assert [r.n_samples for r in reports] == [2, 2]  # 3600.0 goes to bucket 1


# --------------------------------------------------------------------------
# latency


def test_bench_latency_offset_report():
    ds = make_dataset(np.zeros((50, 3)))
    m = fit_offset(ds)
    rep = bench_latency(m, ds.inputs, n_samples=1500, repeats=3)
    assert rep.p50_s <= rep.p95_s <= rep.p99_s
    assert rep.p50_s > 0
    assert rep.passed and all(r["passed"] for r in rep.runs)
    assert rep.throughput_hz > rep.budget_hz
    assert len(rep.runs) == 3
    row = rep.to_rows()[0]
    assert row["model"] == "offset" and row["passed"]


def test_bench_latency_mlp_slower_than_linear():
    ds = make_dataset(np.random.default_rng(3).normal(size=(300, 3)))
    lin = fit_linear(ds)
    mlp = fit_mlp(ds, config=MlpConfig(hidden=(100, 100), epochs=1), seed=0)
    r_lin = bench_latency(lin, ds.inputs[:40], n_samples=300, repeats=1)
    r_mlp = bench_latency(mlp, ds.inputs[:40], n_samples=300, repeats=1)
    assert r_mlp.p50_s > 3.0 * r_lin.p50_s


@pytest.mark.parametrize("rows, n_samples", [(1000, 300), (1000, 150), (120, 300)])
def test_bench_latency_calls_predict_on_rows_in_their_order(rows, n_samples):
    # call i reads row i % len(X): two repeats of 200 warm-up calls and
    # n_samples timed ones, each a list of the row's Python floats
    ds = make_dataset(np.zeros((rows, 3)))
    X, m, seen = ds.inputs, fit_offset(ds), []
    object.__setattr__(m, "predict", seen.append)
    bench_latency(m, X, n_samples=n_samples, repeats=2)
    calls = [i % rows for i in [*range(200), *range(n_samples)] * 2]
    assert seen == [X[i].tolist() for i in calls]
    assert all(type(v) is float for row in seen for v in row)


def test_bench_latency_validation():
    ds = make_dataset(np.zeros((5, 3)))
    m = fit_offset(ds)
    with pytest.raises(ValueError):
        bench_latency(m, ds.inputs, n_samples=0)
    with pytest.raises(ValueError):
        bench_latency(m, np.zeros((0, 16)))


# --------------------------------------------------------------------------
# direction sweep


def test_direction_sweep_table_shape_and_exact_linear():
    cfg = Config(error_model=noiseless_linear_model(),
                 trajectory=TrajectoryConfig(sparsities=(1 / 2,)),
                 eval=EvalConfig(time_scale=15.0, load="unloaded"))
    table = direction_sweep(cfg, directions=("j1", "j2"), seed=1)
    labels = [(s.labels["direction"], s.labels["model"]) for s in table.scores]
    assert labels == [("j1", "offset"), ("j1", "linear"),
                      ("j2", "offset"), ("j2", "linear")]
    cell = dict(zip(labels, table.scores))
    for d in ("j1", "j2"):
        off, lin = cell[d, "offset"], cell[d, "linear"]
        assert np.allclose(off.percentage, 1.0)
        assert np.all(lin.rmse < 1e-6)       # exactly linear error model
        assert np.all(lin.rmse <= off.rmse)
        assert off.n_train > off.n_test > 0
    rows = table.to_rows()
    assert len(rows) == 12 and {"direction", "model", "joint", "rmse"} <= set(rows[0])


def test_sweep_gapless_direction_not_worse_for_its_joint():
    # error depends only on q1 -> the direction sweeping j1 continuously
    # must not lose to directions with j1 raster gaps
    em = CableErrorModel(position_gain=((0.03, 0.0, 0.0),) + ((0.0,) * 3,) * 2,
                         noise_sd=(0.05, 0.05, 0.05))
    cfg = Config(error_model=em, trajectory=TrajectoryConfig(sparsities=(1 / 2,)),
                 eval=EvalConfig(time_scale=10.0, load="unloaded"))
    table = direction_sweep(cfg, directions=("j1", "j2", "j3", "j2j3"), seed=3)
    j1_rmse = {s.labels["direction"]: s.rmse[0] for s in table.scores
               if s.labels["model"] == "linear"}
    for gap_dir in ("j2", "j3", "j2j3"):
        assert j1_rmse["j1"] <= 1.15 * j1_rmse[gap_dir]


def test_direction_sweep_refuses_an_empty_direction_list():
    with pytest.raises(EvalError, match="directions must be a list of at least "
                                        r"one direction, got \(\)"):
        direction_sweep(Config(), directions=())


# --------------------------------------------------------------------------
# feature robustness


def tiny_bags():
    traj = generate("j2j3", 1 / 2)
    train = record(traj, default_error_model(), seed=11, time_scale=30.0)
    test = record(traj, default_error_model(), seed=12, time_scale=30.0)
    return train, test


def test_feature_robustness_report_structure():
    train, test = tiny_bags()
    rep = feature_robustness(
        train, test, seed=0,
        mlp_config=MlpConfig(hidden=(8,), epochs=10, batch_size=64),
        large_config=MlpConfig(hidden=(16,), epochs=5, batch_size=64,
                               kernel_l1=1e-5, bias_l2=1e-4, activity_l2=1e-5))
    names = [s.labels["fit"] for s in rep.scores]
    assert names == ["offset", "linear-selected", "linear-full",
                     "mlp-selected", "mlp-large-full"]
    masks = {s.labels["fit"]: s.labels["mask"] for s in rep.scores}
    assert masks["linear-full"] == "full138" and masks["mlp-selected"] == "selected16"
    assert np.allclose(rep.scores[names.index("offset")].percentage, 1.0)
    for s in rep.scores:
        assert np.all(s.rmse >= 0) and s.n_test > 0
    assert len(rep.to_rows()) == 15


def test_feature_robustness_subsampling():
    train, test = tiny_bags()
    rep = feature_robustness(
        train, test, n_train=20, seed=0,
        mlp_config=MlpConfig(hidden=(4,), epochs=2, batch_size=32),
        large_config=MlpConfig(hidden=(4,), epochs=2, batch_size=32))
    assert rep.scores[0].n_train == 20


# --------------------------------------------------------------------------
# homing segments + emitters


def test_segment_rmse_shape():
    parts = [make_dataset(np.full((20, 3), v), seed=s)
             for s, v in enumerate((0.5, 1.0, 1.5))]
    out = segment_rmse(zero_model(), parts)
    assert out.shape == (3, 3)
    assert np.allclose(out[:, 0], (0.5, 1.0, 1.5))


def test_write_rows_csv_round_trip(tmp_path):
    rows = [{"direction": "j1", "rmse": 0.25, "n": 7},
            {"direction": "j2", "rmse": 1.5, "n": 9}]
    p = tmp_path / "rows.csv"
    write_report(rows, {"runs": 2}, p)
    with open(p, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back[0]["direction"] == "j1"
    assert float(back[1]["rmse"]) == 1.5
    assert json.loads((tmp_path / "rows.json").read_text()) == {"runs": 2}
    with pytest.raises(ValueError):
        write_report([], [], tmp_path / "empty.csv")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["rows.csv", "rows.json"]


def test_failed_report_write_keeps_previous_pair(tmp_path):
    p = tmp_path / "rmse_report.csv"
    write_report([{"joint": "j1", "rmse": 0.25}], [{"joint": "j1"}], p)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    rows = [{"joint": "j2", "rmse": 1.5, "model": object()}]
    with pytest.raises(TypeError):
        write_report(rows, rows, p)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_write_json(tmp_path):
    p = tmp_path / "rep.json"
    with _replacing(p) as (fh,):
        write_json({"a": [1, 2], "b": "x"}, fh)
    assert p.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": "x"\n}\n'


def test_latency_report_serializable():
    ds = make_dataset(np.zeros((10, 3)))
    rep = bench_latency(fit_offset(ds), ds.inputs, n_samples=200,
                        repeats=2)
    d = rep.to_dict()
    json.dumps(d)  # must be JSON-clean
    assert d["repeats"] == 2 and len(d["runs"]) == 2
    assert isinstance(rep, LatencyReport)
