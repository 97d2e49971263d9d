"""Calibration model tests against hand-built synthetic datasets.

The datasets here are constructed directly (no simulator), so every fit has
an independently known right answer: exact recovery for linear/poly2 on
noiseless data, mean-error for the offset model, and a manually replayed
normalize-train-unfold chain for the MLP.
"""

import json
import math
import re
import tempfile
import tracemalloc
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablecal import core as core_mod
from cablecal import models as models_mod
from cablecal.core import FULL_SCHEMA, FeatureSchema
from cablecal.data import Dataset, NormStats
from cablecal.models import (END_TO_END, ON_ERROR, FixedOffsetModel,
                             LinearModel, MlpModel, ModelError, _poly2_expand,
                             deserialize, fit_linear, fit_mlp, fit_offset,
                             fit_poly2, serialize)
from cablecal.nn import LARGE_CONFIG, MlpConfig, forward, train_mlp

REP = (0, 1, 2)        # joint_position_j1..j3 within the selected columns
TORQUE = (8, 9, 10)    # motor_torque_j1..j3


def make_dataset(err_fn, n=400, seed=0, schema=FULL_SCHEMA):
    """Random features, reported = position columns, truth = reported + err."""
    rng = np.random.default_rng(seed)
    d = schema.dim_selected
    scales = rng.uniform(0.5, 40.0, d)
    centers = rng.uniform(-5.0, 60.0, d)
    X = rng.normal(size=(n, d)) * scales + centers
    reported = X[:, list(REP)].copy()
    err = np.asarray(err_fn(X), dtype=float)
    return Dataset(np.arange(n) * 0.03, X, reported + err, reported, schema)


def const_err(c):
    return lambda X: np.tile(np.asarray(c, dtype=float), (len(X), 1))


# --------------------------------------------------------------------------
# fixed offset


def test_offset_is_mean_error():
    rng = np.random.default_rng(1)
    noise = rng.normal(scale=0.2, size=(300, 3))
    ds = make_dataset(lambda X: np.array([1.5, -2.0, 4.0]) + noise[: len(X)], n=300)
    m = fit_offset(ds)
    assert np.allclose(m.intercept, ds.errors.mean(axis=0), rtol=0, atol=0)


def test_offset_prediction_adds_constant():
    ds = make_dataset(const_err([0.5, -1.0, 2.0]), n=50)
    m = fit_offset(ds)
    row = ds.inputs[7].tolist()
    got = m.predict(row)
    want = [row[0] + 0.5, row[1] - 1.0, row[2] + 2.0]
    assert np.allclose(got, want, atol=1e-12)
    assert all(isinstance(v, float) for v in got)


def test_offset_modes_coincide():
    ds = make_dataset(const_err([1.0, 2.0, 3.0]), n=60, seed=3)
    a = fit_offset(ds, ON_ERROR)
    b = fit_offset(ds, END_TO_END)
    assert np.array_equal(a.intercept, b.intercept)
    assert np.array_equal(a.predict_batch(ds.inputs), b.predict_batch(ds.inputs))


# --------------------------------------------------------------------------
# linear


def linear_err(W, b):
    return lambda X: b + X @ W


def test_linear_exact_recovery():
    rng = np.random.default_rng(5)
    W = rng.normal(scale=0.02, size=(16, 3))
    b = np.array([-4.0, 3.5, -12.0])
    ds = make_dataset(linear_err(W, b), n=500, seed=5)
    m = fit_linear(ds, ON_ERROR)
    assert np.allclose(m.weights, W, rtol=1e-8, atol=1e-10)
    assert np.allclose(m.intercept, b, rtol=1e-8, atol=1e-8)
    assert np.allclose(m.predict_batch(ds.inputs), ds.targets, atol=1e-8)


def test_linear_degenerate_column_gets_zero_weight():
    rng = np.random.default_rng(6)
    W = rng.normal(scale=0.05, size=(16, 3))
    W[5] = 0.0
    ds = make_dataset(linear_err(W, np.zeros(3)), n=400, seed=6)
    X = ds.inputs.copy()
    X[:, 5] = 7.25
    ds = Dataset(ds.t, X, ds.reported + linear_err(W, np.zeros(3))(X),
                 ds.reported, ds.schema)
    m = fit_linear(ds)
    assert np.allclose(m.weights[5], 0.0, atol=1e-9)
    mask = np.ones(16, dtype=bool)
    mask[5] = False
    assert np.allclose(m.weights[mask], W[mask], rtol=1e-8, atol=1e-10)
    assert np.allclose(m.predict_batch(X), ds.targets, atol=1e-8)


def test_linear_on_error_equals_end_to_end():
    # deliberately misspecified target: the identity must hold regardless
    def err_fn(X):
        return np.column_stack([
            0.5 * np.sin(X[:, 0] / 20.0) + 0.01 * X[:, 8],
            np.cos(X[:, 1] / 30.0),
            0.002 * X[:, 2] * np.sign(X[:, 9]),
        ])

    ds = make_dataset(err_fn, n=600, seed=7)
    a = fit_linear(ds, ON_ERROR)
    b = fit_linear(ds, END_TO_END)
    pa = a.predict_batch(ds.inputs)
    pb = b.predict_batch(ds.inputs)
    assert np.max(np.abs(pa - pb)) < 1e-9


def test_linear_train_rmse_monotone_in_ridge():
    rng = np.random.default_rng(8)
    W = rng.normal(scale=0.03, size=(16, 3))
    noise = rng.normal(scale=0.3, size=(500, 3))
    ds = make_dataset(lambda X: X @ W + noise[: len(X)], n=500, seed=8)
    rmses = []
    for lam in (0.0, 1.0, 100.0, 1e4):
        m = fit_linear(ds, ridge=lam)
        resid = m.predict_batch(ds.inputs) - ds.targets
        rmses.append(float(np.sqrt(np.mean(resid ** 2))))
    assert all(a <= b + 1e-12 for a, b in zip(rmses, rmses[1:]))
    assert rmses[-1] > rmses[0]


def test_negative_ridge_rejected():
    ds = make_dataset(const_err([0, 0, 0]), n=20)
    with pytest.raises(ModelError):
        fit_linear(ds, ridge=-0.5)


@pytest.mark.parametrize("fit", [fit_linear, fit_poly2])
def test_nan_ridge_rejected(fit):
    ds = make_dataset(const_err([0, 0, 0]), n=20)
    with pytest.raises(ModelError, match="ridge"):
        fit(ds, ridge=float("nan"))


# --------------------------------------------------------------------------
# poly2


def test_poly2_expand_matches_hand_enumeration():
    z = np.array([[2.0, 3.0, 5.0, 7.0]])
    a, b, c, d = 2.0, 3.0, 5.0, 7.0
    want = [a, b, c, d,
            a * a, a * b, a * c, a * d,
            b * b, b * c, b * d,
            c * c, c * d,
            d * d]
    assert _poly2_expand(z).tolist() == [want]


def quad_err(X):
    x = X
    return np.column_stack([
        0.5 + 0.01 * x[:, 0] - 0.002 * x[:, 3] * x[:, 4] + 0.003 * x[:, 1] ** 2,
        -0.2 + 0.004 * x[:, 8] + 0.001 * x[:, 0] * x[:, 8],
        0.1 - 0.005 * x[:, 2] + 0.0002 * x[:, 2] * x[:, 10],
    ])


def test_poly2_exact_recovery_of_quadratic():
    ds = make_dataset(quad_err, n=800, seed=9)
    m = fit_poly2(ds, ON_ERROR)
    pred = m.predict_batch(ds.inputs)
    assert np.max(np.abs(pred - ds.targets)) < 1e-7


def test_poly2_beats_linear_on_quadratic_target():
    ds = make_dataset(quad_err, n=800, seed=10)
    lin = fit_linear(ds)
    pol = fit_poly2(ds)
    rmse_lin = np.sqrt(np.mean((lin.predict_batch(ds.inputs) - ds.targets) ** 2))
    rmse_pol = np.sqrt(np.mean((pol.predict_batch(ds.inputs) - ds.targets) ** 2))
    assert rmse_pol < 0.1 * rmse_lin


def test_poly2_refuses_wide_inputs():
    schema = FULL_SCHEMA.with_all_selected()
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, schema.dim_selected))
    X[:, :3] += 10.0
    ds = Dataset(np.arange(40) * 0.03, X, X[:, :3] + 1.0, X[:, :3].copy(), schema)
    with pytest.raises(ModelError, match="at most 64 inputs"):
        fit_poly2(ds)


# --------------------------------------------------------------------------
# mlp


SMALL_CFG = MlpConfig(hidden=(8,), epochs=30, batch_size=128)


def nonlin_err(X):
    return np.column_stack([
        0.8 * np.tanh(X[:, 8] / 10.0) + 0.3,
        0.5 * np.sin(X[:, 0] / 25.0),
        0.02 * np.abs(X[:, 9]) - 0.5,
    ])


def test_fit_mlp_matches_unfolded_training_chain():
    ds = make_dataset(nonlin_err, n=500, seed=12)
    m = fit_mlp(ds, ON_ERROR, SMALL_CFG, seed=3)

    norm = NormStats.fit(ds.inputs)
    Y = ds.errors
    tnorm = NormStats.fit(Y)
    net, _ = train_mlp(norm.apply(ds.inputs), tnorm.apply(Y), SMALL_CFG, seed=3)
    want = (tnorm.sd * forward(net.weights, net.biases, norm.apply(ds.inputs))
            + tnorm.mean + ds.reported)
    got = m.predict_batch(ds.inputs)
    assert np.max(np.abs(got - want)) < 1e-9


def test_fit_mlp_deterministic():
    ds = make_dataset(nonlin_err, n=300, seed=13)
    a = fit_mlp(ds, ON_ERROR, SMALL_CFG, seed=7)
    b = fit_mlp(ds, ON_ERROR, SMALL_CFG, seed=7)
    assert np.array_equal(a.predict_batch(ds.inputs), b.predict_batch(ds.inputs))
    c = fit_mlp(ds, ON_ERROR, SMALL_CFG, seed=8)
    assert not np.array_equal(a.predict_batch(ds.inputs), c.predict_batch(ds.inputs))


def test_mlp_mode_changes_predictions():
    ds = make_dataset(nonlin_err, n=300, seed=14)
    a = fit_mlp(ds, ON_ERROR, SMALL_CFG, seed=1)
    b = fit_mlp(ds, END_TO_END, SMALL_CFG, seed=1)
    assert a.mode == ON_ERROR and b.mode == END_TO_END
    assert not np.allclose(a.predict_batch(ds.inputs), b.predict_batch(ds.inputs))


def test_mlp_learns_nonlinearity_better_than_offset():
    ds = make_dataset(nonlin_err, n=1500, seed=15)
    cfg = MlpConfig(hidden=(16,), epochs=400, batch_size=256)
    m = fit_mlp(ds, ON_ERROR, cfg, seed=0)
    off = fit_offset(ds)
    r_mlp = np.sqrt(np.mean((m.predict_batch(ds.inputs) - ds.targets) ** 2))
    r_off = np.sqrt(np.mean((off.predict_batch(ds.inputs) - ds.targets) ** 2))
    assert r_mlp < 0.5 * r_off


# --------------------------------------------------------------------------
# models.fit: the one map from a kind to its fitter


#: kind -> its own fitter, called with the arguments ``fit`` is given
OWN_FITTERS = {
    "offset": lambda ds, mode: fit_offset(ds, mode),
    "linear": lambda ds, mode: fit_linear(ds, mode, 0.5),
    "poly2": lambda ds, mode: fit_poly2(ds, mode, 0.5),
    "mlp": lambda ds, mode: fit_mlp(ds, mode, SMALL_CFG, 7),
}


@pytest.mark.parametrize("mode", [ON_ERROR, END_TO_END])
@pytest.mark.parametrize("kind", list(OWN_FITTERS))
def test_fit_writes_the_bytes_of_the_kinds_own_fitter(tmp_path, kind, mode):
    ds = make_dataset(nonlin_err, n=120, seed=21)
    serialize(models_mod.fit(kind, ds, mode, ridge=0.5, mlp=SMALL_CFG, seed=7),
              tmp_path / "fit.ccm")
    serialize(OWN_FITTERS[kind](ds, mode), tmp_path / "own.ccm")
    assert (tmp_path / "fit.ccm").read_bytes() == (tmp_path / "own.ccm").read_bytes()


def test_fit_refuses_an_unknown_kind_naming_it():
    with pytest.raises(ModelError, match="'forest'"):
        models_mod.fit("forest", make_dataset(const_err([0, 0, 0]), n=20))


def test_fit_looks_its_fitter_up_when_called(monkeypatch):
    # a wrapper installed on the module after import (as a tracer does)
    # sees the call
    calls = []

    def recording(*args):
        calls.append(args[1:])
        return fit_linear(*args)

    monkeypatch.setattr(models_mod, "fit_linear", recording)
    ds = make_dataset(const_err([1, 2, 3]), n=30)
    model = models_mod.fit("linear", ds, END_TO_END, ridge=0.25)
    assert calls == [(END_TO_END, 0.25)] and model.kind == "linear"


# --------------------------------------------------------------------------
# shared interface behavior


def all_fitted_models(ds):
    return [
        fit_offset(ds),
        fit_linear(ds),
        fit_poly2(ds),
        fit_mlp(ds, ON_ERROR, SMALL_CFG, seed=2),
        fit_linear(ds, END_TO_END),
        fit_mlp(ds, END_TO_END, SMALL_CFG, seed=2),
    ]


def test_scalar_and_batch_paths_agree():
    ds = make_dataset(nonlin_err, n=200, seed=16)
    rows = [r.tolist() for r in ds.inputs[:20]]
    for m in all_fitted_models(ds):
        batch = m.predict_batch(ds.inputs[:20])
        scalar = np.array([m.predict(r) for r in rows])
        assert np.max(np.abs(batch - scalar)) < 1e-9, m.kind


def test_scalar_path_returns_python_floats():
    ds = make_dataset(nonlin_err, n=100, seed=17)
    row = ds.inputs[0].tolist()
    for m in all_fitted_models(ds):
        out = m.predict(row)
        assert isinstance(out, list) and len(out) == 3
        assert all(type(v) is float for v in out), m.kind


def test_non_finite_input_row_rejected():
    ds = make_dataset(nonlin_err, n=100, seed=25)
    fitted = all_fitted_models(ds)
    for bad in (np.nan, np.inf, -np.inf):
        X = ds.inputs[:6].copy()
        X[3, 5] = bad
        for m in fitted:
            with pytest.raises(ModelError, match="first row 3"):
                m.predict_batch(X)


def test_wrong_width_rejected():
    ds = make_dataset(const_err([0, 0, 0]), n=30)
    m = fit_linear(ds)
    with pytest.raises(ModelError):
        m.predict([0.0] * 7)
    with pytest.raises(ModelError):
        m.predict_batch(np.zeros((5, 7)))


def test_invalid_mode_rejected():
    ds = make_dataset(const_err([0, 0, 0]), n=30)
    with pytest.raises(ModelError):
        fit_linear(ds, mode="sideways")


def test_rep_columns_required_only_when_correcting():
    mask = tuple(n.startswith("motor_torque_") for n in FULL_SCHEMA.names)
    schema = FeatureSchema(FULL_SCHEMA.names, mask)
    rng = np.random.default_rng(18)
    X = rng.normal(size=(100, 8))
    tgt = rng.normal(size=(100, 3)) + 5.0
    ds = Dataset(np.arange(100) * 0.03, X, tgt, tgt - 1.0, schema)
    with pytest.raises(ModelError):
        fit_offset(ds)
    with pytest.raises(ModelError):
        fit_linear(ds, ON_ERROR)
    m = fit_linear(ds, END_TO_END)  # no reported columns needed
    assert m.predict_batch(X).shape == (100, 3)


# --------------------------------------------------------------------------
# serialization


def test_failed_serialize_keeps_previous_file(tmp_path, monkeypatch):
    ds = make_dataset(const_err([1.0, 0.0, -1.0]), n=40)
    path = tmp_path / "model.ccm"
    serialize(fit_offset(ds), path)
    before = path.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"format": ')
        raise OSError("disk full")

    # every JSON artifact is written by core.write_json
    monkeypatch.setattr(core_mod, "json",
                        SimpleNamespace(dumps=json.dumps, dump=dump_then_fail))
    with pytest.raises(OSError, match="disk full"):
        serialize(fit_linear(ds), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ccm"]


def test_serialize_refuses_non_finite_parameters_and_keeps_previous_file(tmp_path):
    ds = make_dataset(const_err([1.0, 0.0, -1.0]), n=40)
    path = tmp_path / "model.ccm"
    good = fit_linear(ds)
    serialize(good, path)
    before = path.read_bytes()
    weights = good.weights.copy()
    weights[2, 1] = float("nan")
    bad = LinearModel(good.mode, good.schema, weights, good.intercept)
    with pytest.raises(ModelError, match=re.escape(f"{path}: ") + ".*NaN"):
        serialize(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ccm"]


def test_round_trip_preserves_predictions_exactly(tmp_path):
    ds = make_dataset(nonlin_err, n=150, seed=19)
    for i, m in enumerate(all_fitted_models(ds)):
        p = tmp_path / f"model_{i}.ccm"
        serialize(m, p)
        m2 = deserialize(p)
        assert m2.kind == m.kind and m2.mode == m.mode
        assert np.array_equal(m2.predict_batch(ds.inputs), m.predict_batch(ds.inputs))


def _scalar_predict_ref(model, x):
    """The scalar MLP path over tables built eagerly from the stored arrays."""
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        nxt = []
        for row, b0 in zip(w.T.tolist(), b.tolist()):
            s = b0 + sum(map(mul, row, a))
            nxt.append(0.5 * (1 + math.tanh(s / 2)))
        a = nxt
    out = [b0 + sum(map(mul, row, a))
           for row, b0 in zip(model.weights[-1].T.tolist(), model.biases[-1].tolist())]
    if model.mode == ON_ERROR:
        for j, r in enumerate(models_mod._rep_indices(model.schema)):
            out[j] += x[r]
    return out


def test_large_mlp_holds_scalar_tables_only_after_first_predict():
    schema = FULL_SCHEMA.with_all_selected()
    dims = (schema.dim_selected, *LARGE_CONFIG.hidden, 3)
    rng = np.random.default_rng(30)
    weights = [rng.normal(scale=0.05, size=shape) for shape in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(scale=0.05, size=d) for d in dims[1:]]
    X = rng.normal(size=(3, dims[0]))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = MlpModel(ON_ERROR, schema, weights, biases, LARGE_CONFIG)
        m.predict_batch(X)
        m.payload()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the parameter arrays are shared, not copied; nested-list tables for
    # the scalar path would hold ~19 MB here
    assert retained < 1e6
    for row in X.tolist():
        assert m.predict(row) == _scalar_predict_ref(m, row)


def test_scalar_mlp_predict_stays_finite_where_exp_would_overflow():
    rng = np.random.default_rng(32)
    d = FULL_SCHEMA.dim_selected
    weights = [rng.normal(scale=200.0, size=(d, 6)), rng.normal(size=(6, 3))]
    biases = [np.zeros(6), rng.normal(size=3)]
    m = MlpModel(END_TO_END, FULL_SCHEMA, weights, biases, MlpConfig(hidden=(6,)))
    X = rng.normal(size=(20, d))
    s = X @ weights[0]
    # math.exp(-s) overflows (OverflowError) beyond s = -709.78
    assert s.min() < -1000 and s.max() > 1000
    scalar = np.array([m.predict(row) for row in X.tolist()])
    assert np.all(np.isfinite(scalar))
    assert np.max(np.abs(scalar - m.predict_batch(X))) <= 1e-12


NON_FINITE_PARAMETER = [
    ("offset", "intercept", lambda p: p["intercept"].__setitem__(0, float("nan"))),
    ("linear", "weights", lambda p: p["weights"][3].__setitem__(1, float("inf"))),
    ("poly2", "norm", lambda p: p["norm"]["sd"].__setitem__(2, float("-inf"))),
    ("mlp", "biases", lambda p: p["biases"][0].__setitem__(4, float("nan"))),
]


@pytest.mark.parametrize("kind, entry, corrupt", NON_FINITE_PARAMETER)
def test_non_finite_parameter_rejected_on_load(tmp_path, kind, entry, corrupt):
    ds = make_dataset(nonlin_err, n=120, seed=24)
    model = {m.kind: m for m in all_fitted_models(ds)}[kind]
    path = tmp_path / "m.ccm"
    serialize(model, path)

    def mutate(doc):
        corrupt(doc["payload"])
        return True                     # the checksum vouches for the NaN

    key = {"norm": "norm.sd", "biases": "biases.0"}.get(entry, entry)
    with pytest.raises(ModelError,
                       match=f"tampered.ccm: entry 'payload.{key}': must be finite"):
        deserialize(_tampered(path, mutate))


def test_round_trip_is_byte_identical(tmp_path):
    ds = make_dataset(nonlin_err, n=100, seed=20)
    m = fit_mlp(ds, ON_ERROR, SMALL_CFG, seed=4)
    p1, p2 = tmp_path / "a.ccm", tmp_path / "b.ccm"
    serialize(m, p1)
    serialize(deserialize(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


REP_NAMES = tuple(f"joint_position_j{j}" for j in (1, 2, 3))
PROPERTY_CFG = MlpConfig(hidden=(5,), epochs=3, batch_size=32)


@st.composite
def selection_schemas(draw):
    """FULL_SCHEMA under a random mask that keeps joint_position_j1..j3."""
    extra = draw(st.one_of(st.sets(st.integers(0, 137), max_size=4),
                           st.sets(st.integers(0, 137), max_size=40)))
    keep = extra | {FULL_SCHEMA.index_of(n) for n in REP_NAMES}
    return FeatureSchema(FULL_SCHEMA.names,
                         tuple(i in keep for i in range(FULL_SCHEMA.dim_full)))


@settings(max_examples=25, deadline=None)
@given(schema=selection_schemas(), seed=st.integers(0, 2**16))
def test_every_kind_and_mode_round_trips_and_paths_agree(schema, seed):
    rng = np.random.default_rng(seed)
    d = schema.dim_selected
    X = rng.normal(size=(120, d)) * rng.uniform(0.5, 40.0, d) + rng.uniform(-5.0, 60.0, d)
    reported = X[:, [schema.selected_names().index(n) for n in REP_NAMES]]
    err = 0.5 * np.tanh(reported / 30.0) + rng.normal(scale=0.01, size=(120, 3))
    ds = Dataset(np.arange(120) * 0.03, X, reported + err, reported, schema)
    fits = [fit_offset, fit_linear, lambda ds, mode: fit_mlp(ds, mode, PROPERTY_CFG, seed)]
    if d <= 7:
        fits.append(fit_poly2)
    rows = X[:10].tolist()
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.ccm", Path(tmp) / "b.ccm"
        for fit in fits:
            for mode in (ON_ERROR, END_TO_END):
                m = fit(ds, mode)
                serialize(m, p1)
                back = deserialize(p1)
                serialize(back, p2)
                assert p1.read_bytes() == p2.read_bytes(), m.kind
                batch = m.predict_batch(X)
                assert np.array_equal(back.predict_batch(X), batch), m.kind
                scalar = [m.predict(r) for r in rows]
                assert [back.predict(r) for r in rows] == scalar, m.kind
                assert np.max(np.abs(np.array(scalar) - batch[:10])) < 1e-9, m.kind


def _tampered(path: Path, mutate) -> Path:
    doc = json.loads(path.read_text())
    recompute = mutate(doc)
    if recompute:
        from cablecal.models import _checksum
        doc["checksum"] = _checksum(doc)
    out = path.with_name("tampered.ccm")
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out


@pytest.fixture
def offset_file(tmp_path):
    ds = make_dataset(const_err([1.0, 2.0, 3.0]), n=40)
    p = tmp_path / "m.ccm"
    serialize(fit_offset(ds), p)
    return p


def test_checksum_detects_payload_edit(offset_file):
    def mutate(doc):
        doc["payload"]["intercept"][0] += 1.0
        return False

    with pytest.raises(ModelError, match="checksum"):
        deserialize(_tampered(offset_file, mutate))


def test_unsupported_version_rejected(offset_file):
    def mutate(doc):
        doc["version"] = 99
        return True

    with pytest.raises(ModelError, match="version"):
        deserialize(_tampered(offset_file, mutate))


def test_unknown_kind_rejected(offset_file):
    def mutate(doc):
        doc["kind"] = "forest"
        return True

    with pytest.raises(ModelError, match="kind"):
        deserialize(_tampered(offset_file, mutate))


def test_bad_format_tag_rejected(offset_file):
    def mutate(doc):
        doc["format"] = "zzz"
        return True

    with pytest.raises(ModelError, match="format"):
        deserialize(_tampered(offset_file, mutate))


def test_bad_mode_in_file_rejected(offset_file):
    def mutate(doc):
        doc["mode"] = "sideways"
        return True

    with pytest.raises(ModelError, match="mode"):
        deserialize(_tampered(offset_file, mutate))


@pytest.mark.parametrize("entry", ["mode", "schema", "intercept"])
def test_missing_entry_rejected(offset_file, entry):
    def mutate(doc):
        del (doc["payload"] if entry == "intercept" else doc)[entry]
        return True

    key = "payload.intercept" if entry == "intercept" else entry
    with pytest.raises(ModelError, match=f"tampered.ccm: entry '{key}': missing"):
        deserialize(_tampered(offset_file, mutate))


@pytest.fixture
def linear_file(tmp_path):
    p = tmp_path / "m.ccm"
    serialize(fit_linear(make_dataset(const_err([1.0, 2.0, 3.0]), n=40)), p)
    return p


@pytest.mark.parametrize("edit, entry", [
    (lambda doc: doc.update(kind=["linear"]), "kind"),
    (lambda doc: doc.update(format="zzz"), "format"),
    (lambda doc: doc.update(version=1), "version"),
    (lambda doc: doc.update(version=True), "version"),
    (lambda doc: doc.update(extra=1), "extra"),
    (lambda doc: doc.update(schema_hash="0" * 64), "schema_hash"),
    (lambda doc: doc["schema"].update(names=list(range(138))), "schema.names"),
    (lambda doc: doc["schema"].update(selected_mask="1" * 138), "schema.selected_mask"),
    (lambda doc: doc["payload"].pop("intercept"), "payload.intercept"),
    (lambda doc: doc["payload"].update(weights=[[True] * 3] * 16), "payload.weights"),
    (lambda doc: doc["payload"].update(extra=1), "payload.extra"),
], ids=["list-kind", "format", "version", "bool-version", "unknown-key",
        "schema-hash-unknown-key",
        "int-names", "string-mask", "no-intercept", "bool-weights",
        "unknown-payload-key"])
def test_every_model_file_error_names_file_and_entry(linear_file, edit, entry):
    def mutate(doc):
        edit(doc)
        return True

    path = _tampered(linear_file, mutate)
    with pytest.raises(ModelError, match=re.escape(f"{path}: entry '{entry}': ")):
        deserialize(path)


def test_unknown_mlp_config_key_names_it(tmp_path):
    p = tmp_path / "m.ccm"
    serialize(fit_mlp(make_dataset(const_err([1.0, 2.0, 3.0]), n=40), ON_ERROR,
                      MlpConfig(hidden=(4,), epochs=1, batch_size=16), seed=0), p)

    def mutate(doc):
        doc["payload"]["config"]["dropout"] = 0.5
        return True

    path = _tampered(p, mutate)
    with pytest.raises(ModelError, match=re.escape(
            f"{path}: entry 'payload.config.dropout': unknown key")):
        deserialize(path)


def test_top_level_list_rejected(offset_file):
    offset_file.write_text(json.dumps([json.loads(offset_file.read_text())]))
    with pytest.raises(ModelError, match="JSON object"):
        deserialize(offset_file)


def test_wrong_typed_schema_rejected(offset_file):
    def mutate(doc):
        doc["schema"] = [doc["schema"]]
        return True

    with pytest.raises(ModelError, match="tampered.ccm: entry 'schema': expected object"):
        deserialize(_tampered(offset_file, mutate))


@pytest.mark.parametrize("weights", [3, [[0.0] * 16] * 2], ids=["int", "1d"])
def test_wrong_typed_mlp_weights_rejected(tmp_path, weights):
    ds = make_dataset(const_err([1.0, 2.0, 3.0]), n=40)
    p = tmp_path / "m.ccm"
    serialize(fit_mlp(ds, ON_ERROR, MlpConfig(hidden=(4,), epochs=1,
                                              batch_size=16), seed=0), p)

    def mutate(doc):
        doc["payload"]["weights"] = weights
        return True

    with pytest.raises(ModelError, match=r"tampered.ccm: entry 'payload.weights(\.0)?': expected"):
        deserialize(_tampered(p, mutate))


@pytest.mark.parametrize("edit, named", [
    (lambda norm: {k: v for k, v in norm.items() if k != "sd"}, "norm.sd': missing"),
    (lambda norm: 5, "norm': expected object, got integer"),
    (lambda norm: dict(norm, mean="abc"), "norm.mean': expected array"),
], ids=["no-sd", "int", "string-mean"])
def test_malformed_poly2_norm_names_norm(tmp_path, edit, named):
    ds = make_dataset(nonlin_err, n=120, seed=24)
    p = tmp_path / "m.ccm"
    serialize(fit_poly2(ds, ON_ERROR), p)

    def mutate(doc):
        doc["payload"]["norm"] = edit(doc["payload"]["norm"])
        return True

    with pytest.raises(ModelError, match=re.escape(f"tampered.ccm: entry 'payload.{named}")):
        deserialize(_tampered(p, mutate))


def test_poly2_norm_of_wrong_width_names_norm(tmp_path):
    ds = make_dataset(nonlin_err, n=120, seed=24)
    p = tmp_path / "m.ccm"
    serialize(fit_poly2(ds, ON_ERROR), p)

    def mutate(doc):
        doc["payload"]["norm"] = {k: v[:-1] for k, v in doc["payload"]["norm"].items()}
        return True

    with pytest.raises(ModelError, match=re.escape(
            "tampered.ccm: entry 'payload.norm.mean': expected a (16,) array")):
        deserialize(_tampered(p, mutate))


def test_poly2_norm_sd_that_is_not_positive_is_refused(tmp_path):
    ds = make_dataset(nonlin_err, n=120, seed=24)
    p = tmp_path / "m.ccm"
    serialize(fit_poly2(ds, ON_ERROR), p)

    def mutate(doc):
        doc["payload"]["norm"]["sd"][3] = 0.0
        return True

    with pytest.raises(ModelError, match=re.escape(
            "tampered.ccm: entry 'payload.norm': sd must be > 0")):
        deserialize(_tampered(p, mutate))


@pytest.mark.parametrize("entry, value", [
    ("biases", 5), ("biases", [[[0.0]]]), ("train_curve", "x"),
    ("train_curve", [1.0, "x"]), ("train_curve", [True]), ("seed", "abc"),
    ("seed", 1.5), ("seed", False),
    # layers that do not chain 16 -> 4 -> 3 (the config's hidden width)
    ("weights", [[[0.0] * 100] * 16, [[0.0] * 3] * 50]),
    ("biases", [[0.0] * 3, [0.0] * 3])])
def test_wrong_typed_mlp_entry_named(tmp_path, entry, value):
    ds = make_dataset(const_err([1.0, 2.0, 3.0]), n=40)
    p = tmp_path / "m.ccm"
    serialize(fit_mlp(ds, ON_ERROR, MlpConfig(hidden=(4,), epochs=1,
                                              batch_size=16), seed=0), p)

    def mutate(doc):
        doc["payload"][entry] = value
        return True

    with pytest.raises(ModelError, match=rf"tampered.ccm: entry 'payload.{entry}(\.[01])?': "):
        deserialize(_tampered(p, mutate))


@pytest.mark.parametrize("w_shapes, b_shapes, hidden", [
    ([(16, 100), (50, 3)], [(100,), (3,)], (100,)),   # layers do not chain
    ([(16, 100), (100, 3)], [(7,), (3,)], (100,)),    # short first-layer bias
    ([(16, 5), (5, 3)], [(5,), (3,)], (100, 100)),    # config.hidden disagrees
])
def test_mlp_layers_must_chain_schema_hidden_and_outputs(w_shapes, b_shapes, hidden):
    with pytest.raises(ModelError, match="do not chain"):
        MlpModel(ON_ERROR, FULL_SCHEMA, [np.zeros(s) for s in w_shapes],
                 [np.zeros(s) for s in b_shapes], MlpConfig(hidden=hidden))


def test_mlp_without_curve_and_seed_loads(tmp_path):
    ds = make_dataset(const_err([1.0, 2.0, 3.0]), n=40)
    p = tmp_path / "m.ccm"
    serialize(fit_mlp(ds, ON_ERROR, MlpConfig(hidden=(4,), epochs=1,
                                              batch_size=16), seed=0), p)

    def mutate(doc):
        del doc["payload"]["train_curve"], doc["payload"]["seed"]
        return True

    back = deserialize(_tampered(p, mutate))
    assert back.train_curve is None and back.seed is None


def test_check_compatible_rejects_other_mask():
    ds = make_dataset(const_err([0, 0, 0]), n=30)
    m = fit_offset(ds)
    m.check_compatible(FULL_SCHEMA)
    with pytest.raises(ModelError):
        m.check_compatible(FULL_SCHEMA.with_all_selected())
