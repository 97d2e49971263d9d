import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cablecal import nn as nn_mod
from cablecal.nn import (LARGE_CONFIG, Adam, Mlp, MlpConfig, TrainingDivergedError,
                         _sigmoid, forward, train_mlp)


# --- out-of-place reference formulas ---------------------------------------
# The engine computes these in place; it must reproduce them bit for bit.

def sigmoid_ref(z):
    return 0.5 * (1 + np.tanh(z / 2))


def forward_ref(net, X):
    a = X
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = sigmoid_ref(a @ w + b)
    return a @ net.weights[-1] + net.biases[-1]


def loss_and_grads_ref(net, X, Y):
    cfg = net.config
    n, k_out = Y.shape
    acts = [X]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        acts.append(sigmoid_ref(acts[-1] @ w + b))
    pred = acts[-1] @ net.weights[-1] + net.biases[-1]
    resid = pred - Y
    loss = float(np.mean(resid ** 2))
    loss += sum(cfg.kernel_l2 * float(np.sum(w ** 2)) for w in net.weights)
    if cfg.kernel_l1:
        loss += sum(cfg.kernel_l1 * float(np.sum(np.abs(w))) for w in net.weights)
    if cfg.bias_l2:
        loss += sum(cfg.bias_l2 * float(np.sum(b ** 2)) for b in net.biases)
    if cfg.activity_l2:
        loss += cfg.activity_l2 * sum(float(np.sum(a ** 2)) for a in acts[1:]) / n
    grads = [None] * (2 * len(net.weights))
    delta = 2.0 * resid / (n * k_out)
    for li in range(len(net.weights) - 1, -1, -1):
        gw = acts[li].T @ delta + 2.0 * cfg.kernel_l2 * net.weights[li]
        if cfg.kernel_l1:
            gw = gw + cfg.kernel_l1 * np.sign(net.weights[li])
        gb = delta.sum(axis=0)
        if cfg.bias_l2:
            gb = gb + 2.0 * cfg.bias_l2 * net.biases[li]
        grads[2 * li] = gw
        grads[2 * li + 1] = gb
        if li > 0:
            da = delta @ net.weights[li].T
            if cfg.activity_l2:
                da = da + 2.0 * cfg.activity_l2 * acts[li] / n
            delta = da * acts[li] * (1.0 - acts[li])
    return loss, grads


def adam_step_ref(opt, params, grads):
    opt.t += 1
    b1c = 1.0 - opt.beta1 ** opt.t
    b2c = 1.0 - opt.beta2 ** opt.t
    for i, (p, g) in enumerate(zip(params, grads)):
        opt.m[i] = opt.beta1 * opt.m[i] + (1.0 - opt.beta1) * g
        opt.v[i] = opt.beta2 * opt.v[i] + (1.0 - opt.beta2) * g ** 2
        p -= opt.lr * (opt.m[i] / b1c) / (np.sqrt(opt.v[i] / b2c) + opt.eps)


# --- gradient oracle: central finite differences ---------------------------

def numeric_grads(net, X, Y, h=1e-5):
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat = p.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = net.loss_and_grads(X, Y)
            flat[i] = orig - h
            lm, _ = net.loss_and_grads(X, Y)
            flat[i] = orig
            gf[i] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


@pytest.mark.parametrize("config", [
    MlpConfig(hidden=(5, 5), kernel_l2=5e-4),
    MlpConfig(hidden=(5, 5), kernel_l2=1e-4, kernel_l1=1e-5, bias_l2=1e-4, activity_l2=1e-5),
])
def test_gradient_check_small_net(config):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 4))
    Y = rng.normal(size=(12, 3))
    net = Mlp(4, 3, config, seed=5)
    # nudge biases off zero so their gradients are exercised at generic points
    for b in net.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    _, analytic = net.loss_and_grads(X, Y)
    numeric = numeric_grads(net, X, Y)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_loss_matches_hand_computation():
    # 1 hidden unit, 1 output, fixed weights: verify the loss formula digit
    # by digit ( mse + kernel_l2 * sum W^2 )
    cfg = MlpConfig(hidden=(1,), kernel_l2=0.5, epochs=1)
    net = Mlp(1, 1, cfg, seed=0)
    net.weights = [np.array([[2.0]]), np.array([[3.0]])]
    net.biases = [np.array([0.0]), np.array([1.0])]
    X = np.array([[1.0]])
    Y = np.array([[0.0]])
    hidden = 1 / (1 + np.exp(-2.0))
    pred = 3.0 * hidden + 1.0
    want = (pred - 0.0) ** 2 + 0.5 * (4.0 + 9.0)
    loss, _ = net.loss_and_grads(X, Y)
    assert loss == pytest.approx(want, rel=1e-14)


# --- Adam oracle -------------------------------------------------------------

def test_adam_step_matches_closed_form():
    # two-parameter quadratic f(t1,t2) = t1^2 + 2 t2^2
    theta = np.array([1.0, -2.0])
    lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
    opt = Adam([theta], lr=lr, beta1=b1, beta2=b2, eps=eps)

    # step 1, hand-computed
    g1 = np.array([2.0 * 1.0, 4.0 * -2.0])
    m = (1 - b1) * g1
    v = (1 - b2) * g1 ** 2
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    want1 = np.array([1.0, -2.0]) - lr * mhat / (np.sqrt(vhat) + eps)
    opt.step([theta], [g1.copy()])
    assert np.max(np.abs(theta - want1)) < 1e-12

    # step 2 continues the moment accumulators and bias correction
    g2 = np.array([2.0 * want1[0], 4.0 * want1[1]])
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 ** 2
    mhat = m / (1 - b1 ** 2)
    vhat = v / (1 - b2 ** 2)
    want2 = want1 - lr * mhat / (np.sqrt(vhat) + eps)
    opt.step([theta], [g2.copy()])
    assert np.max(np.abs(theta - want2)) < 1e-12


# --- training behaviour --------------------------------------------------------

def small_problem(seed=0, n=256):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 4))
    Y = np.stack([np.sin(2 * X[:, 0]) + X[:, 1],
                  X[:, 2] * X[:, 3]], axis=1)
    return X, Y


def test_training_is_deterministic_per_seed():
    X, Y = small_problem()
    cfg = MlpConfig(hidden=(8, 8), epochs=5, batch_size=64)
    a, curve_a = train_mlp(X, Y, cfg, seed=3)
    b, curve_b = train_mlp(X, Y, cfg, seed=3)
    for wa, wb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(wa, wb)
    assert np.array_equal(curve_a, curve_b)
    c, _ = train_mlp(X, Y, cfg, seed=4)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.parameters(), c.parameters()))


def test_numpy_scalar_hyperparameters_train_like_python_floats():
    # a numpy float64 hyperparameter would upcast the float32 training
    # temporaries to float64 and change the trained bits
    X, Y = small_problem()
    floats = dict(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, kernel_l2=5e-4,
                  kernel_l1=1e-5, bias_l2=1e-4, activity_l2=1e-5)
    py = MlpConfig(hidden=(8, 8), epochs=5, batch_size=64, **floats)
    np64 = MlpConfig(hidden=(8, 8), epochs=5, batch_size=64,
                     **{k: np.float64(v) for k, v in floats.items()})
    a, curve_a = train_mlp(X, Y, py, seed=3)
    b, curve_b = train_mlp(X, Y, np64, seed=3)
    for wa, wb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(wa, wb)
    assert np.array_equal(curve_a, curve_b)
    assert all(type(getattr(np64, k)) is float for k in floats)


def test_training_reduces_loss():
    X, Y = small_problem()
    cfg = MlpConfig(hidden=(16,), epochs=60, batch_size=64, kernel_l2=0.0)
    _, curve = train_mlp(X, Y, cfg, seed=1)
    assert curve[-1] < 0.25 * curve[0]


def test_zero_weights_zero_targets_stay_at_zero_loss(monkeypatch):
    class ZeroMlp(Mlp):
        """The network ``train_mlp`` builds, started from all-zero weights."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for w in self.weights:
                w[:] = 0.0

    monkeypatch.setattr(nn_mod, "Mlp", ZeroMlp)
    cfg = MlpConfig(hidden=(6,), epochs=3, batch_size=16)
    X = np.random.default_rng(0).normal(size=(32, 3))
    Y = np.zeros((32, 2))
    net, curve = train_mlp(X, Y, cfg, seed=0)
    assert isinstance(net, ZeroMlp)
    assert np.all(curve == 0.0)
    for w in net.weights:
        assert np.all(w == 0.0)


def test_non_finite_loss_raises():
    X, Y = small_problem()
    X = X.copy()
    X[3, 1] = np.nan  # poisoned sample -> NaN loss on its first batch
    cfg = MlpConfig(hidden=(8,), epochs=3, batch_size=256)
    with pytest.raises(TrainingDivergedError):
        train_mlp(X, Y, cfg, seed=0)


def test_divergence_names_the_epoch_and_the_last_finite_losses():
    X, Y = small_problem()
    cfg = MlpConfig(hidden=(8,), epochs=5, batch_size=256, lr=1e18)
    _, finite = train_mlp(X, Y, replace(cfg, epochs=1), seed=0)
    with pytest.raises(TrainingDivergedError) as info:
        train_mlp(X, Y, cfg, seed=0)     # one step of 1e18 overflows float32
    msg = str(info.value)
    assert "at epoch 1 of 5 (lr=1e+18)" in msg
    assert msg.endswith(f"last finite epoch losses: {finite[0]:.6g}")


def test_divergence_raises_its_own_error_with_no_warning_first():
    X, Y = small_problem()
    cfg = MlpConfig(hidden=(8,), epochs=5, batch_size=256, lr=1e30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # an overflow warning would raise first
        with pytest.raises(TrainingDivergedError, match="non-finite loss inf at epoch 1"):
            train_mlp(X, Y, cfg, seed=0)


def test_final_short_batch_is_used():
    # batch 1024 with n=10 would be one short batch; make sure a tiny set
    # still trains (moves weights)
    X, Y = small_problem(n=10)
    cfg = MlpConfig(hidden=(4,), epochs=2, batch_size=1024)
    net0 = Mlp(4, 2, cfg, seed=7)
    w_init = [w.copy() for w in net0.parameters()]
    net, _ = train_mlp(X, Y, cfg, seed=7)
    assert any(not np.array_equal(a, b) for a, b in zip(w_init, net.parameters()))


# --- architecture facts -----------------------------------------------------------

def test_parameter_counts():
    def n_params(net):
        return sum(p.size for p in net.parameters())

    assert n_params(Mlp(16, 3, MlpConfig())) == 12103
    assert n_params(Mlp(138, 3, LARGE_CONFIG)) == 585503


def test_default_hyperparameters():
    cfg = MlpConfig()
    assert cfg.hidden == (100, 100)
    assert cfg.epochs == 200
    assert cfg.lr == pytest.approx(1e-3)
    assert cfg.batch_size == 1024
    assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
    assert cfg.kernel_l2 == pytest.approx(5e-4)
    assert LARGE_CONFIG.hidden == (600, 500, 400)
    assert LARGE_CONFIG.kernel_l1 == pytest.approx(1e-5)
    assert LARGE_CONFIG.kernel_l2 == pytest.approx(1e-4)
    assert LARGE_CONFIG.bias_l2 == pytest.approx(1e-4)
    assert LARGE_CONFIG.activity_l2 == pytest.approx(1e-5)


# --- numerics ----------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_within_one_eps_of_the_long_double_logistic(dtype):
    z = np.concatenate([np.linspace(-60.0, 60.0, 4801), [-0.0, 1e-3, -1e-3]]).astype(dtype)
    want = 1 / (1 + np.exp(-z.astype(np.longdouble)))
    err = np.abs(_sigmoid(z.copy()).astype(np.longdouble) - want)
    assert err.max() <= np.finfo(dtype).eps


def test_sigmoid_stable_at_extremes():
    z = np.array([-1e308, -1e3, -800.0, -40.0, 0.0, 40.0, 800.0, 1e3, 1e308])
    with np.errstate(over="raise", invalid="raise"):   # underflow to 0 is fine
        s = _sigmoid(z.copy())
    assert np.all(np.isfinite(s))
    assert np.all(s[:3] == 0.0) and np.all(s[-3:] == 1.0)
    assert s[4] == 0.5


# --- bit identity with the reference formulas -------------------------------

SPECIAL = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, 1e308, -1e308,
           5e-324, -5e-324, 1e-45, -1e-45]      # the last two: float32 subnormals
ALL_PENALTIES = MlpConfig(hidden=(7, 5), kernel_l2=1e-4, kernel_l1=1e-5,
                          bias_l2=1e-4, activity_l2=1e-5)


def _bits_equal(a, b):
    """Same dtype, shape and NaN positions, and the same bytes everywhere else
    (so -0.0 != 0.0); a NaN's sign and payload carry no value and may differ."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=7),
                  elements=st.one_of(st.floats(), st.sampled_from(SPECIAL))))
@example(np.array(SPECIAL))
@example(np.empty((0, 3)))
def test_sigmoid_matches_tanh_reference_bitwise(z):
    with np.errstate(over="ignore"):            # float32 casts overflow to inf
        z32 = z.astype(np.float32)
    for v in (z, z32):
        buf = v.copy()
        got = _sigmoid(buf)
        assert got is buf                      # computed in place
        assert _bits_equal(got, sigmoid_ref(v))


def _nudged_net(config, dims=(6, 3), seed=5):
    net = Mlp(dims[0], dims[1], config, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for b in net.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    return net


@pytest.mark.parametrize("config", [MlpConfig(hidden=(7, 5)), ALL_PENALTIES,
                                    MlpConfig(hidden=())])
def test_loss_and_grads_match_reference_bitwise(config):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(33, 6))
    Y = rng.normal(size=(33, 3))
    net = _nudged_net(config)
    loss, grads = net.loss_and_grads(X, Y)
    want_loss, want_grads = loss_and_grads_ref(net, X, Y)
    assert loss == want_loss
    assert len(grads) == len(want_grads)
    for g, w in zip(grads, want_grads):
        assert _bits_equal(g, w)
    assert _bits_equal(forward(net.weights, net.biases, X), forward_ref(net, X))


def test_adam_steps_match_reference_bitwise():
    rng = np.random.default_rng(22)
    net = _nudged_net(ALL_PENALTIES)
    ref = _nudged_net(ALL_PENALTIES)
    params, ref_params = net.parameters(), ref.parameters()
    opt = Adam(params, lr=3e-3)
    opt_ref = Adam(ref_params, lr=3e-3)
    for _ in range(3):
        X = rng.normal(size=(17, 6))
        Y = rng.normal(size=(17, 3))
        _, grads = net.loss_and_grads(X, Y)
        snapshot = [g.copy() for g in grads]
        opt.step(params, grads)
        adam_step_ref(opt_ref, ref_params, snapshot)
        for g, g0 in zip(grads, snapshot):
            assert _bits_equal(g, g0)        # step leaves the gradients alone
        for a, b in zip(params + opt.m + opt.v, ref_params + opt_ref.m + opt_ref.v):
            assert _bits_equal(a, b)


def test_training_matches_reference_loop_bitwise():
    X, Y = small_problem(n=150)
    cfg = replace(ALL_PENALTIES, epochs=3, batch_size=64)
    net, curve = train_mlp(X, Y, cfg, seed=4)

    # train_mlp runs in float32: the data and the seeded initial parameters
    # are rounded to float32 before the first step, and the trained
    # parameters are handed back as float64
    ref = Mlp(X.shape[1], Y.shape[1], cfg, seed=4)
    ref.weights = [w.astype(np.float32) for w in ref.weights]
    ref.biases = [b.astype(np.float32) for b in ref.biases]
    X, Y = X.astype(np.float32), Y.astype(np.float32)
    rng = np.random.default_rng(4)
    params = ref.parameters()
    opt = Adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    want_curve = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(X))
        losses = []
        for start in range(0, len(X), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            loss, grads = loss_and_grads_ref(ref, X[idx], Y[idx])
            adam_step_ref(opt, params, grads)
            losses.append(loss)
        want_curve.append(float(np.mean(losses)))
    assert np.array_equal(curve, np.array(want_curve))
    for a, b in zip(net.parameters(), params):
        assert b.dtype == np.float32
        assert _bits_equal(a, b.astype(np.float64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_gradients_and_adam_keep_the_input_dtype(monkeypatch, dtype):
    # a float64 scalar or temporary anywhere in the hot path would silently
    # upcast float32 training; float64 in must stay float64 for the oracles
    seen = []

    def sigmoid(z):
        seen.append(z.dtype)
        return _sigmoid(z)

    monkeypatch.setattr(nn_mod, "_sigmoid", sigmoid)
    rng = np.random.default_rng(24)
    X = rng.normal(size=(33, 6)).astype(dtype)
    Y = rng.normal(size=(33, 3)).astype(dtype)
    net = _nudged_net(ALL_PENALTIES)
    net.weights = [w.astype(dtype) for w in net.weights]
    net.biases = [b.astype(dtype) for b in net.biases]
    hidden = []
    out = forward(net.weights, net.biases, X, hidden=hidden)
    _, grads = net.loss_and_grads(X, Y)
    params = net.parameters()
    opt = Adam(params, lr=3e-3)
    for _ in range(2):
        opt.step(params, grads)
    assert len(seen) == 4                       # two hidden layers, two passes
    for a in [out, *hidden, *grads, *params, *opt.m, *opt.v]:
        assert a.dtype == dtype
    assert set(seen) == {np.dtype(dtype)}


def test_train_mlp_trains_in_float32_and_returns_float64(monkeypatch):
    seen = set()
    step = Adam.step

    def recording_step(self, params, grads):
        seen.update(a.dtype for a in [*params, *grads, *self.m, *self.v])
        step(self, params, grads)

    monkeypatch.setattr(Adam, "step", recording_step)
    X, Y = small_problem(n=40)
    net, curve = train_mlp(X, Y, MlpConfig(hidden=(5,), epochs=2, batch_size=16))
    assert seen == {np.dtype(np.float32)}
    assert all(p.dtype == np.float64 for p in net.parameters())
    assert curve.dtype == np.float64 and np.all(np.isfinite(curve))


# --- memory ----------------------------------------------------------------

def test_forward_releases_each_layer_input_before_its_sigmoid():
    net = Mlp(138, 3, LARGE_CONFIG, seed=31)
    X = np.random.default_rng(31).normal(size=(2000, 138))
    tracemalloc.start()
    try:
        forward(net.weights, net.biases, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # live at once, per hidden layer: its input and its GEMM output, which
    # the sigmoid overwrites; holding a layer's input into the next layer's
    # GEMM exceeds this bound
    n, f8 = len(X), X.itemsize
    bound = max(n * p * f8 + n * q * f8 for p, q in zip(net.dims[:-2], net.dims[1:-1]))
    assert peak < 1.1 * bound


# --- no mutation -------------------------------------------------------------

@pytest.mark.parametrize("config", [ALL_PENALTIES, MlpConfig(hidden=())])
def test_loss_and_grads_leaves_inputs_and_parameters_unmodified(config):
    rng = np.random.default_rng(23)
    X = rng.normal(size=(20, 6))
    Y = rng.normal(size=(20, 3))
    net = _nudged_net(config)
    before = [a.copy() for a in [X, Y, *net.parameters()]]
    net.loss_and_grads(X, Y)
    forward(net.weights, net.biases, X)
    for a, b in zip([X, Y, *net.parameters()], before):
        assert _bits_equal(a, b)
