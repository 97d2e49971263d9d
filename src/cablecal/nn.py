"""Minimal dense-MLP engine: sigmoid hidden layers, MSE loss, Adam.

Hand-rolled on numpy so training is deterministic given a seed and the
arithmetic is fully inspectable (the gradient and optimizer steps are each
checked against independent oracles in the test suite). Only what the
calibration models need: fully connected layers, sigmoid hidden activations,
a linear output layer, L1/L2 weight penalties and an L2 activity penalty.

Loss definition (what the gradients implement):

    L = mean((pred - y)^2)                         over batch and outputs
      + sum_layers kernel_l2 * sum(W^2) + kernel_l1 * sum(|W|)
      + bias_l2 * sum(b^2)
      + activity_l2 * sum(hidden^2) / batch_size

Training runs in float32; the stored model is float64. ``train_mlp`` is the
one place that casts: it rounds the data and the seeded initial parameters
to float32, runs every epoch in float32 (half the GEMM and ``tanh`` cost of
float64), and hands the trained parameters back as float64, so the
normalization fold, the model file and both predict paths stay float64.
The learned inputs are z-scored and the targets standardized, so float32's
relative precision (6e-8) is far below anything the model resolves.
``forward``, ``_sigmoid``, ``Mlp.loss_and_grads`` and ``Adam.step`` keep the
dtype they are given (the gradient and Adam oracles run in float64): their
constants and the ``MlpConfig`` hyperparameters enter as Python scalars,
which take the array's dtype, where a numpy float64 scalar would upcast.

Bit-for-bit reproducibility is part of the contract: ``_sigmoid``, ``forward``,
``Mlp.loss_and_grads`` and ``Adam.step`` must return exactly the floats of the
plain out-of-place reference formulas (kept in ``tests/test_nn.py``), so a
seeded fit writes the same model bytes on every release, given the same BLAS
build and thread count. A threaded BLAS may split a GEMM's inner sum
differently at another thread count: on OpenBLAS the weight gradients of
short batches (952 or 500 rows) and the ``LARGE_CONFIG`` forward GEMMs of
inner width 600 and 500 move their last bits, so the trained weights of the
default network differ across thread counts too. The hot path is therefore
written in place -- fewer temporaries, the same operations in the same
order -- rather than rearranged.

Activations are released right after their last use, with no change to the
arithmetic. ``forward`` lets go of a layer's input once its GEMM is done
(unless the caller collects the activations), so it never holds more than
two adjacent layers' outputs; the backward pass of ``Mlp.loss_and_grads``
lets go of each hidden activation once the delta has gone through its
sigmoid derivative.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _rule


class TrainingDivergedError(RuntimeError):
    pass


_MLP_CHECKS = {
    "hidden": _rule("hidden", "a tuple of layer widths >= 1", lambda v: type(v) is tuple
                    and all(type(n) is int and n >= 1 for n in v), ValueError, number=False),
    **{k: _rule(k, "an integer >= 1", lambda v: operator.index(v) >= 1, ValueError)
       for k in ("epochs", "batch_size")},
    **{k: _rule(k, "a finite number > 0", lambda v: v > 0, ValueError) for k in ("lr", "eps")},
    **{k: _rule(k, "a finite number in [0, 1)", lambda v: 0 <= v < 1, ValueError)
       for k in ("beta1", "beta2")},
    **{k: _rule(k, "a finite number >= 0", lambda v: v >= 0, ValueError)
       for k in ("kernel_l2", "kernel_l1", "bias_l2", "activity_l2")},
}


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple = (100, 100)
    epochs: int = 200
    lr: float = 1e-3
    batch_size: int = 1024
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    kernel_l2: float = 5e-4
    kernel_l1: float = 0.0
    bias_l2: float = 0.0
    activity_l2: float = 0.0

    def __post_init__(self):
        # a checked float is stored as a Python float, as a numpy scalar
        # would upcast float32 training
        for name, check in _MLP_CHECKS.items():
            v = check(getattr(self, name))
            object.__setattr__(self, name, v if name in ("hidden", "epochs", "batch_size")
                               else float(v))

    def to_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.__dict__.items()}


#: The wider 3-hidden-layer variant used in full-feature robustness studies.
LARGE_CONFIG = MlpConfig(hidden=(600, 500, 400), kernel_l2=1e-4, kernel_l1=1e-5,
                         bias_l2=1e-4, activity_l2=1e-5)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic of ``z`` as ``0.5 * (1 + tanh(z / 2))``, written over ``z``
    and returned. ``tanh`` cannot overflow, so the one formula holds for
    every z (+-inf map to 0 and 1, NaN to NaN), and the in-place steps round
    exactly as the out-of-place expression does."""
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


def forward(weights: list, biases: list, X: np.ndarray,
            hidden: Optional[list] = None) -> np.ndarray:
    """Network output for the rows of ``X``: sigmoid hidden layers, linear
    output. Each hidden activation is appended to ``hidden`` when given."""
    a = X
    for w, b in zip(weights[:-1], biases[:-1]):
        a = a @ w                   # rebinding releases the layer input
        a += b
        a = _sigmoid(a)                         # in place
        if hidden is not None:
            hidden.append(a)
    out = a @ weights[-1]
    out += biases[-1]
    return out


class Mlp:
    """Dense network [D_in -> hidden... -> D_out], sigmoid hidden, linear out."""

    def __init__(self, dim_in: int, dim_out: int, config: MlpConfig, seed: int = 0):
        self.config = config
        self.dims = (dim_in, *config.hidden, dim_out)
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, (fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    def parameters(self) -> list:
        """Flat list of parameter arrays (weights then bias per layer)."""
        return [p for layer in zip(self.weights, self.biases) for p in layer]

    def loss_and_grads(self, X: np.ndarray, Y: np.ndarray) -> tuple:
        """Total loss and gradients in parameters() order."""
        cfg = self.config
        n, k_out = Y.shape
        acts = [X]
        resid = forward(self.weights, self.biases, X, hidden=acts)
        resid -= Y

        loss = float(np.mean(resid ** 2))
        loss += sum(cfg.kernel_l2 * float(np.sum(w ** 2)) for w in self.weights)
        if cfg.kernel_l1:
            loss += sum(cfg.kernel_l1 * float(np.sum(np.abs(w))) for w in self.weights)
        if cfg.bias_l2:
            loss += sum(cfg.bias_l2 * float(np.sum(b ** 2)) for b in self.biases)
        if cfg.activity_l2:
            loss += cfg.activity_l2 * sum(float(np.sum(a ** 2)) for a in acts[1:]) / n

        grads = [None] * (2 * len(self.weights))
        delta = resid                                # d loss / d pred
        delta *= 2.0
        delta /= n * k_out
        for li in range(len(self.weights) - 1, -1, -1):
            w = self.weights[li]
            gw = acts[li].T @ delta
            gw += 2.0 * cfg.kernel_l2 * w
            if cfg.kernel_l1:
                gw += cfg.kernel_l1 * np.sign(w)
            gb = delta.sum(axis=0)
            if cfg.bias_l2:
                gb += 2.0 * cfg.bias_l2 * self.biases[li]
            grads[2 * li] = gw
            grads[2 * li + 1] = gb
            if li > 0:
                # acts[li] (li > 0) is a hidden activation owned here, never
                # X; this is its last use, so the list lets go of it
                a = acts[li]
                acts[li] = None
                delta = delta @ w.T
                if cfg.activity_l2:
                    pen = 2.0 * cfg.activity_l2 * a
                    pen /= n
                    delta += pen
                    del pen
                delta *= a                            # sigmoid' = a (1 - a)
                np.subtract(1.0, a, out=a)
                delta *= a
                del a
        return loss, grads


class Adam:
    """Adam over a list of parameter arrays, updated in place."""

    def __init__(self, params: list, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list, grads: list) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            # p -= lr * (m / b1c) / (sqrt(v / b2c) + eps), one temporary pair
            tmp = g * (1.0 - self.beta1)
            m *= self.beta1
            m += tmp
            np.square(g, out=tmp)
            tmp *= 1.0 - self.beta2
            v *= self.beta2
            v += tmp
            np.divide(m, b1c, out=tmp)
            tmp *= self.lr
            den = v / b2c
            np.sqrt(den, out=den)
            den += self.eps
            tmp /= den
            p -= tmp


def train_mlp(X: np.ndarray, Y: np.ndarray, config: MlpConfig, seed: int = 0) -> tuple:
    """Mini-batch Adam training in float32; returns (net, per-epoch mean
    batch loss), the net's parameters as float64.

    Each epoch shuffles all rows; the final short batch is kept. Fully
    deterministic given (data, config, seed, BLAS build and thread count).
    """
    n = len(X)
    if n == 0 or len(Y) != n:
        raise ValueError("X and Y must be non-empty with matching rows")
    rng = np.random.default_rng(seed)
    net = Mlp(X.shape[1], Y.shape[1], config, seed=seed)
    X, Y = X.astype(np.float32), Y.astype(np.float32)
    net.weights = [w.astype(np.float32) for w in net.weights]
    net.biases = [b.astype(np.float32) for b in net.biases]
    params = net.parameters()
    opt = Adam(params, config.lr, config.beta1, config.beta2, config.eps)
    curve = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        losses = []
        # a diverging epoch overflows; the check below names it, with no
        # numpy warning before it
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, config.batch_size):
                idx = perm[start:start + config.batch_size]
                loss, grads = net.loss_and_grads(X[idx], Y[idx])
                opt.step(params, grads)
                losses.append(loss)
            epoch_loss = float(np.mean(losses))
        if not np.isfinite(epoch_loss):
            last = ", ".join(f"{v:.6g}" for v in curve[-3:]) or "none"
            raise TrainingDivergedError(
                f"non-finite loss {epoch_loss} at epoch {epoch} of {config.epochs} "
                f"(lr={config.lr}); last finite epoch losses: {last}")
        curve.append(epoch_loss)
    net.weights = [w.astype(np.float64) for w in net.weights]
    net.biases = [b.astype(np.float64) for b in net.biases]
    return net, np.array(curve)
