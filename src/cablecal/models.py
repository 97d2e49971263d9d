"""Calibration models: map recorded robot-state features to corrected joints.

Four model families share one interface: a fixed per-joint offset, an affine
(linear) model, a degree-2 polynomial model and a small MLP. Each can be fit
in one of two output modes:

  on-error    the model predicts the joint error (truth - reported); the
              correction is added back onto the reported position,
  end-to-end  the model predicts the true joint position directly.

All models consume the raw (unnormalized) feature columns selected by the
dataset schema. Input normalization is learned from the training set and
folded into the stored parameters (offset/linear/MLP) or applied inside
``predict`` (poly2), so a serialized model is self-contained.

Two prediction paths exist deliberately. ``predict`` takes one feature row
and runs in pure Python -- this is the path a servo-loop deployment would
take, and the one the latency benchmarks measure. ``predict_batch`` is the
vectorized numpy path for offline evaluation over whole datasets.

``CalibrationModel`` holds what the kinds share: ``predict`` checks the row
length, runs the kind's ``_row(x)`` and adds the reported joints. Offset,
linear and poly2 are ``_AffineModel`` in an empty, identity and degree-2
basis, with one constructor, scalar row and payload. Each class keeps its
own ``predict_batch`` (``_check_batch``, numpy, ``_add_reported``) because
``perfbench``'s probes wrap each class's own method by name, until they find
the subclasses at run time. ``fit(kind, ...)`` is the one map from a kind's
name to its ``fit_<kind>``.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .core import (_SCHEMA_CHECK, REPORTED_JOINTS, FeatureSchema, _checked,
                   _finite, _json_type, _one_of, _read_json, _replacing, _rule,
                   json_digest, write_json)
from .data import Dataset, NormStats, _norm_check
from .nn import MlpConfig, forward, train_mlp

ON_ERROR = "on-error"
END_TO_END = "end-to-end"
MODES = (ON_ERROR, END_TO_END)

MODEL_FORMAT = "ccm"
MODEL_VERSION = 2

#: poly2 input-width guard: above this the expansion gets quadratically silly.
POLY2_MAX_INPUTS = 64


class ModelError(ValueError):
    """Model fitting, prediction or (de)serialization contract violation."""


check_mode = _rule("mode", f"one of {MODES}", MODES.__contains__, ModelError,
                   number=False)
#: The ridge penalty of the linear and poly2 least-squares fits.
check_ridge = _rule("ridge", "a finite number >= 0", lambda v: v >= 0, ModelError)


def _rep_indices(schema: FeatureSchema) -> tuple:
    """Positions of the reported joint columns within the selected inputs."""
    names = schema.selected_names()
    try:
        return tuple(map(names.index, REPORTED_JOINTS))
    except ValueError:
        raise ModelError(
            f"input selection must include {', '.join(REPORTED_JOINTS)}; "
            "corrections cannot be applied without the reported positions")


def _fit_targets(ds: Dataset, mode: str) -> np.ndarray:
    return ds.errors if mode == ON_ERROR else ds.targets


def _input_norm(ds: Dataset) -> NormStats:
    return ds.norm if ds.norm is not None else NormStats.fit(ds.inputs)


# --------------------------------------------------------------------------
# model classes


class CalibrationModel:
    """Shared mode/schema bookkeeping, the row contract and serialization.

    ``_rep`` holds the reported joints' input positions in the modes whose
    output adds onto them, else None. Each kind supplies ``_row``,
    ``predict_batch``, ``payload`` and ``payload_check``: the check of its
    ``payload`` entry in a ``_checked`` table, whose build makes the
    model."""

    kind: str = "base"
    _correcting_modes = (ON_ERROR,)

    def __init__(self, mode: str, schema: FeatureSchema):
        self.mode = check_mode(mode)
        self.schema = schema
        self._dim = schema.dim_selected
        self._rep = _rep_indices(schema) if mode in self._correcting_modes else None

    def check_compatible(self, schema: FeatureSchema) -> None:
        """Refuse feature layouts other than the one the model was fit on."""
        if schema.hash() != self.schema.hash():
            raise ModelError(
                "feature schema mismatch: model was fit on a different "
                "column layout or selection mask")

    def _check_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._dim:
            raise ModelError(
                f"expected inputs of shape (N, {self._dim}), got {X.shape}")
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            raise ModelError(
                f"inputs must be finite: {len(bad)} row(s) hold NaN or inf, "
                f"first row {bad[0]}")
        return X

    def _add_reported(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self._rep is not None:
            out += X[:, list(self._rep)]
        return out

    def predict(self, x: Sequence) -> list:
        """Corrected joints for one feature row, in pure Python.

        This is the servo path, so it deliberately skips the finiteness
        check that ``predict_batch`` applies: a NaN or inf in ``x`` raises
        no ``ModelError``, and the caller owns that check.
        """
        if len(x) != self._dim:
            raise ModelError(f"expected {self._dim} features, got {len(x)}")
        out = self._row(x)
        r = self._rep
        if r is not None:
            out[0] += x[r[0]]
            out[1] += x[r[1]]
            out[2] += x[r[2]]
        return out


class _AffineModel(CalibrationModel):
    """y = intercept + weights.T @ phi(x) in a subclass's basis phi of
    ``_terms(d)`` terms, given for one row by ``_basis(x)`` and for a matrix
    in ``predict_batch``. A ``_normalized`` basis applies ``norm`` first."""

    _normalized = False

    def __init__(self, mode: str, schema: FeatureSchema, weights, intercept,
                 norm: Optional[NormStats] = None):
        super().__init__(mode, schema)
        self.weights = np.asarray(weights, dtype=float)     # (terms, 3)
        self.intercept = np.asarray(intercept, dtype=float)  # (3,)
        self.norm = norm
        if (self.weights.shape != (self._terms(self._dim), 3)
                or self.intercept.shape != (3,) or (norm is None) == self._normalized):
            raise ModelError(f"bad {self.kind} parameters: weights {self.weights.shape}, "
                             f"intercept {self.intercept.shape}, norm {norm is not None}")
        self._wt = self.weights.T.tolist()   # 3 rows of terms floats
        self._b = self.intercept.tolist()
        if norm is not None:
            self._mean, self._sd = norm.mean.tolist(), norm.sd.tolist()

    def _row(self, x) -> list:
        # unrolled: a comprehension adds a call frame to every servo-path row
        phi, wt, b = self._basis(x), self._wt, self._b
        return [b[0] + sum(map(mul, wt[0], phi)), b[1] + sum(map(mul, wt[1], phi)),
                b[2] + sum(map(mul, wt[2], phi))]

    def _affine(self, phi: np.ndarray) -> np.ndarray:
        return phi @ self.weights + self.intercept

    def payload(self) -> dict:
        out = {"intercept": self._b, "weights": self.weights.tolist(),
               "norm": self.norm and self.norm.to_dict()}
        return {k: v for k, v in out.items() if v}  # no empty weights, no None norm

    @classmethod
    def payload_check(cls, mode, schema):
        d = schema.dim_selected
        return ({"intercept": ("number", (3,), True),
                 "weights": ("number", (cls._terms(d), 3), cls._terms(d) > 0),
                 "norm": ("object", _norm_check(d), cls._normalized)},
                lambda p: cls(mode, schema, p.get("weights", np.empty((0, 3))),
                              p["intercept"], p.get("norm")))


class FixedOffsetModel(_AffineModel):
    """Corrected position = reported position + a constant per-joint offset,
    the intercept of an empty basis; ``_row`` copies it, as a sum over no
    terms would turn -0.0 into 0.0. The offset adds onto the reported joints
    in both modes, so the on-error and end-to-end fits coincide: either way
    it is the mean training error."""

    kind = "offset"
    _correcting_modes = MODES
    _terms = staticmethod(lambda d: 0)

    def _row(self, x) -> list:
        return self._b.copy()

    def predict_batch(self, X) -> np.ndarray:
        X = self._check_batch(X)
        return self._add_reported(X, np.tile(self.intercept, (len(X), 1)))


class LinearModel(_AffineModel):
    """Affine model in raw feature space: y = intercept + weights.T @ x.

    Fitting runs on normalized inputs for conditioning; the stored weights
    have the normalization folded back in, so prediction is a bare dot
    product (D_in + 1 parameters per joint).
    """

    kind = "linear"
    _terms = staticmethod(lambda d: d)

    def _basis(self, x):
        return x

    def predict_batch(self, X) -> np.ndarray:
        X = self._check_batch(X)
        return self._add_reported(X, self._affine(X))


def _poly2_expand(Z: np.ndarray) -> np.ndarray:
    """Degree-2 feature map: all z_i, then z_i * z_j for i <= j."""
    d = Z.shape[1]
    cols = [Z]
    for i in range(d):
        cols.append(Z[:, i:i + 1] * Z[:, i:])
    return np.hstack(cols)


class PolyModel(_AffineModel):
    """Degree-2 polynomial on normalized features.

    Unlike the linear model the normalization cannot be folded into the
    coefficients (the quadratic terms mix it), so the stats travel with the
    model and are applied inside predict.
    """

    kind = "poly2"
    _normalized = True
    _terms = staticmethod(lambda d: d + d * (d + 1) // 2)

    def _basis(self, x) -> list:
        z = [(v - m) / s for v, m, s in zip(x, self._mean, self._sd)]
        phi = list(z)
        for i, zi in enumerate(z):
            phi.extend(zi * zj for zj in z[i:])
        return phi

    def predict_batch(self, X) -> np.ndarray:
        X = self._check_batch(X)
        return self._add_reported(
            X, self._affine(_poly2_expand(self.norm.apply(X))))


#: The check of an MLP ``config`` entry: each ``MlpConfig`` field, of its
#: default's JSON type.
_MLP_CONFIG_CHECK = (
    {k: ("integer", (None,), True) if k == "hidden" else (_json_type(v), None, True)
     for k, v in MlpConfig().to_dict().items()},
    lambda d: MlpConfig(**dict(d, hidden=tuple(d["hidden"].tolist()))))


def _layer_shapes(schema: FeatureSchema, config: MlpConfig) -> tuple:
    """(weight shapes, bias shapes) of an MLP whose layers chain from the
    schema's selected width through ``config.hidden`` to the 3 joints."""
    dims = (schema.dim_selected, *config.hidden, 3)
    return list(zip(dims, dims[1:])), [(n,) for n in dims[1:]]


class MlpModel(CalibrationModel):
    """Trained MLP with input/target normalization folded into the weights.

    The first layer absorbs the input statistics and the output layer the
    target statistics, so the stored network maps raw features straight to
    (mode-dependent) raw outputs.

    The scalar ``predict`` path runs on nested-list copies of the parameters
    (about 19 MB for ``LARGE_CONFIG``). They are built on the first
    ``predict`` call, not at construction, so a model that is only fit,
    evaluated in batch or serialized never holds them. A real-time loop
    should call ``predict`` once before its first deadline.
    """

    kind = "mlp"

    def __init__(self, mode: str, schema: FeatureSchema, weights, biases,
                 config: MlpConfig, train_curve: Optional[list] = None,
                 seed: Optional[int] = None):
        super().__init__(mode, schema)
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        got = ([w.shape for w in self.weights], [b.shape for b in self.biases])
        want = _layer_shapes(schema, config)
        if got != want:
            raise ModelError(f"MLP (weight, bias) shapes {got} do not chain the schema "
                             f"width, config.hidden and 3 outputs: {want}")
        self.config = config
        self.train_curve = list(train_curve) if train_curve is not None else None
        self.seed = seed

    @cached_property
    def _tables(self) -> tuple:
        """Python-native (hidden layers, output rows, output bias) for the
        scalar path: per hidden layer, its weight rows and bias as lists."""
        hidden = [(w.T.tolist(), b.tolist())
                  for w, b in zip(self.weights[:-1], self.biases[:-1])]
        return hidden, self.weights[-1].T.tolist(), self.biases[-1].tolist()

    def _row(self, x) -> list:
        hidden, out_w, out_b = self._tables
        exp = math.exp
        a = x
        for rows, bias in hidden:
            nxt = []
            for row, b0 in zip(rows, bias):
                s = b0 + sum(map(mul, row, a))
                if s >= 0.0:
                    nxt.append(1.0 / (1.0 + exp(-s)))
                else:
                    e = exp(s)
                    nxt.append(e / (1.0 + e))
            a = nxt
        return [b0 + sum(map(mul, row, a)) for row, b0 in zip(out_w, out_b)]

    def predict_batch(self, X) -> np.ndarray:
        X = self._check_batch(X)
        return self._add_reported(X, forward(self.weights, self.biases, X))

    def payload(self) -> dict:
        out = {
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "config": self.config.to_dict(),
        }
        if self.train_curve is not None:
            out["train_curve"] = self.train_curve
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def payload_check(cls, mode, schema):
        def layers(i):      # weights (i = 0) or biases (i = 1) of each layer
            return lambda got: ("array", {
                str(n): ("number", shape, True) for n, shape in
                enumerate(_layer_shapes(schema, got["config"])[i])}, True)
        return ({"config": ("object", _MLP_CONFIG_CHECK, True),
                 "weights": layers(0), "biases": layers(1),
                 "train_curve": ("number", (None,), False),
                 "seed": ("integer", None, False)},
                lambda p: cls(mode, schema, p["weights"], p["biases"], p["config"],
                              p["train_curve"].tolist() if "train_curve" in p
                              else None, p.get("seed")))


_KINDS = {cls.kind: cls for cls in
          (FixedOffsetModel, LinearModel, PolyModel, MlpModel)}
MODEL_KINDS = tuple(_KINDS)
check_kind = _rule("model", f"one of {MODEL_KINDS}", MODEL_KINDS.__contains__,
                   ModelError, number=False)


# --------------------------------------------------------------------------
# fitting


def _solve_affine(Phi: np.ndarray, Y: np.ndarray, ridge: float) -> tuple:
    """Least squares with intercept; (intercept (3,), coef (P, 3)).

    ridge = 0 uses the SVD minimum-norm solution, which keeps the on-error
    and end-to-end fits exactly prediction-equivalent (the reported joints
    are themselves inputs, so the two targets differ by an in-span affine
    term). A positive ridge penalizes all non-intercept coefficients.
    """
    check_ridge(ridge)
    A = np.hstack([np.ones((len(Phi), 1)), Phi])
    if ridge > 0.0:
        pen = np.ones(A.shape[1])
        pen[0] = 0.0
        W = np.linalg.solve(A.T @ A + ridge * np.diag(pen), A.T @ Y)
    else:
        W, *_ = np.linalg.lstsq(A, Y, rcond=None)
    return W[0], W[1:]


def fit_offset(ds: Dataset, mode: str = ON_ERROR) -> FixedOffsetModel:
    """Constant per-joint correction: the mean training error."""
    return FixedOffsetModel(mode, ds.schema, np.empty((0, 3)), ds.errors.mean(axis=0))


def fit_linear(ds: Dataset, mode: str = ON_ERROR, ridge: float = 0.0) -> LinearModel:
    norm = _input_norm(ds)
    b_n, W_n = _solve_affine(norm.apply(ds.inputs), _fit_targets(ds, mode), ridge)
    # fold (x - mean) / sd back into raw-space parameters
    W = W_n / norm.sd[:, None]
    b = b_n - (norm.mean / norm.sd) @ W_n
    return LinearModel(mode, ds.schema, W, b)


def fit_poly2(ds: Dataset, mode: str = ON_ERROR, ridge: float = 0.0) -> PolyModel:
    d = ds.inputs.shape[1]
    if d > POLY2_MAX_INPUTS:
        raise ModelError(
            f"poly2 on {d} inputs expands to {PolyModel._terms(d)} terms; "
            f"at most {POLY2_MAX_INPUTS} inputs are supported")
    norm = _input_norm(ds)
    phi = _poly2_expand(norm.apply(ds.inputs))
    b, C = _solve_affine(phi, _fit_targets(ds, mode), ridge)
    return PolyModel(mode, ds.schema, C, b, norm)


def fit_mlp(ds: Dataset, mode: str = ON_ERROR,
            config: Optional[MlpConfig] = None, seed: int = 0) -> MlpModel:
    """Train the MLP on normalized inputs against standardized targets.

    Target standardization is per output column and per mode (the error
    target and the absolute-position target live on very different scales),
    then folded into the output layer along with the input stats in the
    first layer.
    """
    check_mode(mode)
    config = config if config is not None else MlpConfig()
    norm = _input_norm(ds)
    Y = _fit_targets(ds, mode)
    tnorm = NormStats.fit(Y)
    net, curve = train_mlp(norm.apply(ds.inputs), tnorm.apply(Y), config, seed)

    # fold in place, as net is discarded: the bias reads weights[0] before
    # it is divided, and with no hidden layer weights[0] is weights[-1] and
    # takes both folds in this order
    weights, biases = net.weights, net.biases
    biases[0] -= (norm.mean / norm.sd) @ weights[0]
    weights[0] /= norm.sd[:, None]
    weights[-1] *= tnorm.sd[None, :]
    biases[-1] *= tnorm.sd
    biases[-1] += tnorm.mean
    return MlpModel(mode, ds.schema, weights, biases, config,
                    train_curve=curve.tolist(), seed=seed)


def fit(kind: str, ds: Dataset, mode: str = ON_ERROR, ridge: float = 0.0,
        mlp: Optional[MlpConfig] = None, seed: int = 0) -> CalibrationModel:
    """Fit model ``kind`` with ``fit_<kind>``, looked up when called: the
    affine kinds take ``ridge``, the MLP ``mlp`` and ``seed``."""
    args = {"linear": (ridge,), "poly2": (ridge,), "mlp": (mlp, seed)}.get(
        check_kind(kind), ())
    return globals()[f"fit_{kind}"](ds, mode, *args)


# --------------------------------------------------------------------------
# serialization


def _checksum(doc: dict) -> str:
    return json_digest({k: v for k, v in doc.items() if k != "checksum"})


def serialize(model: CalibrationModel, path) -> None:
    """Write a self-describing, checksummed model file (.ccm JSON); a model
    with a NaN or infinite parameter raises ModelError and leaves ``path``
    as it was, as :func:`deserialize` would refuse the file."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "mode": model.mode,
        "schema": model.schema.to_dict(),
        "payload": model.payload(),
    }
    if not _finite(doc["payload"]):
        raise ModelError(f"{path}: {model.kind} parameters hold NaN or infinities")
    doc["checksum"] = _checksum(doc)
    with _replacing(path) as (fh,):
        write_json(doc, fh)


def deserialize(path) -> CalibrationModel:
    """Read a model file written by :func:`serialize`; a bad entry raises
    ``ModelError`` naming the file and the entry."""
    doc = _read_json(path, ModelError)
    return _checked(doc, {
        "format": ("string", _one_of(MODEL_FORMAT), True),
        "version": ("integer", _one_of(MODEL_VERSION), True),
        "checksum": ("string", _one_of(_checksum(doc)), True),
        "kind": ("string", check_kind, True),
        "mode": ("string", check_mode, True),
        "schema": ("object", _SCHEMA_CHECK, True),
        "payload": lambda got: ("object", _KINDS[got["kind"]].payload_check(
            got["mode"], got["schema"]), True),
    }, path, ModelError)["payload"]
