"""The benchmark's three workloads, driven through the public ``cablecal`` API.

Each workload splits one iteration into ``inputs`` (input construction,
untimed), ``body`` (the timed calls into the library, each group of calls
timed as a named step) and ``check`` (the correctness gate and the numbers
taken from the products, untimed).  Every library call goes through a
module attribute (``data.record``, not a name bound at import) so that the
traced run's wrappers see it.

Why these workloads (``workloads.json`` lists the layers each stresses and
bypasses):

* ``session`` -- the paper's acquisition path at full rate: one real-time
  loaded random-sinusoid session through record, bag I/O, pairing, dataset
  I/O and the closed-form fits.  ``sim``, ``data`` I/O and ``synchronize``
  do the work; ``nn`` does none.
* ``train`` -- an in-memory calibration campaign: paper rasters recorded
  at twice real time, then the 16->100->100 MLP (activation-bound) and the
  138->600->500->400 MLP (GEMM-bound).  ``nn`` does the work; no disk I/O.
* ``pipeline`` -- ``cablecal pipeline`` as users run it, once per model
  kind, then deployment: read each model file back and serve batch-1
  ``predict`` to one closed-loop caller (each call sent when the previous
  returned, no rate limit), then one ``predict_batch`` over the test rows.
  The only workload through ``cli``, manifest hashing, small-file I/O and
  the pure-Python scalar path.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import shutil
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import cablecal.cli as cli
from cablecal import data, evaluate, models, nn, sim, trajectory
from cablecal.core import DEFAULT_LIMITS

from probes import path_bytes

#: Simulated (and, at time_scale 1, recorded) length of the session: long
#: enough that persistence dominates, short enough for ~15 iterations a run.
SESSION_S = 240.0

#: Paper rasters of the training campaign: (direction, sparsity).
TRAIN_RASTERS = (("j1j2j3", 1 / 3), ("j2j3", 1 / 3), ("j1j2", 1 / 3),
                 ("j1j3", 1 / 3))
#: Twice real time: the fastest scale at which every 30 Hz state sample
#: still pairs with a 100 Hz truth sample inside the 10 ms tolerance.
TRAIN_TIME_SCALE = 2.0
TRAIN_MLP_EPOCHS = 15
#: The large net sees one epoch over the leading rows of the full-feature
#: training block; enough GEMM work to dominate, short enough to repeat.
LARGE_EPOCHS = 1
LARGE_ROWS = 2048

PIPELINE_KINDS = ("offset", "linear", "poly2", "mlp")
PIPELINE_EPOCHS = 40
#: Within the 2.5x at which 30 Hz state still pairs fully with 100 Hz truth.
PIPELINE_TIME_SCALE = 2.5
#: Closed-loop batch-1 calls per model per iteration.  The MLP count keeps
#: at least 1000 samples in a run with two untraced iterations, so p99 has
#: 10 samples beyond it.
SERVE_CALLS = {"offset": 2000, "linear": 4000, "poly2": 1000, "mlp": 500}

#: Rows whose scalar and batch predictions are compared, and the tolerance.
SCALAR_CHECK_ROWS = 20
SCALAR_TOLERANCE = 1e-9


class Steps:
    """Wall time of each named step of one iteration's body."""

    def __init__(self):
        self.times: dict = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - t0


@dataclass
class Outcome:
    """What one iteration measured and whether its outputs were right."""

    rows: int          # state rows carried from record to evaluate
    headline: tuple    # (model RMSE (3,), fixed-offset RMSE (3,), test rows)
    digest: str        # sha256 over artifacts / model parameters
    checks: dict       # check name -> passed
    extra: dict = field(default_factory=dict)         # workload-only metrics
    latencies_ns: dict = field(default_factory=dict)  # kind -> [ns, ...]


def _headline(report) -> tuple:
    return (np.asarray(report.model), np.asarray(report.fixed_offset),
            report.n_samples)


def _below_offset(headline) -> bool:
    model, offset, _ = headline
    return bool(np.mean(model / offset) < 1.0)


def _arrays_equal(*pairs) -> bool:
    return all(np.array_equal(a, b) for a, b in pairs)


def _datasets_equal(a, b) -> bool:
    return _arrays_equal((a.t, b.t), (a.inputs, b.inputs),
                         (a.targets, b.targets), (a.reported, b.reported))


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        p = Path(p)
        files = sorted(q for q in p.rglob("*") if q.is_file()) if p.is_dir() else [p]
        for f in files:
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def _digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _scalar_matches_batch(model, X, n_rows: int) -> bool:
    """Pure-Python ``predict`` agrees with ``predict_batch`` on sampled rows."""
    idx = np.linspace(0, len(X) - 1, min(n_rows, len(X))).astype(int)
    batch = model.predict_batch(X[idx])
    scalar = np.array([model.predict([float(v) for v in X[i]]) for i in idx])
    return bool(np.max(np.abs(scalar - batch)) <= SCALAR_TOLERANCE)


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _leading(ds, n: int):
    return data.Dataset(ds.t[:n], ds.inputs[:n], ds.targets[:n],
                        ds.reported[:n], ds.schema, ds.norm, dict(ds.meta))


class Workload:
    name = ""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)

    def prepare(self) -> None:
        """One-off set-up shared by every iteration (idempotent)."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def fresh_dir(self) -> Path:
        """The iteration's artifact directory, emptied (untimed)."""
        d = self.workdir / "iter"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def inputs(self, seed: int):
        raise NotImplementedError

    def body(self, inp, step: Steps, recorder=None):
        raise NotImplementedError

    def check(self, inp, out) -> Outcome:
        raise NotImplementedError

    def bag_dir(self):
        """A bag written by the last iteration, for the memory probe."""
        return None


class Session(Workload):
    name = "session"

    def inputs(self, seed):
        return SimpleNamespace(
            seed=seed, error_model=sim.default_error_model(),
            policy=sim.RandomSinusoidPolicy(DEFAULT_LIMITS, seed, SESSION_S),
            dir=self.fresh_dir())

    def body(self, inp, step, recorder=None):
        d = inp.dir
        with step("record"):
            bag = data.record(inp.policy, inp.error_model, duration=SESSION_S,
                              load="loaded", seed=inp.seed)
        with step("save_bag"):
            data.save_bag(bag, d / "bag")
        with step("load_bag"):
            loaded = data.load_bag(d / "bag")
        with step("synchronize"):
            ds16 = data.synchronize(loaded)
            ds138 = data.synchronize(loaded, full_features=True)
        with step("split"):
            train, test = data.split_and_normalize(ds16)
        with step("save_dataset"):
            data.save_dataset(train, d / "train.csv")
            data.save_dataset(test, d / "test.csv")
        with step("load_dataset"):
            train_rt = data.load_dataset(d / "train.csv")
            test_rt = data.load_dataset(d / "test.csv")
        with step("fit"):
            offset = models.fit_offset(train_rt)
            linear = models.fit_linear(train_rt)
            poly2 = models.fit_poly2(train_rt)
        with step("evaluate"):
            report = evaluate.evaluate_model(linear, test_rt, offset)
            poly2_report = evaluate.evaluate_model(poly2, test_rt, offset)
            decay = evaluate.decay_curve(linear, test_rt, offset)
        return SimpleNamespace(
            d=d, bag=bag, loaded=loaded, ds16=ds16, ds138=ds138, train=train,
            test=test, train_rt=train_rt, test_rt=test_rt, offset=offset,
            linear=linear, poly2=poly2, report=report,
            poly2_report=poly2_report, decay=decay)

    def check(self, inp, out) -> Outcome:
        n_state = len(out.loaded.state.t)
        X = out.test_rt.inputs
        artifacts = [out.d / "bag", out.d / "train.csv", out.d / "train.json",
                     out.d / "test.csv", out.d / "test.json"]
        headline = _headline(out.report)
        checks = {
            "load_bag_round_trip": _arrays_equal(
                (out.loaded.state.t, out.bag.state.t),
                (out.loaded.state.features, out.bag.state.features),
                (out.loaded.truth.t, out.bag.truth.t),
                (out.loaded.truth.q, out.bag.truth.q)),
            "load_dataset_round_trip": (_datasets_equal(out.train_rt, out.train)
                                        and _datasets_equal(out.test_rt, out.test)),
            "pair_ratio_16": len(out.ds16) == n_state,
            "pair_ratio_138": len(out.ds138) == n_state,
            "rmse_ratio_below_1": _below_offset(headline),
            "predictions_finite": _finite(
                out.linear.predict_batch(X), out.poly2.predict_batch(X),
                out.poly2_report.model, *[r.model for r in out.decay]),
            "scalar_matches_batch": all(
                _scalar_matches_batch(m, X, SCALAR_CHECK_ROWS)
                for m in (out.offset, out.linear, out.poly2)),
        }
        return Outcome(
            rows=n_state, headline=headline,
            digest=_digest_files(artifacts), checks=checks,
            extra={"artifact_mb": sum(path_bytes(p) for p in artifacts) / 1e6})

    def bag_dir(self):
        return self.workdir / "iter" / "bag"


class Train(Workload):
    name = "train"

    def inputs(self, seed):
        return SimpleNamespace(seed=seed, error_model=sim.default_error_model())

    def body(self, inp, step, recorder=None):
        with step("generate"):
            trajs = [trajectory.generate(d, sp) for d, sp in TRAIN_RASTERS]
        with step("record"):
            bags = [data.record(t, inp.error_model, load="loaded",
                                seed=inp.seed * len(trajs) + i,
                                time_scale=TRAIN_TIME_SCALE)
                    for i, t in enumerate(trajs)]
        with step("synchronize"):
            ds16 = data.concat([data.synchronize(b) for b in bags])
            ds138 = data.concat([data.synchronize(b, full_features=True)
                                 for b in bags])
        with step("split"):
            train, test = data.split_and_normalize(ds16)
            train_f, test_f = data.split_and_normalize(ds138)
            head_f = _leading(train_f, LARGE_ROWS)
        with step("fit_mlp_16"):
            mlp = models.fit_mlp(train, models.ON_ERROR,
                                 nn.MlpConfig(epochs=TRAIN_MLP_EPOCHS),
                                 inp.seed)
        with step("fit_mlp_138"):
            large = models.fit_mlp(head_f, models.ON_ERROR,
                                   replace(nn.LARGE_CONFIG, epochs=LARGE_EPOCHS),
                                   inp.seed)
        with step("evaluate"):
            offset = models.fit_offset(train)
            report = evaluate.evaluate_model(mlp, test, offset)
            offset_f = models.fit_offset(train_f)
            large_report = evaluate.evaluate_model(large, test_f, offset_f)
        return SimpleNamespace(
            bags=bags, ds16=ds16, ds138=ds138, train=train, test=test,
            test_f=test_f, head_f=head_f, mlp=mlp, large=large,
            fit_s=step.times["fit_mlp_16"] + step.times["fit_mlp_138"],
            report=report, large_report=large_report)

    def check(self, inp, out) -> Outcome:
        n_state = sum(len(b.state.t) for b in out.bags)
        params = [a for m in (out.mlp, out.large)
                  for a in (*m.weights, *m.biases)]
        samples = (len(out.train) * TRAIN_MLP_EPOCHS
                   + len(out.head_f) * LARGE_EPOCHS)
        headline = _headline(out.report)
        checks = {
            "pair_ratio_16": len(out.ds16) == n_state,
            "pair_ratio_138": len(out.ds138) == n_state,
            "rmse_ratio_below_1": _below_offset(headline),
            "predictions_finite": _finite(
                out.mlp.predict_batch(out.test.inputs),
                out.large.predict_batch(out.test_f.inputs),
                out.large_report.model),
            "scalar_matches_batch": _scalar_matches_batch(
                out.mlp, out.test.inputs, SCALAR_CHECK_ROWS),
        }
        return Outcome(
            rows=n_state, headline=headline,
            digest=_digest_arrays(params + [out.ds16.inputs, out.ds138.inputs,
                                            out.ds16.targets]),
            checks=checks,
            extra={"train_samples_per_s": samples / out.fit_s})


PIPELINE_CONFIG = """\
[trajectory]
direction = "j2j3"
sparsity = 0.5

[training]
model = "{kind}"
epochs = {epochs}

[eval]
time_scale = {time_scale}
latency_samples = 100
repeats = 1
"""

#: Pipeline outputs that carry timings, so are excluded from the digest.
TIMED_OUTPUTS = ("manifest.json", "latency.csv", "latency.json")


def _invoke_cli(args) -> int:
    """Run the ``cablecal`` command in this process; its exit status."""
    try:
        cli.main.main(args=args, prog_name="cablecal", standalone_mode=False)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def _serve(model, rows, calls: int) -> list:
    """One closed-loop caller: each batch-1 call is sent when the previous
    one has returned.  Per-call latency in ns, garbage collector paused."""
    predict, clock, n = model.predict, time.perf_counter_ns, len(rows)
    lat = [0] * calls
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(calls):
            row = rows[i % n]
            t0 = clock()
            predict(row)
            lat[i] = clock() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return lat


def _csv_rows(path) -> int:
    """Data rows of a CSV with one header line."""
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n")
                   for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


class Pipeline(Workload):
    name = "pipeline"

    def prepare(self):
        super().prepare()
        for kind in PIPELINE_KINDS:
            (self.workdir / f"{kind}.toml").write_text(PIPELINE_CONFIG.format(
                kind=kind, epochs=PIPELINE_EPOCHS,
                time_scale=PIPELINE_TIME_SCALE))

    def inputs(self, seed):
        return SimpleNamespace(seed=seed, dir=self.fresh_dir())

    def body(self, inp, step, recorder=None):
        codes, log = {}, io.StringIO()
        for kind in PIPELINE_KINDS:
            args = ["--config", str(self.workdir / f"{kind}.toml"),
                    "--seed", str(inp.seed), "--out-dir", str(inp.dir / kind),
                    "pipeline"]
            span = (recorder.span("cli.pipeline") if recorder is not None
                    else contextlib.nullcontext())
            with step(f"cli_{kind}"), span, contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                codes[kind] = _invoke_cli(args)
        if any(codes.values()):
            return SimpleNamespace(codes=codes, log=log.getvalue())
        with step("load_test_rows"):
            test = data.load_dataset(inp.dir / "mlp" / "test.csv")
            rows = [[float(v) for v in r] for r in test.inputs]
        served, latencies, batch, batch_s = {}, {}, {}, {}
        for kind in PIPELINE_KINDS:
            with step(f"deserialize_{kind}"):
                served[kind] = models.deserialize(inp.dir / kind / "model.ccm")
            with step(f"serve_{kind}"):
                latencies[kind] = _serve(served[kind], rows, SERVE_CALLS[kind])
        for kind, model in served.items():
            with step(f"predict_batch_{kind}"):
                batch[kind] = model.predict_batch(test.inputs)
            batch_s[kind] = step.times[f"predict_batch_{kind}"]
        return SimpleNamespace(codes=codes, log=log.getvalue(), test=test,
                               served=served, latencies=latencies,
                               batch=batch, batch_s=batch_s)

    def check(self, inp, out) -> Outcome:
        checks = {f"cli_exit_{k}": c == 0 for k, c in out.codes.items()}
        if not all(checks.values()):
            sys.stderr.write(out.log)
            return Outcome(0, None, "", checks)
        dirs = [inp.dir / k for k in PIPELINE_KINDS]
        headline = _report_headline(inp.dir / "linear" / "rmse_report.json")
        X = out.test.inputs
        checks.update({
            "rmse_ratio_below_1": _below_offset(headline),
            "mlp_rmse_ratio_below_1": _below_offset(
                _report_headline(inp.dir / "mlp" / "rmse_report.json")),
            "predictions_finite": _finite(*out.batch.values()),
            "scalar_matches_batch": all(
                _scalar_matches_batch(m, X, SCALAR_CHECK_ROWS)
                for m in out.served.values()),
        })
        digest_files = sorted(p for d in dirs for p in d.rglob("*")
                              if p.is_file() and p.name not in TIMED_OUTPUTS)
        with open(inp.dir / "mlp" / "manifest.json") as fh:
            stages = {s["name"]: s["wall_s"] for s in json.load(fh)["stages"]}
        train_rows = _csv_rows(inp.dir / "mlp" / "train.csv")
        return Outcome(
            rows=sum(_csv_rows(next(d.glob("bag_*")) / "state.csv")
                     for d in dirs),
            headline=headline,
            digest=_digest_files(digest_files),
            checks=checks,
            extra={
                "artifact_mb": sum(path_bytes(d) for d in dirs) / 1e6,
                # the CLI's train stage: fit_mlp plus writing model.ccm
                "train_samples_per_s":
                    train_rows * PIPELINE_EPOCHS / stages["train[mlp]"],
                "mlp_batch_rows_per_s": len(X) / out.batch_s["mlp"],
                "models.predict_calls": float(sum(SERVE_CALLS.values())),
            },
            latencies_ns=out.latencies)

    def bag_dir(self):
        return next((self.workdir / "iter" / "mlp").glob("bag_*"), None)


def _report_headline(path) -> tuple:
    """(model RMSE, fixed-offset RMSE, rows) from a CLI rmse_report.json."""
    with open(path) as fh:
        rows = json.load(fh)
    return (np.array([r["model_rmse"] for r in rows]),
            np.array([r["fixed_offset_rmse"] for r in rows]),
            rows[0]["n_samples"])


WORKLOADS = {w.name: w for w in (Session, Train, Pipeline)}
