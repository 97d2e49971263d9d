"""Which ``cablecal`` entry points the traced run wraps, and their counters.

Span names are ``<layer>.<entry point>``; ``layer_metrics`` turns one
traced iteration's spans, counts and notes into the per-layer metrics named
in ``BENCHMARK.json``.  Times are self times (span minus child spans),
except ``sim.run_s`` and ``cli.pipeline_s``, which are inclusive and whose
self times are reported as ``sim.solve_s`` and ``cli.self_s``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from spans import Probe

from cablecal import data, evaluate, manifest, models, nn, sim, trajectory


def cablecal_modules() -> list:
    """Every loaded ``cablecal`` namespace, scanned for by-name imports."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cablecal"
                                  or name.startswith("cablecal."))]


def _gemm_flop(dims, rows: int) -> float:
    """Multiply-adds x 2 of one ``Mlp.loss_and_grads`` call: the forward
    GEMMs, the weight-gradient GEMMs, and the delta back-propagation GEMMs
    of every layer but the first."""
    macs = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    return 2.0 * rows * (3 * macs - dims[0] * dims[1])


def _count_waypoints(rec, args, kwargs, result):
    rec.count("trajectory.waypoints", len(result))


def _count_rows(rec, args, kwargs, result):
    state, truth = result
    rec.count("sim.state_rows", len(state.t))
    rec.count("sim.truth_rows", len(truth.t))


def _count_pairs(rec, args, kwargs, result):
    rec.count("data.pairs", len(result))
    rec.count("data.sync_state_rows", len(args[0].state.t))


def _note_path(metric: str, index: int):
    def counter(rec, args, kwargs, result):
        rec.note(metric, args[index])
    return counter


def _note_dataset_files(rec, args, kwargs, result):
    path = Path(args[1])
    rec.note("data.dataset_bytes", path)
    rec.note("data.dataset_bytes", path.with_suffix(".json"))


def _count_epochs(rec, args, kwargs, result):
    rec.count("nn.epochs", len(result[1]))


def _count_batch(rec, args, kwargs, result):
    net, X = args[0], args[1]
    rec.count("nn.batches")
    rec.count("nn.gemm_flop", _gemm_flop(net.dims, len(X)))


def _count_buckets(rec, args, kwargs, result):
    rec.count("evaluate.buckets", len(result))


def probes() -> list:
    P = Probe
    policy = [P(cls, attr, "sim.policy")
              for cls in (sim.RandomSinusoidPolicy, sim.TrajectoryFollower)
              for attr in ("positions", "velocities")]
    predict_batch = [P(cls, "predict_batch", "models.predict_batch")
                     for cls in (models.FixedOffsetModel, models.LinearModel,
                                 models.PolyModel, models.MlpModel)]
    return [
        P(trajectory, "generate", "trajectory.generate", _count_waypoints),
        P(sim.SimSession, "run", "sim.run", _count_rows),
        *policy,
        P(sim, "motor_torques", "sim.torques"),
        P(sim.LoadProfile, "drift_at", "sim.drift"),
        P(sim.SimSession, "_features", "sim.features"),
        P(data, "record", "data.record"),
        P(data, "save_bag", "data.save_bag", _note_path("data.bag_bytes", 1)),
        P(data, "load_bag", "data.load_bag"),
        P(data, "synchronize", "data.synchronize", _count_pairs),
        P(data, "split_and_normalize", "data.split"),
        P(data, "save_dataset", "data.save_dataset",
          _note_dataset_files),
        P(data, "load_dataset", "data.load_dataset"),
        P(models, "fit_offset", "models.fit_offset"),
        P(models, "fit_linear", "models.fit_linear"),
        P(models, "fit_poly2", "models.fit_poly2"),
        P(models, "_solve_affine", "models.lstsq"),
        P(models, "fit_mlp", "models.fit_mlp"),
        P(models, "serialize", "models.serialize",
          _note_path("models.model_bytes", 1)),
        P(models, "deserialize", "models.deserialize"),
        *predict_batch,
        P(nn, "train_mlp", "nn.train", _count_epochs),
        P(nn.Mlp, "loss_and_grads", "nn.loss_and_grads", _count_batch),
        P(nn, "_sigmoid", "nn.sigmoid"),
        P(nn.Adam, "step", "nn.adam"),
        P(evaluate, "evaluate_model", "evaluate.evaluate_model"),
        P(evaluate, "decay_curve", "evaluate.decay_curve", _count_buckets),
        P(evaluate, "bench_latency", "evaluate.bench_latency"),
        P(manifest, "_hash_artifact", "manifest.hash",
          _note_path("manifest.hashed_bytes", 0)),
        P(manifest.RunManifest, "write", "manifest.write"),
    ]


#: per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "trajectory.generate_s": "trajectory.generate",
    "sim.policy_s": "sim.policy",
    "sim.torques_s": "sim.torques",
    "sim.drift_s": "sim.drift",
    "sim.features_s": "sim.features",
    "sim.solve_s": "sim.run",
    "data.record_s": "data.record",
    "data.save_bag_s": "data.save_bag",
    "data.load_bag_s": "data.load_bag",
    "data.synchronize_s": "data.synchronize",
    "data.split_s": "data.split",
    "data.save_dataset_s": "data.save_dataset",
    "data.load_dataset_s": "data.load_dataset",
    "models.fit_offset_s": "models.fit_offset",
    "models.fit_linear_s": "models.fit_linear",
    "models.fit_poly2_s": "models.fit_poly2",
    "models.lstsq_s": "models.lstsq",
    "models.fit_mlp_s": "models.fit_mlp",
    "models.serialize_s": "models.serialize",
    "models.deserialize_s": "models.deserialize",
    "models.predict_batch_s": "models.predict_batch",
    "nn.train_s": "nn.train",
    "nn.loss_and_grads_s": "nn.loss_and_grads",
    "nn.sigmoid_s": "nn.sigmoid",
    "nn.adam_s": "nn.adam",
    "evaluate.evaluate_model_s": "evaluate.evaluate_model",
    "evaluate.decay_curve_s": "evaluate.decay_curve",
    "evaluate.bench_latency_s": "evaluate.bench_latency",
    "cli.self_s": "cli.pipeline",
    "manifest.hash_s": "manifest.hash",
    "manifest.write_s": "manifest.write",
}

#: per-layer metric -> span whose inclusive time it reports
INCLUSIVE_TIMES = {
    "sim.run_s": "sim.run",
    "cli.pipeline_s": "cli.pipeline",
}

#: per-layer metrics that are counters recorded at span boundaries
COUNTS = ("trajectory.waypoints", "sim.state_rows", "sim.truth_rows",
          "data.pairs", "nn.epochs", "nn.batches", "evaluate.buckets")

#: per-layer metric -> noted paths whose sizes (bytes) are summed
NOTED_BYTES = ("data.bag_bytes", "data.dataset_bytes", "models.model_bytes",
               "manifest.hashed_bytes")


def path_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size if path.exists() else 0


def layer_metrics(recorder, run) -> dict:
    """Per-layer numbers of one traced iteration (times in seconds)."""
    selfs = recorder.self_times(run)
    incl = recorder.inclusive_times(run)
    counts = recorder.counts[run]
    notes = recorder.notes[run]
    out = {m: selfs.get(s, 0.0) for m, s in SELF_TIMES.items()}
    out.update({m: incl.get(s, 0.0) for m, s in INCLUSIVE_TIMES.items()})
    out.update({m: counts.get(m, 0.0) for m in COUNTS})
    out.update({m: float(sum(path_bytes(p) for p in notes.get(m, ())))
                for m in NOTED_BYTES})
    synced = counts.get("data.sync_state_rows", 0.0)
    out["data.pair_ratio"] = counts.get("data.pairs", 0.0) / synced if synced else 0.0
    flop = counts.get("nn.gemm_flop", 0.0)
    out["nn.gemm_gflop"] = flop / 1e9
    lag = incl.get("nn.loss_and_grads", 0.0)
    out["nn.gflops"] = flop / 1e9 / lag if lag else 0.0
    return out
