"""``cablecal`` command line: the calibration workflow end to end.

Subcommands mirror the pipeline stages -- ``generate`` a coverage
trajectory, ``record`` a simulated session into a bag, ``process`` bags
into train/test datasets, ``train`` a calibration model, ``evaluate`` its
accuracy (optionally hour-by-hour), ``bench`` its servo-budget latency,
``sweep`` directions, and ``pipeline`` to run the whole chain. Every
command writes a run manifest next to its artifacts.

Each stage function writes its artifacts and returns its product. A
subcommand loads its input files and runs one stage; ``pipeline`` hands
each product to the next stage in memory and reads back nothing it wrote
(a reloaded dataset is C-ordered, unlike ``synchronize``'s F-ordered one).

Exit codes: 0 success, 2 configuration/usage error, 3 stage failure.
"""

from __future__ import annotations

import functools
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import click

from . import data as data_mod
from . import trajectory as traj_mod
from .config import Config, ConfigError, load_config
from .evaluate import (bench_latency, decay_curve, direction_sweep,
                       evaluate_model, write_report)
from .manifest import RunManifest
from .models import (MODEL_KINDS, MODES, deserialize, fit_linear, fit_mlp,
                     fit_offset, fit_poly2, serialize)
from .sim import SimError, check_load
from .trajectory import DIRECTIONS

EXIT_CONFIG = 2
EXIT_STAGE = 3


class StageError(RuntimeError):
    """A stage failed (already reported on stderr); the message names it."""


@dataclass
class CliState:
    config: Config
    seed: int
    out_dir: Path
    repeats: int


def _stage(manifest: RunManifest, name: str, outputs, fn, sim_s=None):
    """Run one stage and hash its outputs into the manifest.

    On failure, remove the outputs this run created and re-raise; an output
    that existed before the stage (an earlier run's artifact) is kept.
    """
    fresh = [p for p in outputs if not p.exists()]
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:
        for p in fresh:
            if p.is_dir():
                shutil.rmtree(p, ignore_errors=True)
            else:
                p.unlink(missing_ok=True)
        click.echo(f"stage '{name}' failed: {exc}", err=True)
        raise StageError(name) from exc
    wall = time.perf_counter() - t0
    sim = None if sim_s is None else sim_s(result)
    manifest.add_stage(name, wall, sim)
    note = f" (simulated {sim:.0f} s)" if sim else ""
    click.echo(f"[{name}] done in {wall:.2f} s{note}")
    for p in outputs:
        manifest.add_output(p)
    return result


def _sidecars(*csv_paths) -> list:
    """Each CSV artifact followed by its JSON sidecar."""
    return [p for csv in csv_paths for p in (csv, csv.with_suffix(".json"))]


def _float_list(ctx, param, value):
    """Comma-separated numbers as a tuple; None (not given) stays None."""
    if value is None:
        return None
    try:
        return tuple(float(s) for s in value.split(",") if s.strip())
    except ValueError:
        raise click.BadParameter(
            f"expected comma-separated numbers, got {value!r}")


def _load_arg(ctx, param, value):
    """``--load`` as a load name or grams; ``[eval] load`` when not given."""
    try:
        return ctx.obj.config.eval.load if value is None else check_load(value)
    except SimError as exc:
        raise click.BadParameter(str(exc))


def _finish(state: CliState, manifest: RunManifest) -> None:
    path = manifest.write(state.out_dir)
    click.echo(f"manifest: {path}")


def _manifest(state: CliState, command: str) -> RunManifest:
    return RunManifest(command=command, seed=state.seed,
                       config=state.config.to_dict())


def _guard(fn):
    """Map domain errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except StageError:
            sys.exit(EXIT_STAGE)

    return wrapper


# ---------------------------------------------------------------------------
# stages


def _generate(cfg: Config, direction, sparsity, path):
    traj = traj_mod.generate(direction, sparsity, cfg.limits,
                             cfg.trajectory.step)
    traj_mod.save(traj, path)
    dur = traj_mod.trajectory_duration(traj, cfg.trajectory.speeds)
    click.echo(f"  {direction} sparsity {sparsity:g}: "
               f"{len(traj.waypoints)} waypoints, {dur:.0f} s to follow")
    return traj


def _record(cfg: Config, traj, load, seed, time_scale, bag_dir):
    bag = data_mod.record(
        traj, cfg.error_model, load=load, rates=cfg.eval.rates, seed=seed,
        time_scale=time_scale, limits=cfg.limits,
        speeds=cfg.trajectory.speeds)
    data_mod.save_bag(bag, bag_dir)
    click.echo(f"  {len(bag.state.t)} state / {len(bag.truth.t)} truth "
               f"samples -> {bag_dir}")
    return bag


def _process(bags, tolerance, full_features, train_frac, train_path,
             test_path):
    """Pair each bag's streams, concatenate and split; ``bags`` is iterated
    once, so a generator loads one bag at a time."""
    parts = [data_mod.synchronize(b, tolerance, full_features) for b in bags]
    ds = data_mod.concat(parts) if len(parts) > 1 else parts[0]
    train_ds, test_ds = data_mod.split_and_normalize(ds, train_frac)
    data_mod.save_dataset(train_ds, train_path)
    data_mod.save_dataset(test_ds, test_path)
    click.echo(f"  {len(train_ds)} train / {len(test_ds)} test rows "
               f"({ds.inputs.shape[1]} input columns)")
    return train_ds, test_ds


def _train(cfg: Config, ds, kind, mode, seed, path, epochs=None, ridge=None):
    ridge = cfg.training.ridge if ridge is None else ridge
    if kind == "offset":
        model = fit_offset(ds, mode)
    elif kind == "linear":
        model = fit_linear(ds, mode, ridge)
    elif kind == "poly2":
        model = fit_poly2(ds, mode, ridge)
    else:
        mlp_cfg = cfg.training.mlp
        if epochs is not None:
            mlp_cfg = replace(mlp_cfg, epochs=epochs)
        model = fit_mlp(ds, mode, mlp_cfg, seed)
    serialize(model, path)
    click.echo(f"  {kind} [{mode}] on {len(ds)} rows -> {path}")
    return model


def _evaluate(model, ds, base_ds, bucket_s, csv_path):
    """Score ``model`` on ``ds`` against a fixed offset fit on ``base_ds``;
    a ``bucket_s`` adds hour-bucket decay rows."""
    model.check_compatible(ds.schema)
    offset = fit_offset(base_ds, model.mode)
    report = evaluate_model(model, ds, offset)
    rows = report.to_rows()
    if bucket_s is not None:
        for rep in decay_curve(model, ds, offset, bucket_s):
            rows.extend(rep.to_rows())
    for row in rows:
        row["model"] = model.kind
        row["mode"] = model.mode
    write_report(rows, rows, csv_path)
    for row in report.to_rows():
        click.echo(f"  {row['joint']}: raw {row['raw_rmse']:.3f}  "
                   f"offset {row['fixed_offset_rmse']:.3f}  "
                   f"{model.kind} {row['model_rmse']:.3f} "
                   f"({100 * row['percentage']:.1f}% of offset)")
    return rows


def _bench(models, ds, samples, budget_hz, repeats, csv_path):
    rows, dicts = [], []
    for model in models:
        model.check_compatible(ds.schema)
        rep = bench_latency(model, ds.inputs, samples, budget_hz, repeats)
        rows.extend(rep.to_rows())
        dicts.append(rep.to_dict())
        verdict = "PASS" if rep.passed else "FAIL"
        click.echo(f"  {model.kind}: p50 {rep.p50_s * 1e3:.4f} ms  "
                   f"p99 {rep.p99_s * 1e3:.4f} ms  "
                   f"[{verdict} vs {budget_hz:.0f} Hz]")
    write_report(rows, dicts, csv_path)
    return rows


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="TOML (or JSON) config file; defaults used when omitted.")
@click.option("--seed", type=int, default=None,
              help="Global RNG seed (default: training.seed from config).")
@click.option("--out-dir", type=click.Path(), default="cablecal-out",
              show_default=True, help="Directory for artifacts + manifest.")
@click.option("--repeats", type=int, default=None,
              help="Benchmark repeat count (default: eval.repeats).")
@click.pass_context
def main(ctx, config_path, seed, out_dir, repeats):
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx.obj = CliState(
        config=cfg,
        seed=cfg.training.seed if seed is None else seed,
        out_dir=out,
        repeats=cfg.eval.repeats if repeats is None else repeats,
    )


@main.command("generate")
@click.option("--direction", type=click.Choice(DIRECTIONS + ("all",)),
              default=None, help="Sweep direction (default from config).")
@click.option("--sparsity", type=float, default=None,
              help="Raster spacing fraction in (0, 1/2].")
@click.pass_obj
@_guard
def generate_command(state, direction, sparsity):
    """Generate a zig-zag coverage trajectory (CSV + sidecar)."""
    cfg = state.config
    direction = direction or cfg.trajectory.direction
    sparsity = cfg.trajectory.sparsity if sparsity is None else sparsity
    manifest = _manifest(state, "generate")
    for d in (DIRECTIONS if direction == "all" else (direction,)):
        path = state.out_dir / f"traj_{d}_{sparsity:g}.csv"
        _stage(manifest, f"generate[{d},{sparsity:g}]", _sidecars(path),
               lambda: _generate(cfg, d, sparsity, path))
    _finish(state, manifest)


@main.command("record")
@click.option("--trajectory", "traj_path", type=click.Path(exists=True),
              default=None, help="Trajectory CSV to follow (else generated).")
@click.option("--direction", type=click.Choice(DIRECTIONS), default=None)
@click.option("--sparsity", type=float, default=None)
@click.option("--load", default=None, callback=_load_arg,
              help="'unloaded', 'loaded', 'idle' or grams "
                   "(default: eval.load).")
@click.option("--time-scale", type=float, default=None,
              help="Emit 1/k of the samples while keeping simulated time.")
@click.option("--name", default=None, help="Bag directory name.")
@click.pass_obj
@_guard
def record_command(state, traj_path, direction, sparsity, load, time_scale,
                   name):
    """Record one simulated session into a bag directory."""
    cfg = state.config
    direction = direction or cfg.trajectory.direction
    sparsity = cfg.trajectory.sparsity if sparsity is None else sparsity
    time_scale = cfg.eval.time_scale if time_scale is None else time_scale
    manifest = _manifest(state, "record")
    if traj_path is not None:
        manifest.add_input(traj_path)
    bag_dir = state.out_dir / (
        name or f"bag_{direction}_{sparsity:g}")

    def run():
        traj = (traj_mod.load(traj_path) if traj_path is not None else
                traj_mod.generate(direction, sparsity, cfg.limits,
                                  cfg.trajectory.step))
        return _record(cfg, traj, load, state.seed, time_scale, bag_dir)

    _stage(manifest, "record", [bag_dir], run,
           sim_s=lambda b: b.metadata.get("duration_s"))
    _finish(state, manifest)


@main.command("process")
@click.option("--bag", "bags", type=click.Path(exists=True), multiple=True,
              required=True, help="Bag directory (repeatable).")
@click.option("--full-features", is_flag=True,
              help="Keep every logged column instead of the selected 16.")
@click.option("--train-frac", type=float, default=None)
@click.option("--tolerance", type=float, default=None,
              help="Stream pairing tolerance in seconds.")
@click.pass_obj
@_guard
def process_command(state, bags, full_features, train_frac, tolerance):
    """Synchronize bag streams and split into train/test datasets."""
    cfg = state.config
    train_frac = cfg.training.train_frac if train_frac is None else train_frac
    tolerance = cfg.eval.sync_tolerance_s if tolerance is None else tolerance
    manifest = _manifest(state, "process")
    for b in bags:
        manifest.add_input(b)
    train_path = state.out_dir / "train.csv"
    test_path = state.out_dir / "test.csv"
    _stage(manifest, "process", _sidecars(train_path, test_path),
           lambda: _process((data_mod.load_bag(b) for b in bags), tolerance,
                            full_features, train_frac, train_path,
                            test_path))
    _finish(state, manifest)


@main.command("train")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True),
              required=True, help="Training dataset CSV.")
@click.option("--model", "kind", type=click.Choice(MODEL_KINDS), default=None,
              help="Model family (default from config).")
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--epochs", type=int, default=None, help="MLP epoch override.")
@click.option("--ridge", type=float, default=None)
@click.option("--name", default="model.ccm", show_default=True)
@click.pass_obj
@_guard
def train_command(state, dataset_path, kind, mode, epochs, ridge, name):
    """Fit a calibration model and write a .ccm model file."""
    cfg = state.config
    kind = kind or cfg.training.model
    mode = mode or cfg.training.mode
    manifest = _manifest(state, "train")
    manifest.add_input(dataset_path)
    model_path = state.out_dir / name
    _stage(manifest, f"train[{kind}]", [model_path],
           lambda: _train(cfg, data_mod.load_dataset(dataset_path), kind,
                          mode, state.seed, model_path, epochs, ridge))
    _finish(state, manifest)


@main.command("evaluate")
@click.option("--model-file", type=click.Path(exists=True), required=True)
@click.option("--dataset", "dataset_path", type=click.Path(exists=True),
              required=True, help="Evaluation dataset CSV.")
@click.option("--train-dataset", type=click.Path(exists=True), default=None,
              help="Dataset for the fixed-offset baseline (default: eval set).")
@click.option("--decay", is_flag=True, help="Also emit hour-bucket decay rows.")
@click.option("--bucket-s", type=float, default=3600.0, show_default=True)
@click.pass_obj
@_guard
def evaluate_command(state, model_file, dataset_path, train_dataset, decay,
                     bucket_s):
    """Score a model file: per-joint RMSE vs raw and fixed-offset baselines."""
    manifest = _manifest(state, "evaluate")
    manifest.add_input(model_file)
    manifest.add_input(dataset_path)
    if train_dataset is not None:
        manifest.add_input(train_dataset)
    report_csv = state.out_dir / "rmse_report.csv"

    def run():
        model = deserialize(model_file)
        ds = data_mod.load_dataset(dataset_path)
        base_ds = (ds if train_dataset is None
                   else data_mod.load_dataset(train_dataset))
        return _evaluate(model, ds, base_ds, bucket_s if decay else None,
                         report_csv)

    _stage(manifest, "evaluate", _sidecars(report_csv), run)
    _finish(state, manifest)


@main.command("bench")
@click.option("--model-file", "model_files", type=click.Path(exists=True),
              multiple=True, required=True, help="Model .ccm (repeatable).")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True),
              required=True, help="Dataset supplying realistic feature rows.")
@click.option("--samples", type=int, default=None,
              help="Timed predictions per run (default eval.latency_samples).")
@click.option("--budget-hz", type=float, default=None)
@click.pass_obj
@_guard
def bench_command(state, model_files, dataset_path, samples, budget_hz):
    """Measure batch-1 predict latency against the servo budget."""
    cfg = state.config
    samples = cfg.eval.latency_samples if samples is None else samples
    budget_hz = cfg.eval.budget_hz if budget_hz is None else budget_hz
    manifest = _manifest(state, "bench")
    manifest.add_input(dataset_path)
    for mf in model_files:
        manifest.add_input(mf)
    latency_csv = state.out_dir / "latency.csv"
    _stage(manifest, "bench", _sidecars(latency_csv),
           lambda: _bench([deserialize(mf) for mf in model_files],
                          data_mod.load_dataset(dataset_path), samples,
                          budget_hz, state.repeats, latency_csv))
    _finish(state, manifest)


@main.command("sweep")
@click.option("--directions", default=",".join(DIRECTIONS), show_default=True,
              help="Comma-separated direction list.")
@click.option("--sparsities", default=None, callback=_float_list,
              help="Comma-separated sparsity list (default from config).")
@click.option("--time-scale", type=float, default=None)
@click.option("--with-mlp", is_flag=True,
              help="Also fit the MLP per direction.")
@click.option("--load", default=None, callback=_load_arg,
              help="'unloaded', 'loaded', 'idle' or grams "
                   "(default: eval.load).")
@click.pass_obj
@_guard
def sweep_command(state, directions, sparsities, time_scale, with_mlp, load):
    """Fit models per trajectory direction and tabulate test RMSE."""
    cfg = state.config
    time_scale = cfg.eval.time_scale if time_scale is None else time_scale
    dir_list = tuple(d.strip() for d in directions.split(",") if d.strip())
    bad = [d for d in dir_list if d not in DIRECTIONS]
    if bad:
        raise ConfigError(f"unknown direction(s): {', '.join(bad)}")
    sp_list = cfg.trajectory.sparsities if sparsities is None else sparsities
    manifest = _manifest(state, "sweep")
    sweep_csv = state.out_dir / "sweep.csv"

    def run():
        fits = {"linear": lambda ds: fit_linear(ds, cfg.training.mode,
                                                cfg.training.ridge)}
        if with_mlp:
            fits["mlp"] = lambda ds: fit_mlp(ds, cfg.training.mode,
                                             cfg.training.mlp, state.seed)
        table = direction_sweep(
            cfg.error_model, fits, directions=dir_list, sparsities=sp_list,
            limits=cfg.limits, rates=cfg.eval.rates, seed=state.seed,
            time_scale=time_scale, train_frac=cfg.training.train_frac,
            load=load)
        rows = table.to_rows()
        write_report(rows, rows, sweep_csv)
        for model in table.model_names():
            best = [table.best_direction(model, j) for j in range(3)]
            click.echo(f"  best direction per joint [{model}]: "
                       f"j1={best[0]} j2={best[1]} j3={best[2]}")
        return rows

    _stage(manifest, "sweep", _sidecars(sweep_csv), run)
    _finish(state, manifest)


@main.command("pipeline")
@click.option("--time-scale", type=float, default=None)
@click.option("--epochs", type=int, default=None, help="MLP epoch override.")
@click.pass_obj
@_guard
def pipeline_command(state, time_scale, epochs):
    """Run generate -> record -> process -> train -> evaluate -> bench."""
    cfg = state.config
    time_scale = cfg.eval.time_scale if time_scale is None else time_scale
    direction, sparsity = cfg.trajectory.direction, cfg.trajectory.sparsity
    kind, out = cfg.training.model, state.out_dir
    tag = f"{direction}_{sparsity:g}"
    traj_path, bag_dir = out / f"traj_{tag}.csv", out / f"bag_{tag}"
    train_path, test_path = out / "train.csv", out / "test.csv"
    model_path = out / "model.ccm"
    report_csv, latency_csv = out / "rmse_report.csv", out / "latency.csv"
    manifest = _manifest(state, "pipeline")

    traj = _stage(manifest, "generate", _sidecars(traj_path),
                  lambda: _generate(cfg, direction, sparsity, traj_path))
    bag = _stage(manifest, "record", [bag_dir],
                 lambda: _record(cfg, traj, cfg.eval.load, state.seed,
                                 time_scale, bag_dir),
                 sim_s=lambda b: b.metadata.get("duration_s"))
    train_ds, test_ds = _stage(
        manifest, "process", _sidecars(train_path, test_path),
        lambda: _process([bag], cfg.eval.sync_tolerance_s, False,
                         cfg.training.train_frac, train_path, test_path))
    model = _stage(manifest, f"train[{kind}]", [model_path],
                   lambda: _train(cfg, train_ds, kind, cfg.training.mode,
                                  state.seed, model_path, epochs))
    _stage(manifest, "evaluate", _sidecars(report_csv),
           lambda: _evaluate(model, test_ds, train_ds, None, report_csv))
    _stage(manifest, "bench", _sidecars(latency_csv),
           lambda: _bench([model], test_ds,
                          min(cfg.eval.latency_samples, 5000),
                          cfg.eval.budget_hz, state.repeats, latency_csv))
    _finish(state, manifest)


if __name__ == "__main__":
    main()
