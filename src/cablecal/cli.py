"""``cablecal`` command line: the calibration workflow end to end.

Subcommands mirror the pipeline stages -- ``generate`` a coverage
trajectory, ``record`` a simulated session into a bag, ``process`` bags
into train/test datasets, ``train`` a calibration model, ``evaluate`` its
accuracy (optionally hour-by-hour), ``bench`` its servo-budget latency,
``sweep`` directions, and ``pipeline`` to run the whole chain.

Each stage function stages its artifacts for publishing, runs as one
``_stage`` and returns its product. An input is either the product of an
earlier stage, handed over in memory, or a path, loaded inside the stage so
that a bad file is a stage failure. A subcommand resolves its options and
calls one stage function; ``pipeline`` chains all six and reads back
nothing it wrote. An option that restates a config key, ``--seed`` included,
sets that key in the run's config (``Config.with_key``) before any stage
starts, so it meets the key's own checks and the manifest records it; the
config is the only place a command keeps a setting. Every stage, ``sweep``
included, calls the library through that config's ``generate``, ``record``
and ``split`` and ``models.fit``.

The ``main`` group owns what every command shares. It loads the config and
starts the run manifest, into which input-path options hash themselves. The
first stage makes ``--out-dir`` and a staging directory ``.<tag>.run`` in
it, so ``--help`` and usage errors write nothing. When every stage has
passed, the group publishes the run (``core._publish``) and writes its
manifest, with the config the run used; a command that fails leaves
``--out-dir`` as it found it. The group maps errors to the exit codes: 0
success, 2 configuration/usage error, 3 stage or publish failure.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import click
from click.core import ParameterSource

from . import data as data_mod
from . import trajectory as traj_mod
from .config import Config, ConfigError, load_config
from .core import _publish
from .evaluate import (bench_latency, check_directions, decay_curve,
                       direction_sweep, evaluate_model, write_report)
from .manifest import MANIFEST_NAME, RunManifest, hash_file
from .models import MODEL_KINDS, MODES, deserialize, fit, fit_offset, serialize
from .trajectory import DIRECTIONS, check_direction

EXIT_CONFIG = 2
EXIT_STAGE = 3
MODEL_FILE = "model.ccm"


class StageError(RuntimeError):
    """A stage failed (already reported on stderr); the message names it."""


@dataclass
class CliState:
    config: Config
    out_dir: Path
    manifest: RunManifest
    run_dir: Path | None = None     # the staging directory
    made: Path | None = None        # the outermost directory made, until published


@contextmanager
def _stage(state: CliState, name: str):
    """Run the ``with`` body as stage ``name``. The body writes its outputs
    into the yielded note's ``dir``, the run's staging directory, which the
    first stage makes, and may set ``sim_s`` (simulated seconds) on the note.
    A failure is reported and raised as StageError."""
    note = SimpleNamespace(sim_s=None, dir=state.run_dir)
    t0 = time.perf_counter()
    try:
        if note.dir is None:
            missing = [p for p in (state.out_dir, *state.out_dir.parents) if not p.exists()]
            state.made = missing[-1] if missing else None
            state.out_dir.mkdir(parents=True, exist_ok=True)
            note.dir = state.run_dir = Path(tempfile.mkdtemp(
                prefix=".", suffix=".run", dir=state.out_dir))
        yield note
    except Exception as exc:
        click.echo(f"stage '{name}' failed: {exc}", err=True)
        raise StageError(name) from exc
    wall = time.perf_counter() - t0
    state.manifest.add_stage(name, wall, note.sim_s)
    sim = f" (simulated {note.sim_s:.0f} s)" if note.sim_s else ""
    click.echo(f"[{name}] done in {wall:.2f} s{sim}")


def _loaded(source, load):
    """A stage input: a path is read with ``load``; a product of an earlier
    stage is used as it is."""
    return load(source) if isinstance(source, (str, Path)) else source


def _option(*decls, key: str, parse=str, keep=(), choices=(), **kwargs):
    """An option that restates config ``key`` (``"<section>.<key>"``, as a
    config file spells it): a given value, ``_parsed`` by ``parse``, is set
    in the run's config by ``Config.with_key``, whose checks make a refused
    value a usage error that names the key. A value in ``keep`` is passed to
    the command instead, which then receives the option. The ``choices`` of
    a choice option (``keep`` included) are listed in ``--help``; the key's
    check refuses any other."""
    kwargs["metavar"] = (f"[{'|'.join(choices + keep)}]" if choices
                         else {float: "FLOAT", int: "INTEGER"}.get(parse, "TEXT"))

    def callback(ctx, param, value):
        if value is None or value in keep:
            return value
        try:
            ctx.obj.config = ctx.obj.config.with_key(key, _parsed(parse, value))
        except ConfigError as exc:
            raise click.BadParameter(str(exc))

    return click.option(*decls, default=None, callback=callback,
                        expose_value=bool(keep), **kwargs)


def _input_option(*decls, **kwargs):
    """An option naming existing input path(s), each hashed into the run
    manifest as it is parsed."""

    def callback(ctx, param, value):
        for path in (value if param.multiple else (value,)):
            if path is not None:
                ctx.obj.manifest.add_input(path)
        return value

    return click.option(*decls, type=click.Path(exists=True),
                        callback=callback, **kwargs)


def _entry_name(ctx, param, value):
    """A ``--name`` names one entry of ``--out-dir``, other than the
    manifest, where the run's output is published under that name."""
    if value is not None and (value in ("", "..", MANIFEST_NAME)
                              or Path(value).name != value):
        raise click.BadParameter(f"{value!r} must be one file name in --out-dir "
                                 f"other than {MANIFEST_NAME}")
    return value


def _one_bag_each(bags) -> None:
    """Refuse a bag named twice, or two bags of one recording (equal
    ``state.csv``, hashed when there is more than one bag): its rows would
    be both train and test rows."""
    seen = {}
    for bag in bags:
        csv = Path(bag) / "state.csv"
        digest = len(bags) > 1 and csv.is_file() and hash_file(csv)
        for key in filter(None, (Path(bag).resolve(), digest)):
            if key in seen:
                raise click.BadParameter(f"{seen[key]} and {bag} are one recording",
                                         param_hint="'--bag'")
            seen[key] = bag


def _parsed(parse, text: str):
    """``parse(text)``, or the text itself where ``parse`` refuses it: the
    key's own check then refuses it by name, as it refuses a string in a
    config file."""
    try:
        return parse(text)
    except ValueError:
        return text


def _floats(text: str) -> tuple:
    """Comma-separated numbers as a tuple, each ``_parsed`` by ``float``."""
    return tuple(_parsed(float, s) for s in text.split(",") if s.strip())


_load_option = _option("--load", key="eval.load",
                       help="'unloaded', 'loaded', 'idle' or grams (default: eval.load).")
_time_scale_option = _option(
    "--time-scale", key="eval.time_scale", parse=float,
    help="Emit 1/k of the samples while keeping simulated time.")
_epochs_option = _option("--epochs", key="training.epochs", parse=int,
                         help="MLP epochs (default: [training] epochs).")


# ---------------------------------------------------------------------------
# stages


def _generate(state: CliState, direction, name="generate"):
    cfg = state.config
    sparsity = cfg.trajectory.sparsity
    with _stage(state, name) as note:
        traj = cfg.generate(direction, sparsity)
        traj_mod.save(traj, note.dir / f"traj_{direction}_{sparsity:g}.csv")
        dur = traj_mod.trajectory_duration(traj, cfg.trajectory.speeds)
        click.echo(f"  {direction} sparsity {sparsity:g}: "
                   f"{len(traj.waypoints)} waypoints, {dur:.0f} s to follow")
    return traj


def _record(state: CliState, traj, name=None):
    """Follow ``traj`` (or, when None, the configured trajectory generated in
    memory) into bag directory ``name``, by default one named after the
    followed trajectory's direction and sparsity."""
    cfg = state.config
    with _stage(state, "record") as note:
        traj = (cfg.generate(cfg.trajectory.direction, cfg.trajectory.sparsity)
                if traj is None else _loaded(traj, traj_mod.load))
        name = name or f"bag_{traj.direction}_{traj.sparsity:g}"
        bag = cfg.record(traj, cfg.training.seed)
        data_mod.save_bag(bag, note.dir / name)
        note.sim_s = bag.metadata.get("duration_s")
        click.echo(f"  {len(bag.state.t)} state / {len(bag.truth.t)} truth "
                   f"samples -> {state.out_dir / name}")
    return bag


def _process(state: CliState, bags, full_features=False):
    """Pair each bag's streams (bags are loaded one at a time), concatenate
    and split into train and test datasets."""
    with _stage(state, "process") as note:
        train_ds, test_ds = state.config.split(
            (_loaded(b, data_mod.load_bag) for b in bags), full_features)
        data_mod.save_dataset(train_ds, note.dir / "train.csv")
        data_mod.save_dataset(test_ds, note.dir / "test.csv")
        click.echo(f"  {len(train_ds)} train / {len(test_ds)} test rows "
                   f"({train_ds.inputs.shape[1]} input columns)")
    return train_ds, test_ds


def _train(state: CliState, ds, name=MODEL_FILE):
    cfg = state.config.training
    kind, mode = cfg.model, cfg.mode
    with _stage(state, f"train[{kind}]") as note:
        ds = _loaded(ds, data_mod.load_dataset)
        model = fit(kind, ds, mode, cfg.ridge, cfg.mlp, cfg.seed)
        serialize(model, note.dir / name)
        click.echo(f"  {kind} [{mode}] on {len(ds)} rows -> {state.out_dir / name}")
    return model


def _evaluate(state: CliState, model, ds, base_ds=None, decay=False):
    """Score ``model`` on ``ds`` against a fixed offset fit on ``base_ds``
    (default: ``ds``); ``decay`` adds hour-bucket decay rows."""
    with _stage(state, "evaluate") as note:
        model = _loaded(model, deserialize)
        ds = _loaded(ds, data_mod.load_dataset)
        base_ds = ds if base_ds is None else _loaded(base_ds,
                                                     data_mod.load_dataset)
        model.check_compatible(ds.schema)
        offset = fit_offset(base_ds, model.mode)
        report = evaluate_model(model, ds, offset)
        rows = report.to_rows()
        if decay:
            for rep in decay_curve(model, ds, offset):
                rows.extend(rep.to_rows())
        for row in rows:
            row["model"] = model.kind
            row["mode"] = model.mode
        write_report(rows, rows, note.dir / "rmse_report.csv")
        for row in report.to_rows():
            click.echo(f"  {row['joint']}: raw {row['raw_rmse']:.3f}  "
                       f"offset {row['fixed_offset_rmse']:.3f}  "
                       f"{model.kind} {row['model_rmse']:.3f} "
                       f"({100 * row['percentage']:.1f}% of offset)")
    return rows


def _bench(state: CliState, models, ds):
    ev = state.config.eval
    with _stage(state, "bench") as note:
        models = [_loaded(m, deserialize) for m in models]
        ds = _loaded(ds, data_mod.load_dataset)
        rows, dicts = [], []
        for model in models:
            model.check_compatible(ds.schema)
            rep = bench_latency(model, ds.inputs, ev.latency_samples,
                                ev.budget_hz, ev.repeats)
            rows.extend(rep.to_rows())
            dicts.append(rep.to_dict())
            verdict = "PASS" if rep.passed else "FAIL"
            click.echo(f"  {model.kind}: p50 {rep.p50_s * 1e3:.4f} ms  "
                       f"p99 {rep.p99_s * 1e3:.4f} ms  "
                       f"[{verdict} vs {ev.budget_hz:.0f} Hz]")
        write_report(rows, dicts, note.dir / "latency.csv")
    return rows


# ---------------------------------------------------------------------------
# commands


class _Main(click.Group):
    """The command group; maps domain errors to the documented exit codes and
    removes the staging directory, or on failure an ``--out-dir`` it made."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except StageError:
            sys.exit(EXIT_STAGE)
        finally:
            left = ctx.obj and (ctx.obj.made or ctx.obj.run_dir)
            if left:
                shutil.rmtree(left, ignore_errors=True)


@click.group(cls=_Main)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="TOML (or JSON) config file; defaults used when omitted.")
@click.option("--seed", default=None, metavar="INTEGER",
              help="RNG seed; restates training.seed, which the manifest's "
                   "config records (default from config).")
@click.option("--out-dir", type=click.Path(file_okay=False), default="cablecal-out",
              show_default=True, help="Directory for artifacts + manifest.")
@click.pass_context
def main(ctx, config_path, seed, out_dir):
    cfg = load_config(config_path)
    cfg = cfg if seed is None else cfg.with_key("training.seed", _parsed(int, seed))
    ctx.obj = CliState(cfg, Path(out_dir), RunManifest(
        command=ctx.invoked_subcommand, seed=cfg.training.seed, config=cfg.to_dict()))


@main.result_callback()
@click.pass_obj
def _succeeded(state: CliState, result, **params):
    """Publish the run: move its outputs into ``--out-dir``, hash each into
    the manifest, and write it with the options applied to its config."""
    try:
        for path in _publish(state.run_dir, state.out_dir, state.out_dir / MANIFEST_NAME):
            state.manifest.add_output(path)
        state.manifest.config = state.config.to_dict()
        click.echo(f"manifest: {state.manifest.write(state.out_dir)}")
    except OSError as exc:
        click.echo(f"publish failed: {exc}", err=True)
        raise StageError("publish") from exc
    state.made = None


@main.command("generate")
@_option("--direction", key="trajectory.direction", keep=("all",), choices=DIRECTIONS,
         help="Sweep direction (default from config).")
@_option("--sparsity", key="trajectory.sparsity", parse=float,
         help="Raster spacing fraction in (0, 1/2].")
@click.pass_obj
def generate_command(state, direction):
    """Generate a zig-zag coverage trajectory (CSV + sidecar)."""
    traj_cfg = state.config.trajectory
    for d in (DIRECTIONS if direction == "all" else (traj_cfg.direction,)):
        _generate(state, d, f"generate[{d},{traj_cfg.sparsity:g}]")


@main.command("record")
@_input_option("--trajectory", "traj_path",
               help="Trajectory CSV to follow (else generated).")
@_option("--direction", key="trajectory.direction", choices=DIRECTIONS,
         help="Direction of the generated trajectory (not with --trajectory).")
@_option("--sparsity", key="trajectory.sparsity", parse=float,
         help="Sparsity of the generated trajectory (not with --trajectory).")
@_load_option
@_time_scale_option
@click.option("--name", default=None, callback=_entry_name, help="Bag directory name.")
@click.pass_context
def record_command(ctx, traj_path, name):
    """Record one simulated session into a bag directory."""
    given = [f"--{p}" for p in ("direction", "sparsity")
             if ctx.get_parameter_source(p) is not ParameterSource.DEFAULT]
    if traj_path and given:
        raise click.UsageError(f"{' and '.join(given)} set the generated trajectory; "
                               "a --trajectory file names its own")
    _record(ctx.obj, traj_path, name)


@main.command("process")
@_input_option("--bag", "bags", multiple=True, required=True,
               help="Bag directory (repeatable).")
@click.option("--full-features", is_flag=True,
              help="Keep every logged column instead of the selected 16.")
@_option("--train-frac", key="training.train_frac", parse=float)
@_option("--tolerance", key="eval.sync_tolerance_s", parse=float,
         help="Stream pairing tolerance in seconds.")
@click.pass_obj
def process_command(state, bags, full_features):
    """Synchronize bag streams and split into train/test datasets."""
    _one_bag_each(bags)
    _process(state, bags, full_features)


@main.command("train")
@_input_option("--dataset", "dataset_path", required=True,
               help="Training dataset CSV.")
@_option("--model", key="training.model", choices=MODEL_KINDS,
         help="Model family (default from config).")
@_option("--mode", key="training.mode", choices=MODES)
@_epochs_option
@_option("--ridge", key="training.ridge", parse=float)
@click.option("--name", default=MODEL_FILE, show_default=True, callback=_entry_name)
@click.pass_obj
def train_command(state, dataset_path, name):
    """Fit a calibration model and write a .ccm model file."""
    _train(state, dataset_path, name)


@main.command("evaluate")
@_input_option("--model-file", required=True)
@_input_option("--dataset", "dataset_path", required=True,
               help="Evaluation dataset CSV.")
@_input_option("--train-dataset", default=None,
               help="Dataset for the fixed-offset baseline (default: eval set).")
@click.option("--decay", is_flag=True, help="Also emit hour-bucket decay rows.")
@click.pass_obj
def evaluate_command(state, model_file, dataset_path, train_dataset, decay):
    """Score a model file: per-joint RMSE vs raw and fixed-offset baselines."""
    _evaluate(state, model_file, dataset_path, train_dataset, decay)


@main.command("bench")
@_input_option("--model-file", "model_files", multiple=True, required=True,
               help="Model .ccm (repeatable).")
@_input_option("--dataset", "dataset_path", required=True,
               help="Dataset supplying realistic feature rows.")
@_option("--samples", key="eval.latency_samples", parse=int,
         help="Timed predictions per run (default eval.latency_samples).")
@_option("--budget-hz", key="eval.budget_hz", parse=float)
@click.pass_obj
def bench_command(state, model_files, dataset_path):
    """Measure batch-1 predict latency against the servo budget."""
    _bench(state, model_files, dataset_path)


@main.command("sweep")
@click.option("--directions", default=",".join(DIRECTIONS), show_default=True,
              help="Comma-separated direction list.")
@_option("--sparsities", key="trajectory.sparsities", parse=_floats,
         help="Comma-separated sparsity list (default from config).")
@_time_scale_option
@click.option("--with-mlp", is_flag=True,
              help="Also fit the MLP per direction.")
@_load_option
@click.pass_obj
def sweep_command(state, directions, with_mlp):
    """Fit models per trajectory direction and tabulate test RMSE."""
    try:
        directions = check_directions(tuple(map(
            check_direction, directions.replace(",", " ").split())))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    with _stage(state, "sweep") as note:
        kinds = ("linear", "mlp") if with_mlp else ("linear",)
        table = direction_sweep(state.config, directions, kinds, state.config.training.seed)
        rows = table.to_rows()
        write_report(rows, rows, note.dir / "sweep.csv")
        for model in dict.fromkeys(s.labels["model"] for s in table.scores):
            scores = [s for s in table.scores if s.labels["model"] == model]
            best = [min(scores, key=lambda s: s.rmse[j]).labels["direction"]
                    for j in range(3)]
            click.echo(f"  best direction per joint [{model}]: "
                       f"j1={best[0]} j2={best[1]} j3={best[2]}")


@main.command("pipeline")
@_time_scale_option
@_epochs_option
@click.pass_obj
def pipeline_command(state):
    """Run generate -> record -> process -> train -> evaluate -> bench."""
    traj = _generate(state, state.config.trajectory.direction)
    bag = _record(state, traj)
    train_ds, test_ds = _process(state, [bag])
    model = _train(state, train_ds)
    _evaluate(state, model, test_ds, train_ds)
    _bench(state, [model], test_ds)


if __name__ == "__main__":
    main()
