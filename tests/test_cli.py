"""End-to-end CLI coverage plus run-manifest hashing."""

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cablecal
from cablecal import trajectory as traj_mod
from cablecal.cli import main
from cablecal.config import load_config
from cablecal.core import json_digest
from cablecal.manifest import RunManifest, hash_file, hash_tree, load_manifest
from cablecal.models import deserialize

FAST_TOML = """
[trajectory]
direction = "j1j2j3"
sparsity = 0.5

[training]
model = "linear"
seed = 11

[eval]
time_scale = 25.0
latency_samples = 500
repeats = 2
load = "unloaded"
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def fast_cfg(tmp_path):
    p = tmp_path / "fast.toml"
    p.write_text(FAST_TOML)
    return str(p)


def invoke(runner, args, expect=0):
    result = runner.invoke(main, args)
    text = result.output + (result.stderr or "")
    assert result.exit_code == expect, f"exit {result.exit_code}:\n{text}"
    return result, text


def out_args(fast_cfg, out):
    return ["--config", fast_cfg, "--out-dir", str(out)]


# ---------------------------------------------------------------------------
# individual stages


def test_generate_writes_loadable_trajectory(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    invoke(runner, out_args(fast_cfg, out) + ["generate", "--direction", "j2"])
    csv = out / "traj_j2_0.5.csv"
    assert csv.exists() and csv.with_suffix(".json").exists()
    traj = traj_mod.load(csv)
    assert traj.direction == "j2"
    m = load_manifest(out)
    assert str(out / "traj_j2_0.5.csv") in m.outputs
    assert m.command == "generate"


def test_generate_all_directions(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    invoke(runner, out_args(fast_cfg, out) +
           ["generate", "--direction", "all", "--sparsity", "0.5"])
    assert len(list(out.glob("traj_*.csv"))) == 7


def test_record_process_train_evaluate_bench(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    base = out_args(fast_cfg, out)

    invoke(runner, base + ["record", "--name", "bag0"])
    bag = out / "bag0"
    assert (bag / "state.csv").exists() and (bag / "truth.csv").exists()

    invoke(runner, base + ["process", "--bag", str(bag)])
    assert (out / "train.csv").exists() and (out / "test.csv").exists()

    invoke(runner, base + ["train", "--dataset", str(out / "train.csv"),
                           "--model", "linear"])
    model = deserialize(out / "model.ccm")
    assert model.kind == "linear" and model.mode == "on-error"

    _, text = invoke(runner, base + [
        "evaluate", "--model-file", str(out / "model.ccm"),
        "--dataset", str(out / "test.csv"),
        "--train-dataset", str(out / "train.csv")])
    assert (out / "rmse_report.csv").exists()
    assert (out / "rmse_report.json").exists()
    assert "j3:" in text

    _, text = invoke(runner, base + [
        "bench", "--model-file", str(out / "model.ccm"),
        "--dataset", str(out / "test.csv"), "--samples", "300"])
    assert (out / "latency.csv").exists()
    assert "PASS" in text


def test_process_multiple_bags_concatenates(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    base = out_args(fast_cfg, out)
    invoke(runner, base + ["--seed", "1", "record", "--name", "a"])
    invoke(runner, base + ["--seed", "2", "record", "--name", "b"])
    _, text = invoke(runner, base + ["process", "--bag", str(out / "a"),
                                     "--bag", str(out / "b")])
    m = load_manifest(out)
    assert set(m.inputs) == {str(out / "a"), str(out / "b")}


def test_sweep_small(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    _, text = invoke(runner, out_args(fast_cfg, out) + [
        "sweep", "--directions", "j1,j1j2j3", "--sparsities", "0.5"])
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    # header + 2 directions x 2 models (offset baseline + linear) x 3 joints
    assert len(rows) == 1 + 2 * 2 * 3
    assert "best direction per joint" in text


def test_empty_direction_list_exits_2_naming_it(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    result = runner.invoke(main, out_args(fast_cfg, out) + ["sweep", "--directions", ","])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert "directions must be a list of at least one direction" in text
    assert "Traceback" not in text
    assert not out.exists()


def _sweep_counts(runner, body, out) -> set:
    """The (n_train, n_test) of each row of a one-direction sweep."""
    cfg = out.with_suffix(".toml")
    cfg.write_text(body)
    invoke(runner, out_args(str(cfg), out) + ["sweep", "--directions", "j1",
                                              "--sparsities", "0.5"])
    return {(r["n_train"], r["n_test"]) for r in _csv_rows(out / "sweep.csv")}


@pytest.mark.parametrize("old, new", [
    ("sparsity = 0.5\n", "sparsity = 0.5\nspeeds = [1.5, 1.5, 4.75]\n"),
    ("time_scale = 25.0\n", "time_scale = 25.0\nsync_tolerance_s = 0.1\n")],
    ids=["speeds", "sync_tolerance_s"])
def test_sweep_reads_the_recording_and_pairing_settings(runner, tmp_path, old, new):
    # halved speeds record twice the rows; a wider tolerance pairs more
    default = _sweep_counts(runner, FAST_TOML, tmp_path / "default")
    changed = _sweep_counts(runner, FAST_TOML.replace(old, new), tmp_path / "changed")
    assert len(default) == len(changed) == 1 and default != changed


def test_pipeline_end_to_end(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    _, text = invoke(runner, out_args(fast_cfg, out) + ["pipeline"])
    for name in ("model.ccm", "train.csv", "test.csv", "rmse_report.csv",
                 "latency.csv", "manifest.json"):
        assert (out / name).exists(), name
    m = load_manifest(out)
    stage_names = [s["name"] for s in m.stages]
    assert stage_names == ["generate", "record", "process", "train[linear]",
                           "evaluate", "bench"]
    record_stage = m.stages[1]
    assert record_stage["sim_s"] > record_stage["wall_s"]  # time-scaled


def test_stage_by_stage_matches_pipeline(runner, tmp_path):
    # every artifact, the evaluate report included, for every model kind
    names = ["traj_j1j2j3_0.5.csv", "traj_j1j2j3_0.5.json", "train.csv",
             "train.json", "test.csv", "test.json", "model.ccm",
             "bag_j1j2j3_0.5/state.csv", "bag_j1j2j3_0.5/truth.csv",
             "bag_j1j2j3_0.5/metadata.json", "rmse_report.csv",
             "rmse_report.json"]
    for kind in ("offset", "linear", "poly2", "mlp"):
        # no [eval] load: record must default to it, as pipeline does
        cfg = tmp_path / f"{kind}.toml"
        cfg.write_text(FAST_TOML.replace('load = "unloaded"\n', "").replace(
            'model = "linear"', f'model = "{kind}"\nepochs = 3'))
        a, b = tmp_path / f"{kind}-stages", tmp_path / f"{kind}-pipe"
        base = ["--config", str(cfg), "--out-dir", str(a)]
        invoke(runner, base + ["generate"])
        traj = a / "traj_j1j2j3_0.5.csv"
        invoke(runner, base + ["record", "--trajectory", str(traj)])
        invoke(runner, base + ["process", "--bag", str(a / "bag_j1j2j3_0.5")])
        invoke(runner, base + ["train", "--dataset", str(a / "train.csv")])
        invoke(runner, base + ["evaluate", "--model-file", str(a / "model.ccm"),
                               "--dataset", str(a / "test.csv"),
                               "--train-dataset", str(a / "train.csv")])
        invoke(runner, ["--config", str(cfg), "--out-dir", str(b), "pipeline"])
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (kind, name)
        assert set(load_manifest(b).outputs) >= {
            str(b / n) for n in ("traj_j1j2j3_0.5.json", "train.json", "test.json")}


# ---------------------------------------------------------------------------
# exit codes and failure handling


def test_bad_config_value_exits_2(runner, tmp_path):
    p = tmp_path / "bad.toml"
    p.write_text("[training]\nmodel = \"forest\"\n")
    result = runner.invoke(main, ["--config", str(p), "generate"])
    assert result.exit_code == 2


def test_bad_optimizer_value_exits_2_naming_file(runner, tmp_path):
    p = tmp_path / "bad.toml"
    p.write_text("[training]\nbeta1 = 1.5\n")
    result = runner.invoke(main, ["--config", str(p), "generate"])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert f"config error: {p}: " in text
    assert "beta1" in text


def test_unknown_section_exits_2(runner, tmp_path):
    p = tmp_path / "bad.toml"
    p.write_text("[nope]\nx = 1\n")
    result = runner.invoke(main, ["--config", str(p), "generate"])
    assert result.exit_code == 2


def test_malformed_config_exits_2_naming_file(runner, tmp_path):
    p = tmp_path / "bad.toml"
    p.write_text("a = 1\nb = 2\nc = ?\n")
    result = runner.invoke(main, ["--config", str(p), "generate"])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert f"config error: {p}: " in text
    assert "line 3" in text


@pytest.mark.parametrize("name, body", [
    ("c.json", '{"limits": {"max": [90, 90, %s]}}' % ("9" * 400)),
    ("c.toml", "[limits]\nmax = [90, 90, %s]\n" % ("9" * 400)),
], ids=["json", "toml"])
def test_integer_too_large_for_a_float_exits_2_naming_file_and_key(
        runner, tmp_path, name, body):
    p = tmp_path / name
    p.write_text(body)
    result = runner.invoke(main, ["--config", str(p), "generate"])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert f"config error: {p}: entry 'limits.max': must be finite" in text
    assert "Traceback" not in text


def test_directory_as_config_exits_2_naming_it(runner, tmp_path):
    result = runner.invoke(main, ["--config", str(tmp_path), "generate"])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert f"config error: config file is not a file: {tmp_path}" in text


def test_zero_load_ref_exits_2_naming_file(runner, tmp_path):
    p = tmp_path / "bad.toml"
    p.write_text("[error_model]\nload_ref_g = 0\n")
    result = runner.invoke(main, ["--config", str(p), "--out-dir",
                                  str(tmp_path / "o"), "record"])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert f"config error: {p}: " in text and "load_ref_g" in text
    assert not (tmp_path / "o").exists()


def test_bad_sweep_direction_exits_2(runner, fast_cfg, tmp_path):
    result = runner.invoke(main, out_args(fast_cfg, tmp_path / "o") +
                           ["sweep", "--directions", "j9"])
    assert result.exit_code == 2


def test_bad_sweep_sparsities_exits_2(runner, fast_cfg, tmp_path):
    result = runner.invoke(main, out_args(fast_cfg, tmp_path / "o") +
                           ["sweep", "--sparsities", "0.5,abc"])
    assert result.exit_code == 2
    assert "--sparsities" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("body, args", [
    (FAST_TOML, ["sweep", "--sparsities", ","]),
    (FAST_TOML.replace("sparsity = 0.5\n", "sparsity = 0.5\nsparsities = []\n"),
     ["sweep"])], ids=["option", "config-file"])
def test_empty_sparsity_list_exits_2_naming_the_key(runner, tmp_path, body, args):
    cfg = tmp_path / "c.toml"
    cfg.write_text(body)
    out = tmp_path / "o"
    result = runner.invoke(main, out_args(str(cfg), out) + args)
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert "trajectory.sparsities: sparsities must be a list of at least one" in text
    assert "Traceback" not in text
    assert not out.exists()


@pytest.mark.parametrize("command, load", [("record", "heavy"), ("record", "-5"),
                                           ("sweep", "nan")])
def test_bad_load_option_exits_2_before_any_stage(runner, fast_cfg, tmp_path,
                                                  command, load):
    out = tmp_path / "o"
    result = runner.invoke(main, out_args(fast_cfg, out) + [command, "--load", load])
    assert result.exit_code == 2
    assert "--load" in result.output and "Traceback" not in result.output
    assert not out.exists()         # no stage ran, no manifest


@pytest.mark.parametrize("args, rule", [
    (["record", "--time-scale", "0.5"],
     "eval.time_scale: time_scale must be a finite number >= 1"),
    (["process", "--bag", "{m}/bag0", "--tolerance", "-1"],
     "eval.sync_tolerance_s: sync_tolerance_s must be a finite number >= 0"),
    (["train", "--dataset", "{m}/train.csv", "--epochs", "0"],
     "epochs must be an integer >= 1"),
    (["train", "--dataset", "{m}/train.csv", "--ridge", "-1"],
     "training.ridge: ridge must be a finite number >= 0"),
    (["generate", "--sparsity", "0.9"],
     "trajectory.sparsity: sparsity must be a finite number in (0, 1/2]"),
    (["sweep", "--sparsities", "0.5,0"],
     "trajectory.sparsities: sparsity must be a finite number in (0, 1/2]")],
    ids=["time_scale", "tolerance", "epochs", "ridge", "sparsity", "sparsities"])
def test_option_meets_its_config_key_checks(runner, fast_cfg, made, tmp_path,
                                            args, rule):
    # the same value in the config file is a config error (exit 2); given
    # as an option it is a usage error, before any stage runs
    out = tmp_path / "o"
    result = runner.invoke(main, out_args(fast_cfg, out) +
                           [a.format(m=made) for a in args])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert rule in text and args[-2] in text and "Traceback" not in text
    assert not out.exists()


def _files(root: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("args, key", [
    (["record", "--time-scale", "inf"], "eval.time_scale"),
    (["train", "--dataset", "{o}/train.csv", "--ridge", "inf"], "training.ridge"),
    (["process", "--bag", "{o}/bag0", "--tolerance", "inf"],
     "eval.sync_tolerance_s"),
    (["bench", "--model-file", "{o}/model.ccm", "--dataset", "{o}/test.csv",
      "--budget-hz", "inf"], "eval.budget_hz")],
    ids=["time_scale", "ridge", "tolerance", "budget_hz"])
def test_infinite_option_exits_2_and_keeps_the_output_directory(
        runner, fast_cfg, made, tmp_path, args, key):
    # an infinite setting is refused by the key's rule, like any other bad
    # value, before a stage writes anything over the earlier artifacts
    out = tmp_path / "o"
    shutil.copytree(made, out)
    before = _files(out)
    result = runner.invoke(main, out_args(fast_cfg, out) +
                           [a.format(o=out) for a in args])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert f"{key}: " in text and "must be a finite number" in text
    assert "Traceback" not in text
    assert _files(out) == before


#: Every option that restates a key, with a value the key's rule refuses:
#: (arguments, the key as a config file spells it).
REFUSED = {
    "--direction": (["generate", "--direction", "j4"], "trajectory.direction"),
    "--model": (["train", "--dataset", "{o}/train.csv", "--model", "forest"],
                "training.model"),
    "--mode": (["train", "--dataset", "{o}/train.csv", "--mode", "sideways"],
               "training.mode"),
    "--sparsity": (["generate", "--sparsity", "0.9"], "trajectory.sparsity"),
    "--sparsities": (["sweep", "--sparsities", "0.5,0"], "trajectory.sparsities"),
    "--load": (["record", "--load", "heavy"], "eval.load"),
    "--time-scale": (["record", "--time-scale", "0.5"], "eval.time_scale"),
    "--train-frac": (["process", "--bag", "{o}/bag0", "--train-frac", "1"],
                     "training.train_frac"),
    "--tolerance": (["process", "--bag", "{o}/bag0", "--tolerance", "-1"],
                    "eval.sync_tolerance_s"),
    "--epochs": (["train", "--dataset", "{o}/train.csv", "--epochs", "0"],
                 "training.epochs"),
    "--ridge": (["train", "--dataset", "{o}/train.csv", "--ridge", "-1"],
                "training.ridge"),
    "--samples": (["bench", "--model-file", "{o}/model.ccm", "--dataset",
                   "{o}/test.csv", "--samples", "0"], "eval.latency_samples"),
    "--budget-hz": (["bench", "--model-file", "{o}/model.ccm", "--dataset",
                     "{o}/test.csv", "--budget-hz", "0"], "eval.budget_hz"),
    "--seed": (["--seed", "-1", "pipeline"], "training.seed"),
    # a value that is no number at all meets the key's own check too
    "--sparsity abc": (["generate", "--sparsity", "abc"], "trajectory.sparsity"),
    "--sparsities abc": (["sweep", "--sparsities", "0.5,abc"], "trajectory.sparsities"),
    "--time-scale abc": (["record", "--time-scale", "abc"], "eval.time_scale"),
    "--train-frac abc": (["process", "--bag", "{o}/bag0", "--train-frac", "abc"],
                         "training.train_frac"),
    "--tolerance abc": (["process", "--bag", "{o}/bag0", "--tolerance", "abc"],
                        "eval.sync_tolerance_s"),
    "--epochs abc": (["train", "--dataset", "{o}/train.csv", "--epochs", "abc"],
                     "training.epochs"),
    "--ridge abc": (["train", "--dataset", "{o}/train.csv", "--ridge", "abc"],
                    "training.ridge"),
    "--samples abc": (["bench", "--model-file", "{o}/model.ccm", "--dataset",
                       "{o}/test.csv", "--samples", "abc"], "eval.latency_samples"),
    "--budget-hz abc": (["bench", "--model-file", "{o}/model.ccm", "--dataset",
                         "{o}/test.csv", "--budget-hz", "abc"], "eval.budget_hz"),
    "--seed abc": (["--seed", "abc", "pipeline"], "training.seed"),
}


@pytest.mark.parametrize("option", list(REFUSED))
def test_a_refused_option_names_its_key_and_keeps_the_output_directory(
        runner, fast_cfg, made, tmp_path, option):
    args, key = REFUSED[option]
    out = tmp_path / "o"
    shutil.copytree(made, out)
    before = _files(out)
    result = runner.invoke(main, out_args(fast_cfg, out) + [a.format(o=out) for a in args])
    text = result.output + (result.stderr or "")
    assert result.exit_code == 2, text
    assert f"{key}: " in text and "Traceback" not in text
    assert _files(out) == before


def test_record_refuses_direction_and_sparsity_beside_a_trajectory_file(
        runner, fast_cfg, made, tmp_path):
    # the file names its own direction and sparsity, which name the bag
    out = tmp_path / "o"
    traj = str(made / "traj_j1j2j3_0.5.csv")
    for extra in (["--direction", "j3"], ["--sparsity", "0.25"],
                  ["--direction", "j3", "--sparsity", "0.25"]):
        result = runner.invoke(main, out_args(fast_cfg, out) + [
            "record", "--trajectory", traj, *extra])
        text = result.output + (result.stderr or "")
        assert result.exit_code == 2, text
        assert extra[0] in text and "--trajectory" in text
        assert not out.exists()


@pytest.mark.parametrize("key, spellings", [
    ("time_scale", [("time_scale = 30", []), ("time_scale = 30.0", []),
                    ("", ["--time-scale", "30"])]),
    ("load", [("load = 250", []), ('load = "250"', []), ("", ["--load", "250"])])],
    ids=["time_scale", "load"])
def test_a_setting_writes_the_same_bytes_however_it_is_spelled(
        runner, tmp_path, key, spellings):
    trees = []
    for i, (line, option) in enumerate(spellings):
        body = "\n".join(x for x in FAST_TOML.split("\n") if not x.startswith(key))
        cfg = tmp_path / f"{i}.toml"
        cfg.write_text(body + line + "\n")
        out = tmp_path / str(i)
        base = out_args(str(cfg), out)
        invoke(runner, base + ["record", "--name", "bag0", *option])
        invoke(runner, base + ["process", "--bag", str(out / "bag0")])
        trees.append(_artifact_hashes(out))
    assert len(trees[0]) == 7 and trees[0] == trees[1] == trees[2]


@pytest.mark.parametrize("key, spellings", [
    ("time_scale", [("time_scale = 20", []), ("time_scale = 20.0", []),
                    ("", ["--time-scale", "20"])]),
    ("load", [("load = 250", []), ('load = "250"', []), ("", ["--load", "250"])])],
    ids=["time_scale", "load"])
def test_a_setting_records_one_config_however_it_is_spelled(runner, tmp_path, key, spellings):
    # the manifest keeps the checked value, so its config and config_hash
    # are one for every spelling, as the artifacts are
    manifests = []
    for i, (line, option) in enumerate(spellings):
        body = "\n".join(x for x in FAST_TOML.split("\n") if not x.startswith(key))
        cfg = tmp_path / f"{i}.toml"
        cfg.write_text(body + line + "\n")
        out = tmp_path / str(i)
        invoke(runner, out_args(str(cfg), out) + ["record", "--name", "bag0", *option])
        m = json.loads((out / "manifest.json").read_text())
        manifests.append((m["config"], m["config_hash"]))
    assert manifests[0] == manifests[1] == manifests[2]
    assert isinstance(manifests[0][0]["eval"][key], float)


@pytest.mark.parametrize("body, key", [
    ("[eval]\nrates = [true, 100]\n", "eval.rates"),
    ("[trajectory]\nspeeds = [true, 3, 9]\n", "trajectory.speeds"),
    ("[limits]\nmin = [true, 0, 0]\n", "limits min"),
    ("[error_model]\noffset = [true, 0, 0]\n", "offset"),
    ("[error_model]\nposition_gain = [[0, 0, 0], [0, false, 0], [0, 0, 0]]\n",
     "position_gain")], ids=["rates", "speeds", "limits", "offset", "gain"])
def test_boolean_in_a_config_list_exits_2_naming_the_key(runner, tmp_path, body, key):
    p = tmp_path / "bad.toml"
    p.write_text(body)
    result = runner.invoke(main, ["--config", str(p), "--out-dir",
                                  str(tmp_path / "o"), "generate"])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert f"config error: {p}: " in text and key in text
    assert not (tmp_path / "o").exists()


def test_options_are_hashed_into_the_manifest(runner, fast_cfg, made, tmp_path):
    hashes, models = set(), set()
    for ridge in ("0", "5"):
        out = tmp_path / ridge
        invoke(runner, out_args(fast_cfg, out) + [
            "train", "--dataset", str(made / "train.csv"), "--ridge", ridge])
        m = load_manifest(out)
        assert m.config["training"]["ridge"] == float(ridge)
        hashes.add(m.config_hash)
        models.add(m.outputs[str(out / "model.ccm")]["sha256"])
    assert len(models) == 2 and len(hashes) == 2


@pytest.mark.parametrize("args", [
    ["--help"], ["train", "--help"], ["--out-dir", "x/y", "sweep", "--help"],
    ["train"], ["--out-dir", "x/y", "generate", "--direction", "j9"]],
    ids=["group_help", "train_help", "sweep_help", "missing_option",
         "bad_choice"])
def test_help_and_usage_errors_leave_no_directory(runner, tmp_path, args):
    with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
        result = runner.invoke(main, args)
        assert result.exit_code == (0 if "--help" in args else 2)
        assert list(Path(cwd).iterdir()) == []


def test_out_dir_that_is_a_file_is_a_stage_failure(runner, fast_cfg, tmp_path):
    # a usage error, checked before any stage
    out = tmp_path / "f"
    out.write_text("x")
    result = runner.invoke(main, out_args(fast_cfg, out) + ["generate"])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert "Invalid value for '--out-dir'" in text and str(out) in text
    assert "done in" not in result.stdout           # no stage ran
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "fast.toml"]
    assert out.read_text() == "x"


@pytest.mark.parametrize("command, name", [
    ("record", "sub/bag0"), ("record", ".."), ("record", "manifest.json"),
    ("train", "sub/m.ccm"), ("train", "")])
def test_a_name_that_is_not_one_entry_of_out_dir_is_a_usage_error(
        runner, fast_cfg, made, tmp_path, command, name):
    # outputs are published into --out-dir by name, beside the manifest
    out = tmp_path / "o"
    args = ["--dataset", str(made / "train.csv")] if command == "train" else []
    result = runner.invoke(main, out_args(fast_cfg, out) + [command, "--name", name, *args])
    assert result.exit_code == 2
    assert "Invalid value for '--name'" in result.output + (result.stderr or "")
    assert not out.exists()


def _same_bag_twice(out):
    return [str(out / "a"), os.path.relpath(out / "a")]


def _two_bags_of_one_recording(out):
    shutil.copytree(out / "a", out / "b")
    return [str(out / "a"), str(out / "b")]


@pytest.mark.parametrize("bags", [_same_bag_twice, _two_bags_of_one_recording],
                         ids=["same-path", "same-state"])
def test_process_refuses_one_recording_given_twice(runner, fast_cfg, tmp_path, bags):
    # its rows would be both train and test rows
    out = tmp_path / "o"
    invoke(runner, out_args(fast_cfg, out) + ["record", "--name", "a"])
    before = _files(out)
    first, second = bags(out)
    result = runner.invoke(main, out_args(fast_cfg, out) + [
        "process", "--bag", first, "--bag", second])
    assert result.exit_code == 2
    text = result.output + (result.stderr or "")
    assert "Invalid value for '--bag'" in text and first in text and second in text
    assert "[process]" not in result.stdout
    assert _files(out) == {**before, **_files(out / "b", "b/")}


def test_stage_failure_exits_3_and_cleans_partials(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    bad = out / "bad.ccm"
    bad.write_text("not a model")
    # need some dataset to point at
    invoke(runner, out_args(fast_cfg, out) + ["record", "--name", "bag0"])
    invoke(runner, out_args(fast_cfg, out) + ["process", "--bag",
                                              str(out / "bag0")])
    result = runner.invoke(main, out_args(fast_cfg, out) + [
        "evaluate", "--model-file", str(bad),
        "--dataset", str(out / "test.csv")])
    assert result.exit_code == 3
    text = result.output + (result.stderr or "")
    assert "stage 'evaluate' failed" in text
    assert not (out / "rmse_report.csv").exists()


@pytest.mark.parametrize("command, writer, fail_on, outputs", [
    ("record", "save_bag", 1, ["bag_j1j2j3_0.5"]),
    ("process", "save_dataset", 2, ["train.csv", "train.json", "test.csv", "test.json"]),
], ids=["bag-directory", "dataset-files"])
def test_failed_stage_removes_what_it_wrote(runner, fast_cfg, tmp_path, monkeypatch,
                                            command, writer, fail_on, outputs):
    out = tmp_path / "o"
    invoke(runner, out_args(fast_cfg, out) + ["record", "--name", "bag0"])
    real, calls = getattr(cablecal.data, writer), []

    def write_then_fail(obj, path):
        real(obj, path)
        calls.append(path)
        if len(calls) == fail_on:
            raise OSError("disk full")

    monkeypatch.setattr(cablecal.data, writer, write_then_fail)
    args = ["--bag", str(out / "bag0")] if command == "process" else []
    result = runner.invoke(main, out_args(fast_cfg, out) + [command] + args)
    assert result.exit_code == 3 and len(calls) == fail_on
    assert "disk full" in result.output + (result.stderr or "")
    assert [p for p in outputs if (out / p).exists()] == []


def test_failed_process_rerun_keeps_the_previous_pair(runner, fast_cfg, tmp_path,
                                                      monkeypatch):
    out = tmp_path / "o"
    base = out_args(fast_cfg, out)
    invoke(runner, base + ["--seed", "1", "record", "--name", "a"])
    invoke(runner, base + ["--seed", "2", "record", "--name", "b"])
    invoke(runner, base + ["process", "--bag", str(out / "a")])
    before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in out.iterdir() if p.is_file()}
    assert {"train.csv", "train.json", "test.csv", "test.json", "manifest.json"} <= set(before)
    real, calls = cablecal.data.save_dataset, []

    def write_then_fail(ds, path):
        real(ds, path)
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")

    monkeypatch.setattr(cablecal.data, "save_dataset", write_then_fail)
    result = runner.invoke(main, base + ["process", "--bag", str(out / "b")])
    assert result.exit_code == 3 and len(calls) == 2
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir() if p.is_file()} == before


def test_pipeline_times_the_configured_number_of_predictions(runner, tmp_path):
    cfg = tmp_path / "c.toml"
    cfg.write_text(FAST_TOML.replace("latency_samples = 500", "latency_samples = 6000")
                   .replace("repeats = 2", "repeats = 1"))
    out = tmp_path / "o"
    invoke(runner, ["--config", str(cfg), "--out-dir", str(out), "pipeline"])
    (report,) = json.loads((out / "latency.json").read_text())
    assert report["n_samples"] == 6000 and report["repeats"] == 1


def test_record_names_a_sidecar_without_direction(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    invoke(runner, out_args(fast_cfg, out) + ["generate", "--direction", "j2"])
    side = out / "traj_j2_0.5.json"
    doc = json.loads(side.read_text())
    del doc["direction"]
    side.write_text(json.dumps(doc))
    result = runner.invoke(main, out_args(fast_cfg, out) + [
        "record", "--trajectory", str(out / "traj_j2_0.5.csv")])
    assert result.exit_code == 3
    text = result.output + (result.stderr or "")
    assert f"stage 'record' failed: {side}: entry 'direction': missing" in text


def test_failed_train_keeps_earlier_model(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    base = out_args(fast_cfg, out)
    invoke(runner, base + ["record", "--name", "bag0"])
    invoke(runner, base + ["process", "--bag", str(out / "bag0")])
    invoke(runner, base + ["train", "--dataset", str(out / "train.csv")])
    before = (out / "model.ccm").read_bytes()
    bad = tmp_path / "bad" / "train.csv"
    bad.parent.mkdir()
    bad.write_bytes((out / "train.csv").read_bytes())
    side = json.loads((out / "train.json").read_text())
    del side["schema"]
    bad.with_suffix(".json").write_text(json.dumps(side))
    result = runner.invoke(main, base + ["train", "--dataset", str(bad)])
    assert result.exit_code == 3
    assert str(bad.with_suffix(".json")) in result.output + (result.stderr or "")
    assert (out / "model.ccm").read_bytes() == before
    # the earlier run's manifest still describes the file on disk
    assert (load_manifest(out).outputs[str(out / "model.ccm")]["sha256"]
            == hash_file(out / "model.ccm"))


def _files(root: Path, prefix="") -> dict:
    """Every file under ``root``, hidden ones included, with its bytes."""
    return {prefix + p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _diverging(tmp_path) -> Path:
    """A config whose MLP fit fails at its first epoch."""
    path = tmp_path / "diverging.toml"
    path.write_text(FAST_TOML.replace('model = "linear"',
                                      'model = "mlp"\nepochs = 2\nlr = 1e30'))
    return path


def _listed_outputs_match(out: Path) -> bool:
    """No manifest, or one whose every output has its recorded hash."""
    if not (out / "manifest.json").exists():
        return True
    return all(e["sha256"] == (hash_tree if Path(e["path"]).is_dir() else hash_file)(e["path"])
               for e in load_manifest(out).outputs.values())


def test_failed_rerun_changes_nothing(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    invoke(runner, out_args(fast_cfg, out) + ["--seed", "1", "pipeline"])
    before = _files(out)
    result = runner.invoke(main, ["--config", str(_diverging(tmp_path)), "--out-dir",
                                  str(out), "--seed", "2", "pipeline"])
    assert result.exit_code == 3
    assert "stage 'train[mlp]' failed: non-finite loss inf at epoch 1" in result.stderr
    assert "manifest:" not in result.output
    # the seed-1 run's files, manifest included, and no staging directory
    assert _files(out) == before
    assert not list(out.glob(".*.run"))
    assert load_manifest(out).seed == 1 and _listed_outputs_match(out)


def test_failed_run_removes_the_out_dir_it_made(runner, tmp_path):
    out = tmp_path / "new" / "o"
    result = runner.invoke(main, ["--config", str(_diverging(tmp_path)), "--out-dir",
                                  str(out), "pipeline"])
    assert result.exit_code == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diverging.toml"]


def test_an_output_that_would_replace_another_kind_is_refused_before_publishing(
        runner, fast_cfg, made, tmp_path):
    out = tmp_path / "o"
    invoke(runner, out_args(fast_cfg, out) + ["record", "--name", "bag0"])
    before = _files(out)
    result = runner.invoke(main, out_args(fast_cfg, out) + [
        "train", "--dataset", str(made / "train.csv"), "--name", "bag0"])
    assert result.exit_code == 3
    assert f"publish failed: {out / 'bag0'}: exists and is a directory" in result.stderr
    assert _files(out) == before and not list(out.glob(".*.run"))


def test_a_rerun_replaces_a_bag_directory_whole(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    invoke(runner, out_args(fast_cfg, out) + ["--seed", "1", "record", "--name", "b"])
    (out / "b" / "extra.txt").write_text("left by hand")
    invoke(runner, out_args(fast_cfg, tmp_path / "fresh") + ["--seed", "2", "record",
                                                             "--name", "b"])
    invoke(runner, out_args(fast_cfg, out) + ["--seed", "2", "record", "--name", "b"])
    assert _files(out / "b") == _files(tmp_path / "fresh" / "b")
    assert _listed_outputs_match(out)


def test_a_failed_rename_anywhere_leaves_the_run_or_no_manifest(runner, fast_cfg, tmp_path,
                                                              monkeypatch):
    # the Nth os.replace of a seed-2 rerun over a seed-1 run raises, for
    # every N the rerun reaches; a failure before publishing (a replace into
    # the staging directory) changes nothing, and any failure leaves no
    # manifest or one that matches the files
    pristine = tmp_path / "seed1"
    invoke(runner, out_args(fast_cfg, pristine) + ["--seed", "1", "pipeline"])
    before = _files(pristine)
    real, targets, fail_at = os.replace, [], [0]

    def replace(src, dst, **kwargs):
        targets.append(Path(dst))
        if len(targets) == fail_at[0]:
            raise OSError("injected")
        return real(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    out = tmp_path / "count"
    shutil.copytree(pristine, out)
    invoke(runner, out_args(fast_cfg, out) + ["--seed", "2", "pipeline"])
    staged = [any(part.endswith(".run") for part in p.parts) for p in targets]
    assert staged.count(True) == 14 and staged.index(False) == 14
    for n in range(1, len(staged) + 1):
        out = tmp_path / f"n{n}"
        shutil.copytree(pristine, out)
        targets.clear()
        fail_at[0] = n
        result = runner.invoke(main, out_args(fast_cfg, out) + ["--seed", "2", "pipeline"])
        assert result.exit_code == 3 and len(targets) == n, n
        assert not list(out.glob(".*.run")), n
        if staged[n - 1]:
            assert _files(out) == before, n
        else:
            assert "publish failed: injected" in result.stderr, n
            assert not (out / "manifest.json").exists(), n
        assert _listed_outputs_match(out), n


def test_record_names_each_bag_after_the_trajectory_it_follows(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    base = out_args(fast_cfg, out)
    invoke(runner, base + ["generate", "--direction", "j1", "--sparsity", "0.25"])
    invoke(runner, base + ["generate", "--direction", "j2"])
    for traj in ("traj_j1_0.25.csv", "traj_j2_0.5.csv"):
        invoke(runner, base + ["record", "--trajectory", str(out / traj)])
    for bag, direction, sparsity in (("bag_j1_0.25", "j1", 0.25), ("bag_j2_0.5", "j2", 0.5)):
        meta = json.loads((out / bag / "metadata.json").read_text())["metadata"]
        assert meta["trajectory"] == {"direction": direction, "sparsity": sparsity}
    assert not (out / "bag_j1j2j3_0.5").exists()    # not the configured pair
    assert set(load_manifest(out).outputs) == {str(out / "bag_j2_0.5")}


def test_missing_artifact_is_usage_error(runner, fast_cfg, tmp_path):
    result = runner.invoke(main, out_args(fast_cfg, tmp_path / "o") + [
        "train", "--dataset", str(tmp_path / "missing.csv")])
    assert result.exit_code == 2  # click flags the nonexistent path


def test_train_rerun_is_bit_identical(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    base = out_args(fast_cfg, out)
    invoke(runner, base + ["record", "--name", "bag0"])
    invoke(runner, base + ["process", "--bag", str(out / "bag0")])
    invoke(runner, base + ["train", "--dataset", str(out / "train.csv"),
                           "--name", "m1.ccm"])
    invoke(runner, base + ["train", "--dataset", str(out / "train.csv"),
                           "--name", "m2.ccm"])
    assert (out / "m1.ccm").read_bytes() == (out / "m2.ccm").read_bytes()


def test_the_manifest_config_reruns_the_run(runner, tmp_path):
    # --seed and the options are recorded in the manifest's config, so that
    # config alone, passed back with --config, writes the same artifacts
    cfg = tmp_path / "mlp.toml"
    cfg.write_text(THREADS_TOML.format(kind="mlp"))
    first, again = tmp_path / "first", tmp_path / "again"
    invoke(runner, ["--config", str(cfg), "--seed", "3", "--out-dir", str(first),
                    "pipeline", "--time-scale", "30", "--epochs", "2"])
    m = load_manifest(first)
    assert m.seed == m.config["training"]["seed"] == 3
    written = tmp_path / "written.json"
    written.write_text(json.dumps(m.config))
    invoke(runner, ["--config", str(written), "--out-dir", str(again), "pipeline"])
    assert "model.ccm" in _artifact_hashes(first)
    assert _artifact_hashes(again) == _artifact_hashes(first)


def test_seed_option_changes_recording(runner, fast_cfg, tmp_path):
    out = tmp_path / "o"
    base = out_args(fast_cfg, out)
    invoke(runner, base + ["--seed", "1", "record", "--name", "a"])
    invoke(runner, base + ["--seed", "9", "record", "--name", "b"])
    a = (out / "a" / "state.csv").read_bytes()
    b = (out / "b" / "state.csv").read_bytes()
    assert a != b


# ---------------------------------------------------------------------------
# manifest hashing


def test_hash_bytes_and_file_agree(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"hello")
    assert hash_file(p) == hashlib.sha256(b"hello").hexdigest()
    assert hash_file(p) != hashlib.sha256(b"hellO").hexdigest()


def test_hash_tree_covers_nested_content(tmp_path):
    d = tmp_path / "d"
    (d / "sub").mkdir(parents=True)
    (d / "a.txt").write_text("1")
    (d / "sub" / "b.txt").write_text("2")
    h1 = hash_tree(d)
    (d / "sub" / "b.txt").write_text("3")
    assert hash_tree(d) != h1
    # renaming changes the tree hash too
    (d / "sub" / "b.txt").rename(d / "sub" / "c.txt")
    h3 = hash_tree(d)
    (d / "sub" / "c.txt").rename(d / "sub" / "b.txt")
    (d / "sub" / "b.txt").write_text("2")
    assert hash_tree(d) == h1
    assert h3 != h1
    # a killed writer's staging file is not part of the artifact
    (d / "sub" / ".b.0123abcd.tmp.txt").write_text("partial")
    assert hash_tree(d) == h1


def test_hash_config_ignores_key_order():
    assert (json_digest({"a": 1, "b": [1, 2]})
            == json_digest({"b": [1, 2], "a": 1}))
    assert json_digest({"a": 1}) != json_digest({"a": 2})


def test_manifest_round_trip(tmp_path):
    f = tmp_path / "input.txt"
    f.write_text("data")
    m = RunManifest(command="train", seed=5, config={"x": 1})
    m.add_input(f)
    m.add_stage("train", 1.25, sim_s=60.0)
    path = m.write(tmp_path)
    assert path.name == "manifest.json"
    back = load_manifest(tmp_path)       # by directory
    again = load_manifest(path)          # by file
    assert back.to_dict() == again.to_dict() == m.to_dict()
    assert back.config_hash == m.config_hash
    assert back.inputs[str(f)]["sha256"] == hash_file(f)


@pytest.mark.parametrize("key", ["stages", "inputs", "command", "tool_version"])
def test_load_manifest_names_missing_key(tmp_path, key):
    path = RunManifest(command="train", seed=5, config={"x": 1}).write(tmp_path)
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_manifest(tmp_path)
    assert str(path) in str(info.value) and repr(key) in str(info.value)


@pytest.mark.parametrize("key, value", [
    ("inputs", 5), ("outputs", [1]), ("stages", 7), ("stages", {}),
    ("seed", "x"), ("seed", True), ("config", []), ("command", None)])
def test_load_manifest_names_wrong_typed_entry(tmp_path, key, value):
    path = RunManifest(command="train", seed=5, config={"x": 1}).write(tmp_path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_manifest(tmp_path)
    assert str(path) in str(info.value) and repr(key) in str(info.value)


@pytest.mark.parametrize("key, value, entry", [
    ("inputs", {"a": 5}, "inputs.a"),
    ("outputs", {"a": {"path": "a"}}, "outputs.a.sha256"),
    ("outputs", {"a": {"path": "a", "sha256": "abc"}}, "outputs.a.sha256"),
    ("stages", [{"name": 1}], "stages.0.name"),
    ("stages", [{"name": "train"}], "stages.0.wall_s"),
    ("stages", [{"name": "train", "wall_s": 1.0, "sim_s": "x"}], "stages.0.sim_s"),
    ("config_hash", "0" * 64, "config_hash"),
    ("tool", "other", "tool"),
    ("failed", {"stage": "train[mlp]", "error": "x"}, "failed"),
], ids=["input-int", "output-without-sha", "output-short-sha", "stage-int-name",
        "stage-without-wall", "stage-string-sim", "config-hash", "tool",
        "failed-entry"])
def test_load_manifest_checks_nested_entries(tmp_path, key, value, entry):
    path = RunManifest(command="train", seed=5, config={"x": 1}).write(tmp_path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: entry '{entry}': ")):
        load_manifest(tmp_path)


def test_manifest_keeps_same_named_files_apart(tmp_path):
    paths = [tmp_path / d / "t.csv" for d in ("a", "b")]
    m = RunManifest(command="evaluate", seed=0, config={})
    for p in paths:
        p.parent.mkdir()
        p.write_text(p.parent.name)
        m.add_input(p)
        m.add_output(p)
    want = {str(p): hash_file(p) for p in paths}
    assert {k: v["sha256"] for k, v in m.inputs.items()} == want
    assert {k: v["sha256"] for k, v in m.outputs.items()} == want


# ---------------------------------------------------------------------------
# manifest contract: what each subcommand records


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """A trajectory, a bag, train/test datasets and a model to feed the
    subcommands, all built by the CLI from the fast config."""
    root = tmp_path_factory.mktemp("made")
    cfg = root / "fast.toml"
    cfg.write_text(FAST_TOML)
    runner = CliRunner()
    base = ["--config", str(cfg), "--out-dir", str(root)]
    invoke(runner, base + ["generate"])
    invoke(runner, base + ["record", "--name", "bag0"])
    invoke(runner, base + ["process", "--bag", str(root / "bag0")])
    invoke(runner, base + ["train", "--dataset", str(root / "train.csv")])
    return root


PIPELINE_OUTPUTS = ["traj_j1j2j3_0.5.csv", "traj_j1j2j3_0.5.json",
                    "bag_j1j2j3_0.5", "train.csv", "train.json", "test.csv",
                    "test.json", "model.ccm", "rmse_report.csv",
                    "rmse_report.json", "latency.csv", "latency.json"]

#: subcommand -> (arguments, stage names, input names under the made
#: directory, output names under the run's own directory, config fields
#: the arguments set, per section)
CONTRACT = {
    "generate": (["--direction", "j2"], ["generate[j2,0.5]"], [],
                 ["traj_j2_0.5.csv", "traj_j2_0.5.json"],
                 {"trajectory": {"direction": "j2"}}),
    "record": (["--trajectory", "{m}/traj_j1j2j3_0.5.csv"], ["record"],
               ["traj_j1j2j3_0.5.csv"], ["bag_j1j2j3_0.5"], {}),
    "process": (["--bag", "{m}/bag0"], ["process"], ["bag0"],
                ["train.csv", "train.json", "test.csv", "test.json"], {}),
    "train": (["--dataset", "{m}/train.csv"], ["train[linear]"],
              ["train.csv"], ["model.ccm"], {}),
    "evaluate": (["--model-file", "{m}/model.ccm", "--dataset", "{m}/test.csv",
                  "--train-dataset", "{m}/train.csv"], ["evaluate"],
                 ["model.ccm", "test.csv", "train.csv"],
                 ["rmse_report.csv", "rmse_report.json"], {}),
    "bench": (["--model-file", "{m}/model.ccm", "--dataset", "{m}/test.csv",
               "--samples", "50"], ["bench"], ["model.ccm", "test.csv"],
              ["latency.csv", "latency.json"],
              {"eval": {"latency_samples": 50}}),
    "sweep": (["--directions", "j1", "--sparsities", "0.5"], ["sweep"], [],
              ["sweep.csv", "sweep.json"],
              {"trajectory": {"sparsities": (0.5,)}}),
    "pipeline": ([], ["generate", "record", "process", "train[linear]",
                      "evaluate", "bench"], [], PIPELINE_OUTPUTS, {}),
}


@pytest.mark.parametrize("command", list(CONTRACT))
def test_manifest_contract(runner, fast_cfg, made, tmp_path, command):
    args, stages, inputs, outputs, changes = CONTRACT[command]
    out = tmp_path / "o"
    invoke(runner, out_args(fast_cfg, out) + [command] +
           [a.format(m=made) for a in args])
    m = load_manifest(out)
    assert m.command == command and m.seed == 11
    assert [s["name"] for s in m.stages] == stages
    assert set(m.inputs) == {str(made / n) for n in inputs}
    assert set(m.outputs) == {str(out / n) for n in outputs}
    # the manifest hashes the config the run used: the options applied
    want = load_config(fast_cfg)
    for section, values in changes.items():
        want = replace(want, **{section: replace(getattr(want, section),
                                                 **values)})
    assert m.config == want.to_dict()
    assert m.config_hash == json_digest(want.to_dict())
    assert sorted(p.name for p in out.iterdir()) == sorted(
        {n.split("/")[0] for n in outputs} | {"manifest.json"})


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


#: flag -> (subcommand and arguments, a check of the run's output directory)
FLAGS = {
    "--decay": (["evaluate", "--model-file", "{m}/model.ccm", "--dataset",
                 "{m}/test.csv", "--decay"],
                lambda out: {r["bucket_hour"] for r in _csv_rows(
                    out / "rmse_report.csv")} >= {"", "0"}),
    "--full-features": (["process", "--bag", "{m}/bag0", "--full-features"],
                        lambda out: cablecal.load_dataset(
                            out / "train.csv").inputs.shape[1] == 138),
    "--with-mlp": (["sweep", "--directions", "j1", "--sparsities", "0.5",
                    "--with-mlp"],
                   lambda out: {r["model"] for r in _csv_rows(
                       out / "sweep.csv")} == {"offset", "linear", "mlp"}),
}


@pytest.mark.parametrize("flag", list(FLAGS))
def test_flag_shows_in_its_output(runner, fast_cfg, made, tmp_path, flag):
    args, check = FLAGS[flag]
    out = tmp_path / "o"
    invoke(runner, out_args(fast_cfg, out) + [a.format(m=made) for a in args])
    assert check(out)


# ---------------------------------------------------------------------------
# BLAS thread count: what stays byte-identical


THREADS_TOML = """
[trajectory]
direction = "j2j3"
sparsity = 0.5

[training]
model = "{kind}"

[eval]
latency_samples = 50
repeats = 1
"""

#: Runs ``cablecal pipeline`` once per named run in one process; a run
#: named ``<kind>`` or ``<kind>-<suffix>`` uses ``<root>/<kind>.toml``.
THREADS_SCRIPT = """
import sys
from cablecal.cli import main
root, runs = sys.argv[1], sys.argv[2:]
for run in runs:
    main.main(["--config", f"{root}/{run.split('-')[0]}.toml", "--seed", "3",
               "--out-dir", f"{root}/{run}", "pipeline", "--epochs", "3",
               "--time-scale", "20"], prog_name="cablecal", standalone_mode=False)
"""

#: Outputs that carry wall-clock timings or the run's own paths.
TIMED = {"manifest.json", "latency.csv", "latency.json"}


def _artifact_hashes(run_dir: Path) -> dict:
    return {p.relative_to(run_dir).as_posix(): hash_file(p)
            for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name not in TIMED}


def test_blas_thread_count_contract(tmp_path):
    # Two processes, one under each BLAS thread count. Offset, linear and
    # poly2 artifacts, and every MLP artifact upstream of the fit, are the
    # same bytes under both. A seeded MLP run is byte-identical to a rerun
    # at the same thread count; across thread counts its model and report
    # may differ, since a threaded GEMM may split its inner sum differently
    # (the weight gradients of short batches, and the wide forward GEMMs
    # of LARGE_CONFIG).
    kinds = ("offset", "linear", "poly2", "mlp")
    src = str(Path(cablecal.__file__).resolve().parents[1])
    procs = []
    for threads in ("1", "2"):
        root = tmp_path / threads
        root.mkdir()
        for kind in kinds:
            (root / f"{kind}.toml").write_text(THREADS_TOML.format(kind=kind))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        procs.append(subprocess.Popen(
            [sys.executable, "-c", THREADS_SCRIPT, str(root), *kinds,
             "mlp-rerun"], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True))
    for proc in procs:
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
    one, two = tmp_path / "1", tmp_path / "2"
    for kind in ("offset", "linear", "poly2"):
        assert _artifact_hashes(one / kind) == _artifact_hashes(two / kind), kind
    mlp = _artifact_hashes(one / "mlp")
    assert {"model.ccm", "rmse_report.csv", "train.csv"} <= set(mlp)
    upstream = {k for k in mlp if k not in ("model.ccm", "rmse_report.csv",
                                            "rmse_report.json")}
    other = _artifact_hashes(two / "mlp")
    assert {k: mlp[k] for k in upstream} == {k: other[k] for k in upstream}
    for root in (one, two):
        assert _artifact_hashes(root / "mlp") == _artifact_hashes(root / "mlp-rerun")
