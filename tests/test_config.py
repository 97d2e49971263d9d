"""Config loading: defaults, file overrides, strict validation."""

import inspect
import json
import re
import tempfile
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablecal.cli import main
from cablecal.config import (Config, ConfigError, EvalConfig, TrainingConfig,
                             TrajectoryConfig, load_config)
from cablecal.data import EmptyDatasetError
from cablecal.models import MODES, ON_ERROR
from cablecal.sim import CableErrorModel, SimSession
from cablecal.trajectory import DIRECTIONS, TrajectoryError, generate


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_defaults_when_no_file():
    cfg = load_config(None)
    assert cfg.training.model == "mlp"
    assert cfg.training.mode == ON_ERROR
    assert cfg.training.mlp.hidden == (100, 100)
    assert cfg.training.mlp.epochs == 200
    assert cfg.eval.rates == (30.0, 100.0)
    assert cfg.eval.budget_hz == 1000.0
    assert cfg.trajectory.direction == "j2j3"


def test_default_config_round_trips_through_to_dict():
    d = Config().to_dict()
    assert set(d) == {"limits", "error_model", "trajectory", "training", "eval"}
    assert d["limits"]["max"] == [90.0, 90.0, 250.0]


def test_partial_toml_overrides(tmp_path):
    p = write(tmp_path, "c.toml", """
# comment line
[trajectory]
direction = "j1"          # trailing comment
sparsity = 0.25
sparsities = [0.5, 0.25]

[training]
model = "linear"
ridge = 0.5

[error_model]
noise_sd = 0.0
""")
    cfg = load_config(p)
    assert cfg.trajectory.direction == "j1"
    assert cfg.trajectory.sparsity == 0.25
    assert cfg.trajectory.sparsities == (0.5, 0.25)
    assert cfg.training.model == "linear"
    assert cfg.training.ridge == 0.5
    assert cfg.error_model.noise_sd == (0.0, 0.0, 0.0)  # scalar broadcast
    # untouched sections keep defaults
    assert cfg.eval.time_scale == 1.0
    assert cfg.training.mlp.epochs == 200


def test_limits_section(tmp_path):
    p = write(tmp_path, "c.toml", """
[limits]
min = [-45.0, -45.0, 0.0]
max = [45.0, 45.0, 100.0]
""")
    cfg = load_config(p)
    assert cfg.limits.min == (-45.0, -45.0, 0.0)
    assert cfg.limits.max == (45.0, 45.0, 100.0)


def test_mlp_config_built_from_training_section(tmp_path):
    p = write(tmp_path, "c.toml", """
[training]
hidden = [600, 500, 400]
kernel_l2 = 1e-4
kernel_l1 = 1e-5
epochs = 50
""")
    mc = load_config(p).training.mlp
    assert mc.hidden == (600, 500, 400)
    assert mc.kernel_l2 == 1e-4
    assert mc.kernel_l1 == 1e-5
    assert mc.epochs == 50
    assert mc.lr == 1e-3  # untouched default


def test_json_config_accepted(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"training": {"model": "offset"}}))
    assert load_config(p).training.model == "offset"


def test_unknown_section_rejected(tmp_path):
    p = write(tmp_path, "c.toml", "[banana]\nx = 1\n")
    with pytest.raises(ConfigError, match="banana"):
        load_config(p)


def test_unknown_key_rejected(tmp_path):
    p = write(tmp_path, "c.toml", "[training]\nmodle = \"mlp\"\n")
    with pytest.raises(ConfigError, match="modle"):
        load_config(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.toml")


@pytest.mark.parametrize("body, needle", [
    ("[trajectory]\ndirection = \"j9\"\n", "direction"),
    ("[trajectory]\nsparsity = 0.7\n", "sparsity"),
    ("[training]\nmodel = \"forest\"\n", "model"),
    ("[training]\nmode = \"sideways\"\n", "mode"),
    ("[training]\nridge = -1.0\n", "ridge"),
    ("[training]\ntrain_frac = 1.5\n", "train_frac"),
    ("[training]\nepochs = 0\n", "epochs"),
    ("[training]\nhidden = 100\n", "hidden"),
    ("[training]\nhidden = [true, 2]\n", "hidden"),
    ("[training]\nlr = -1.0\n", "lr"),
    ("[training]\nlr = 0.0\n", "lr"),
    ("[training]\nlr = nan\n", "lr"),
    ("[training]\neps = -1e-8\n", "eps"),
    ("[training]\nbeta1 = 1.5\n", "beta1"),
    ("[training]\nbeta2 = 1.0\n", "beta2"),
    ("[training]\nbeta1 = -0.1\n", "beta1"),
    ("[training]\nkernel_l2 = -0.1\n", "kernel_l2"),
    ("[training]\nkernel_l1 = -1e-5\n", "kernel_l1"),
    ("[training]\nbias_l2 = nan\n", "bias_l2"),
    ("[training]\nactivity_l2 = -1.0\n", "activity_l2"),
    ("[eval]\ntime_scale = 0.5\n", "time_scale"),
    ("[eval]\nrates = [30.0]\n", "rates"),
    # a boolean inside a list is not a number
    ("[eval]\nrates = [true, 100]\n", "eval.rates"),
    ("[trajectory]\nspeeds = [true, 3, 9]\n", "trajectory.speeds"),
    ("[trajectory]\nsparsities = [0.5, true]\n", "trajectory.sparsities"),
    ("[trajectory]\nsparsities = []\n", "trajectory.sparsities: sparsities must be a list"),
    ("[limits]\nmax = [90, 90, true]\n", "limits max"),
    ("[error_model]\nnoise_sd = [0.1, false, 0.1]\n", "noise_sd"),
])
def test_invalid_values_rejected(tmp_path, body, needle):
    p = write(tmp_path, "c.toml", body)
    with pytest.raises(ConfigError, match=needle):
        load_config(p)


@pytest.mark.parametrize("body, where", [
    ("[error_model]\noffset = [nan, 0, 0]\n", "error_model.offset"),
    ("[error_model]\nposition_gain = [[0, 0, 0], [0, -inf, 0], [0, 0, 0]]\n",
     "error_model.position_gain"),
    ("[error_model]\nnoise_sd = nan\n", "error_model.noise_sd"),
    ("[trajectory]\nstep = nan\n", "trajectory.step"),
    ("[eval]\nrates = [inf, 100]\n", "eval.rates"),
    ("[training]\nridge = nan\n", "training.ridge"),
    ("[eval]\nsync_tolerance_s = nan\n", "eval.sync_tolerance_s"),
    ("[eval]\ntime_scale = inf\n", "eval.time_scale"),
    ("[eval]\nbudget_hz = nan\n", "eval.budget_hz"),
    ("[limits]\nmax = [90, 90, inf]\n", "limits.max"),
], ids=["offset", "position_gain", "noise_sd", "step", "rates", "ridge",
        "sync_tolerance_s", "time_scale", "budget_hz", "limits_inf"])
def test_non_finite_value_rejected_naming_file_and_key(tmp_path, body, where):
    p = write(tmp_path, "c.toml", body)
    with pytest.raises(ConfigError, match=re.escape(f"{p}: entry '{where}': must be finite")):
        load_config(p)


def test_non_finite_json_value_rejected_naming_file_and_key(tmp_path):
    p = write(tmp_path, "c.json", '{"eval": {"budget_hz": NaN}}')
    with pytest.raises(ConfigError, match=re.escape(f"{p}: entry 'eval.budget_hz': must be finite")):
        load_config(p)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: SimSession(CableErrorModel(), rates=(NAN, 100.0)),
    lambda: SimSession(CableErrorModel(), rates=(30.0, float("inf"))),
    lambda: SimSession(CableErrorModel(), time_scale=NAN),
    lambda: CableErrorModel(offset=(NAN, 0, 0)),
    lambda: CableErrorModel(position_gain=((0, 0, 0), (0, NAN, 0), (0, 0, 0))),
    lambda: CableErrorModel(noise_sd=(NAN, 0, 0)),
    lambda: CableErrorModel(drift_rate_loaded=float("inf")),
    lambda: CableErrorModel(aux_noise_sd=NAN),
    lambda: CableErrorModel(load_ref_g=0.0),
    lambda: CableErrorModel(load_ref_g=NAN),
    lambda: EvalConfig(rates=(NAN, 100.0)),
    lambda: EvalConfig(budget_hz=NAN),
    lambda: EvalConfig(sync_tolerance_s=NAN),
    lambda: EvalConfig(time_scale=NAN),
    lambda: TrainingConfig(ridge=NAN),
    lambda: TrajectoryConfig(step=NAN),
    lambda: TrajectoryConfig(speeds=(NAN, 1.0, 1.0)),
], ids=["sim_rates", "sim_rates_inf", "sim_time_scale", "offset",
        "position_gain", "noise_sd", "drift_inf", "aux_noise_sd",
        "load_ref_g_zero", "load_ref_g_nan", "eval_rates", "budget_hz",
        "sync_tolerance_s", "eval_time_scale", "ridge", "step", "speeds"])
def test_objects_built_in_code_reject_nan_and_degenerate_values(build):
    with pytest.raises(ValueError):
        build()


INF = float("inf")


@pytest.mark.parametrize("build, key", [
    (lambda: EvalConfig(rates=(INF, 100.0)), "eval.rates"),
    (lambda: EvalConfig(time_scale=INF), "eval.time_scale"),
    (lambda: EvalConfig(budget_hz=INF), "eval.budget_hz"),
    (lambda: TrainingConfig(ridge=INF), "training.ridge"),
    (lambda: TrajectoryConfig(step=INF), "trajectory.step"),
], ids=["rates", "time_scale", "budget_hz", "ridge", "step"])
def test_sections_built_in_code_refuse_infinities_naming_the_key(build, key):
    with pytest.raises(ConfigError, match=re.escape(f"{key}: ") + ".*finite"):
        build()


def _accepts(build) -> bool:
    try:
        build()
    except (ConfigError, TrajectoryError):
        return False
    return True


# sparsities below 1/4 are left out: they are valid, but slow to generate
@settings(max_examples=40, deadline=None)
@given(st.floats(0.25, 0.75) | st.sampled_from(
    [0.5, 0.5 + 1e-13, 0.5 + 1e-12, float(np.nextafter(0.5, 1)), 0.0, -0.25,
     NAN, INF, -INF, True]))
def test_config_and_generate_accept_the_same_sparsities(sparsity):
    assert (_accepts(lambda: TrajectoryConfig(sparsity=sparsity))
            == _accepts(lambda: generate("j1", sparsity)))


@pytest.mark.parametrize("load", ['"heavy"', "-5", "true", "-0.5"])
def test_unknown_eval_load_rejected_naming_file(tmp_path, load):
    p = write(tmp_path, "c.toml", f"[eval]\nload = {load}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{p}: ") + ".*load"):
        load_config(p)


@pytest.mark.parametrize("load", ['"idle"', '"unloaded"', "0", "250", "12.5"])
def test_eval_load_keeps_its_value(tmp_path, load):
    p = write(tmp_path, "c.toml", f"[eval]\nload = {load}\n")
    # a named load as it is, grams as a float however they are spelled
    cfg, want = load_config(p), tomllib.loads(f"x = {load}")["x"]
    assert cfg.eval.load == want
    assert type(cfg.eval.load) is (str if isinstance(want, str) else float)
    assert cfg.to_dict()["eval"]["load"] == cfg.eval.load


def test_generate_uses_the_configured_step():
    fine, coarse = (Config(trajectory=TrajectoryConfig(step=s)).generate("j1", 0.5)
                    for s in (0.005, 0.02))
    assert len(coarse.waypoints) < len(fine.waypoints)


def test_split_of_no_bags_is_an_empty_dataset_error():
    with pytest.raises(EmptyDatasetError, match="nothing to concatenate"):
        Config().split([])


def test_config_is_frozen():
    cfg = Config()
    with pytest.raises(AttributeError):
        cfg.training.mlp.epochs = 7


@pytest.mark.parametrize("text", [
    "x = ",                      # missing value
    "x = 1\nx = 2",              # duplicate key
    '[("bad")]\n',               # malformed header
    "[[points]]\nx = 1\n",       # valid TOML, but not a config section
    's = "unterminated',         # dangling string
    "just a bare line",          # not key = value
    "training = 3\n",            # a section that is not a table
    "[training]\nmodle = 1\n",   # a key the section does not have
])
def test_malformed_file_rejected_naming_it(tmp_path, text):
    p = write(tmp_path, "bad.toml", text)
    with pytest.raises(ConfigError, match=re.escape(str(p))):
        load_config(p)


def test_non_utf8_file_rejected_naming_it(tmp_path):
    p = tmp_path / "bad.toml"
    p.write_bytes(b"\xff[training]\n")
    with pytest.raises(ConfigError, match=re.escape(str(p))):
        load_config(p)


def test_parse_error_carries_line_number(tmp_path):
    p = write(tmp_path, "c.toml", "a = 1\nb = 2\nc = ?\n")
    with pytest.raises(ConfigError, match="line 3"):
        load_config(p)


_floats = st.floats(-1e3, 1e3, allow_nan=False)
_positive = st.floats(1e-3, 1e3, allow_nan=False)
_triple = st.lists(_floats, min_size=3, max_size=3)


@st.composite
def _limits(draw):
    lo = draw(_triple)
    span = draw(st.lists(_positive, min_size=3, max_size=3))
    return {"min": lo, "max": [a + b for a, b in zip(lo, span)]}


_SECTION_OVERRIDES = {
    "limits": _limits(),
    "error_model": st.fixed_dictionaries({}, optional={
        "offset": _triple,
        "position_gain": st.lists(_triple, min_size=3, max_size=3),
        "noise_sd": st.lists(_positive, min_size=3, max_size=3),
        "aux_noise_sd": _positive,
        "load_ref_g": _positive,
    }),
    "trajectory": st.fixed_dictionaries({}, optional={
        "direction": st.sampled_from(DIRECTIONS),
        "sparsity": st.floats(0.01, 0.5),
        "sparsities": st.lists(st.floats(0.01, 0.5), min_size=1, max_size=4),
        "step": _positive,
        "speeds": st.lists(_positive, min_size=3, max_size=3),
    }),
    "training": st.fixed_dictionaries({}, optional={
        "model": st.sampled_from(("offset", "linear", "poly2", "mlp")),
        "mode": st.sampled_from(MODES),
        "ridge": st.floats(0.0, 1e3),
        "train_frac": st.floats(0.05, 0.95),
        "seed": st.integers(0, 2 ** 31),
        "hidden": st.lists(st.integers(1, 600), min_size=1, max_size=3),
        "epochs": st.integers(1, 500),
        "lr": _positive,
        "batch_size": st.integers(1, 4096),
        "kernel_l1": st.floats(0.0, 1.0),
    }),
    "eval": st.fixed_dictionaries({}, optional={
        "rates": st.lists(_positive, min_size=2, max_size=2),
        "sync_tolerance_s": st.floats(0.0, 1.0),
        "time_scale": st.floats(1.0, 100.0),
        "latency_samples": st.integers(1, 10 ** 5),
        "load": st.sampled_from(("loaded", "unloaded", "idle")),
    }),
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=_SECTION_OVERRIDES))
def test_to_dict_reloads_to_an_equal_config(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        src, back = Path(tmp) / "src.json", Path(tmp) / "back.json"
        src.write_text(json.dumps(overrides))
        cfg = load_config(src)
        back.write_text(json.dumps(cfg.to_dict()))
        assert load_config(back) == cfg


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    block = re.search(r"```toml\n(.*?)```", section, re.S).group(1)
    cfg = load_config(write(tmp_path, "readme.toml", block))
    assert cfg.error_model.noise_sd == (0.06, 0.07, 0.10)


# --- every key: who reads it, and what it refuses -----------------------------------

_SIM = ("record", "sweep", "pipeline")      # record a session
_FIT = ("train", "sweep", "pipeline")       # fit the configured model

#: Every flat key of every config section, with the commands that read it
#: (on the branch that uses it: a drift rate under its load, an MLP key in
#: an MLP fit). ``homing_offset_sd`` has none: only ``SimSession.home``
#: reads it, in the homing study. A new key must be added here.
CONFIG_READERS = {
    **{f"limits.{k}": ("generate", *_SIM) for k in ("min", "max")},
    **{f"error_model.{k}": _SIM for k in (
        "offset", "position_gain", "stiffness_gain", "hysteresis_width",
        "drift_rate_unloaded", "drift_rate_loaded", "drift_rate_idle", "noise_sd",
        "aux_noise_sd", "load_ref_g")},
    "error_model.homing_offset_sd": (),
    "trajectory.direction": ("generate", "record", "pipeline"),
    "trajectory.sparsity": ("generate", "record", "pipeline"),
    "trajectory.sparsities": ("sweep",),
    "trajectory.step": ("generate", *_SIM),
    "trajectory.speeds": ("generate", *_SIM),
    "training.model": ("train", "pipeline"),
    "training.mode": _FIT,
    "training.ridge": _FIT,
    "training.train_frac": ("process", "sweep", "pipeline"),
    "training.seed": ("record", "train", "sweep", "pipeline"),
    **{f"training.{k}": _FIT for k in (
        "hidden", "epochs", "lr", "batch_size", "beta1", "beta2", "eps",
        "kernel_l2", "kernel_l1", "bias_l2", "activity_l2")},
    "eval.rates": _SIM,
    "eval.sync_tolerance_s": ("process", "sweep", "pipeline"),
    "eval.time_scale": _SIM,
    "eval.budget_hz": ("bench", "pipeline"),
    "eval.latency_samples": ("bench", "pipeline"),
    "eval.repeats": ("bench", "pipeline"),
    "eval.load": _SIM,
}

_DEFAULTS = {f"{section}.{key}": value for section, table in Config().to_dict().items()
             for key, value in table.items()}


def test_every_config_key_is_in_the_readers_table():
    assert sorted(set(_DEFAULTS) ^ set(CONFIG_READERS)) == []
    assert {c for cmds in CONFIG_READERS.values() for c in cmds} <= set(main.commands)
    assert [k for k, cmds in CONFIG_READERS.items() if not cmds] == [
        "error_model.homing_offset_sd"]


def _option_keys() -> dict:
    """Each option that restates a config key, by command: the ``key`` its
    callback sets."""
    return {(name, p.name): inspect.getclosurevars(p.callback).nonlocals["key"]
            for name, cmd in main.commands.items() for p in cmd.params
            if p.callback and "key" in inspect.getclosurevars(p.callback).nonlocals}


def test_every_option_key_is_a_config_key_as_a_file_spells_it():
    keys = _option_keys()
    assert len(set(keys.values())) == 13
    assert {k: v for k, v in keys.items() if v not in CONFIG_READERS} == {}


def test_with_key_sets_one_key_and_refuses_as_its_section_does():
    cfg = Config().with_key("training.epochs", 2).with_key("training.seed", 5)
    assert (cfg.training.mlp.epochs, cfg.training.seed) == (2, 5)
    assert cfg.with_key("eval.load", "250").to_dict()["eval"]["load"] == 250.0
    for key, value, rule in [("training.epochs", 0, "epochs must be an integer >= 1"),
                             ("training.seed", -1, "seed must be an integer >= 0"),
                             ("training.seed", 1.0, "seed must be an integer >= 0"),
                             ("eval.load", "heavy", "load must be"),
                             ("trajectory.sparsity", 0.9, "sparsity must be")]:
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{key}: {rule}')}"):
            cfg.with_key(key, value)


@pytest.mark.parametrize("build", [
    lambda tmp: load_config(write(tmp, "c.toml", "[training]\nseed = -3\n")),
    lambda tmp: TrainingConfig(seed=-1),
    lambda tmp: TrainingConfig(seed=True),
    lambda tmp: SimSession(CableErrorModel(), seed=-1)],
    ids=["file", "section", "boolean", "session"])
def test_a_seed_that_is_not_an_integer_from_0_is_refused(tmp_path, build):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        build(tmp_path)


def _numeric(value) -> bool:
    if isinstance(value, list):
        return all(map(_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: TOML values no numeric key takes: not finite, a boolean, and an integer
#: too large for a float. (An empty ``training.hidden`` loads, by design.)
_NOT_NUMBERS = ("inf", "nan", "true", str(10 ** 400))


def _toml(value) -> str:
    return f"[{', '.join(map(_toml, value))}]" if isinstance(value, list) else str(value)


def _spoiled(value):
    """``value`` replaced by each of ``_NOT_NUMBERS``, and so is each number
    inside it, at any depth, one at a time."""
    yield from _NOT_NUMBERS
    if isinstance(value, list):
        for i, item in enumerate(value):
            for bad in _spoiled(item):
                yield [*value[:i], bad, *value[i + 1:]]


@pytest.mark.parametrize("key", [k for k, v in _DEFAULTS.items()
                                 if _numeric(v) or k == "eval.load"])
def test_a_non_number_in_a_numeric_key_is_refused_naming_it(tmp_path, key):
    section, name = key.split(".")
    p = tmp_path / "c.toml"
    for bad in _spoiled(_DEFAULTS[key]):
        p.write_text(f"[{section}]\n{name} = {_toml(bad)}\n")
        with pytest.raises(ConfigError) as info:
            load_config(p)
        # the key's own entry, or the section's check with the key in its reason
        shape = re.match(rf"{re.escape(str(p))}: entry '{section}(\.{name})?': (.*)",
                         str(info.value), re.S)
        assert shape and (shape[1] or re.search(rf"\b{name}\b", shape[2])), str(info.value)
