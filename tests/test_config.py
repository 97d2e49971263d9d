"""Config loading: defaults, file overrides, strict validation."""

import json
import re

import pytest

from cablecal.config import (Config, ConfigError, default_config, load_config)
from cablecal.models import ON_ERROR


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_defaults_when_no_file():
    cfg = load_config(None)
    assert cfg.training.model == "mlp"
    assert cfg.training.mode == ON_ERROR
    assert cfg.training.hidden == (100, 100)
    assert cfg.training.epochs == 200
    assert cfg.eval.rates == (30.0, 100.0)
    assert cfg.eval.budget_hz == 1000.0
    assert cfg.trajectory.direction == "j2j3"


def test_default_config_round_trips_through_to_dict():
    d = default_config().to_dict()
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
    assert cfg.training.epochs == 200


def test_limits_section(tmp_path):
    p = write(tmp_path, "c.toml", """
[limits]
min = [-45.0, -45.0, 0.0]
max = [45.0, 45.0, 100.0]
""")
    cfg = load_config(p)
    assert list(cfg.limits.min.as_array()) == [-45.0, -45.0, 0.0]
    assert list(cfg.limits.max.as_array()) == [45.0, 45.0, 100.0]


def test_mlp_config_built_from_training_section(tmp_path):
    p = write(tmp_path, "c.toml", """
[training]
hidden = [600, 500, 400]
kernel_l2 = 1e-4
kernel_l1 = 1e-5
epochs = 50
""")
    mc = load_config(p).training.mlp_config()
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
    ("[eval]\ntime_scale = 0.5\n", "time_scale"),
    ("[eval]\nrates = [30.0]\n", "rates"),
])
def test_invalid_values_rejected(tmp_path, body, needle):
    p = write(tmp_path, "c.toml", body)
    with pytest.raises(ConfigError, match=needle):
        load_config(p)


def test_config_is_frozen():
    cfg = default_config()
    with pytest.raises(AttributeError):
        cfg.training.epochs = 7


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
