"""One table-driven check of the six JSON readers, and one of the header
line of the four CSV artifacts.

Each reader starts from an artifact the code wrote, which must load back to
an equal object. Then every key of the written document is deleted (where
the reader requires it) and swapped to another JSON type, one at a time:
the reader must refuse each edit in its own error class, with a message
that starts ``<file>: entry '<key>': ``. Free-form objects (bag and dataset
metadata, the manifest's config) are checked as a whole, so the walk does
not enter them.

A CSV artifact's header line must name its layout's columns in order, so
a file whose columns were swapped, renamed or dropped is refused in the
reader's own error class, naming the file and the first column that
differs, even where every row still has the right width. A CSV cut after its
header line is refused as having no data rows, and the savers refuse to
write one.
"""

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from cablecal import data as dt
from cablecal import trajectory as tj
from cablecal.config import Config, ConfigError, load_config
from cablecal.manifest import RunManifest, load_manifest
from cablecal.models import (ModelError, _checksum, deserialize, fit_linear,
                             fit_mlp, fit_offset, fit_poly2, serialize)
from cablecal.nn import MlpConfig
from cablecal.sim import StateStream, TruthStream, default_error_model


@dataclass
class Reader:
    write: object           # artifact directory -> the object written there
    file: str               # its JSON document, relative to that directory
    load: object            # artifact directory -> the loaded object
    error: type             # the reader's error class
    optional: tuple = ()    # key paths the reader may do without ("*": any)
    free: tuple = ()        # free-form objects, not walked into
    checksum: bool = False  # model files: an edit recomputes the checksum


def _recorded(tmp):
    bag = dt.record(tj.generate("j2j3", 0.5, step=0.05), default_error_model(),
                    duration=2.0, seed=1)
    dt.save_bag(bag, tmp / "bag")
    return bag


def _dataset(tmp):
    train, _ = dt.split_and_normalize(dt.synchronize(_recorded(tmp)))
    dt.save_dataset(train, tmp / "d.csv")
    return train


def _trajectory(tmp):
    traj = tj.generate("j1j3", 0.5)
    tj.save(traj, tmp / "t.csv")
    return traj


FITS = {"offset": fit_offset, "linear": fit_linear, "poly2": fit_poly2,
        "mlp": lambda ds: fit_mlp(ds, config=MlpConfig(hidden=(4, 3), epochs=1,
                                                       batch_size=16), seed=0)}


def _model(kind):
    def write(tmp):
        model = FITS[kind](_dataset(tmp))
        serialize(model, tmp / "m.ccm")
        return model
    return write


def _manifest(tmp):
    (tmp / "in.txt").write_text("input")
    m = RunManifest(command="train", seed=5, config=Config().to_dict())
    m.add_input(tmp / "in.txt")
    m.add_output(tmp / "in.txt")
    m.add_stage("train", 1.25, sim_s=60.0)
    m.write(tmp)
    return m


def _config(tmp):
    (tmp / "c.json").write_text(json.dumps(Config().to_dict()))
    return Config()


READERS = {
    "bag": Reader(_recorded, "bag/metadata.json",
                  lambda tmp: dt.load_bag(tmp / "bag"), dt.DataError,
                  optional=[("metadata",)], free=("metadata",)),
    "dataset": Reader(_dataset, "d.json", lambda tmp: dt.load_dataset(tmp / "d.csv"),
                      dt.DataError, optional=[("norm",), ("meta",)], free=("meta",)),
    "trajectory": Reader(_trajectory, "t.json", lambda tmp: tj.load(tmp / "t.csv"),
                         tj.TrajectoryError),
    "manifest": Reader(_manifest, "manifest.json", load_manifest, ValueError,
                       optional=[("inputs", "*"), ("outputs", "*"),
                                 ("stages", "*", "sim_s")], free=("config",)),
    "config": Reader(_config, "c.json", lambda tmp: load_config(tmp / "c.json"),
                     ConfigError, optional=[("*",), ("*", "*")]),
    **{kind: Reader(_model(kind), "m.ccm", lambda tmp: deserialize(tmp / "m.ccm"),
                    ModelError, optional=[("payload", "train_curve"),
                                          ("payload", "seed")],
                    checksum=True)
       for kind in FITS},
}


def _keys(doc, reader, where=()):
    """Every key path of ``doc`` that the reader's table names: the keys of
    objects and the items of arrays of objects, outside free-form objects."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = (*where, str(key))
        yield path
        if ".".join(path) in reader.free:
            continue
        if isinstance(value, dict) or (isinstance(value, list) and value
                                       and isinstance(value[0], dict)):
            yield from _keys(value, reader, path)


def _swaps(value):
    """Values of another JSON type than ``value``'s."""
    yield [1] if isinstance(value, str) else "x"
    if type(value) is int:
        yield value + 0.5


def _at(doc, keys):
    for key in keys:
        doc = doc[int(key) if isinstance(doc, list) else key]
    return doc


def _edited(doc, keys, value, delete):
    """A copy of ``doc`` with the entry at ``keys`` deleted or set to ``value``."""
    doc = json.loads(json.dumps(doc))
    parent, last = _at(doc, keys[:-1]), keys[-1]
    if delete:
        del parent[last]
    else:
        parent[int(last) if isinstance(parent, list) else last] = value
    return doc


def _optional(keys, reader) -> bool:
    return any(len(keys) == len(o) and all(p in (k, "*") for k, p in zip(keys, o))
               for o in reader.optional)


def _equal(a, b) -> bool:
    """Loaded artifacts compare field by field; arrays by dtype and bytes."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if hasattr(a, "__dict__") and not isinstance(a, type):
        return type(a) is type(b) and all(
            _equal(v, getattr(b, k)) for k, v in vars(a).items()
            if not k.startswith("_"))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_equal, a, b))
    return a == b


@pytest.mark.parametrize("name", list(READERS))
def test_every_entry_is_checked_and_named(tmp_path, name):
    reader = READERS[name]
    written = reader.write(tmp_path)
    path = tmp_path / reader.file
    doc = json.loads(path.read_text())
    assert _equal(reader.load(tmp_path), written)

    def load_edited(edited, keys):
        if reader.checksum and keys != ("checksum",):
            edited["checksum"] = _checksum(edited)
        path.write_text(json.dumps(edited))
        return reader.load(tmp_path)

    refused = 0
    for keys in _keys(doc, reader):
        edits = [(keys, value, False) for value in _swaps(_at(doc, keys))]
        if not keys[-1].isdigit():
            edits.append((keys, None, True))
        if isinstance(_at(doc, keys), dict) and ".".join(keys) not in reader.free:
            edits.append(((*keys, "zz"), 1, False))     # an unknown key
        for keys, value, delete in edits:
            edited = _edited(doc, keys, value, delete)
            if delete and _optional(keys, reader):
                load_edited(edited, keys)
                continue
            with pytest.raises(reader.error) as info:
                load_edited(edited, keys)
            assert type(info.value) is reader.error
            assert str(info.value).startswith(f"{path}: entry '{'.'.join(keys)}': "), (
                value, delete, str(info.value))
            refused += 1
    with pytest.raises(reader.error, match="entry 'zz': unknown key"):
        load_edited(_edited(doc, ("zz",), 1, False), ("zz",))
    assert refused > len(doc)


#: Each CSV artifact: the reader whose ``write`` makes it, and its file.
CSV_FILES = {"state": ("bag", "bag/state.csv"), "truth": ("bag", "bag/truth.csv"),
             "dataset": ("dataset", "d.csv"), "trajectory": ("trajectory", "t.csv")}


def _swap_columns(lines):
    """Columns 2 and 3 (0-based) swapped, in the header and every row."""
    rows = [line.split(",") for line in lines]
    for row in rows:
        row[2], row[3] = row[3], row[2]
    return [",".join(row) for row in rows]


def _rename_column(lines):
    """Header column 2 (0-based) renamed."""
    names = lines[0].split(",")
    names[2] = "renamed"
    return [",".join(names)] + lines[1:]


#: An edit of a CSV's lines (no newlines) -> the index of the header column
#: the reader must name.
CSV_EDITS = {
    "swapped": (_swap_columns, 2),
    "renamed": (_rename_column, 2),
    "short": (lambda lines: [lines[0].rsplit(",", 1)[0]] + lines[1:], -1),
}


@pytest.mark.parametrize("edit", list(CSV_EDITS))
@pytest.mark.parametrize("artifact", list(CSV_FILES))
def test_csv_header_must_match_its_layout(tmp_path, artifact, edit):
    reader = READERS[CSV_FILES[artifact][0]]
    reader.write(tmp_path)
    path = tmp_path / CSV_FILES[artifact][1]
    lines = path.read_text().splitlines()
    change, column = CSV_EDITS[edit]
    path.write_text("\n".join(change(lines)) + "\n")
    with pytest.raises(reader.error) as info:
        reader.load(tmp_path)
    assert type(info.value) is reader.error
    assert str(info.value).startswith(f"{path}: header column ")
    assert repr(lines[0].split(",")[column]) in str(info.value)


@pytest.mark.parametrize("artifact", list(CSV_FILES))
def test_header_only_csv_is_refused_without_a_warning(tmp_path, artifact):
    reader = READERS[CSV_FILES[artifact][0]]
    reader.write(tmp_path)
    path = tmp_path / CSV_FILES[artifact][1]
    path.write_text(path.read_text().split("\n", 1)[0] + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy "no data" warning
        with pytest.raises(reader.error) as info:
            reader.load(tmp_path)
    assert str(info.value) == f"{path}: no data rows"


#: The artifacts that can hold no rows (a ``Dataset`` cannot): each one's
#: saver, given an empty copy of what ``reader.write`` wrote.
EMPTY_SAVES = {
    "bag": lambda tmp, bag: dt.save_bag(dt.RecordedBag(
        StateStream(bag.state.t[:0], bag.state.features[:0]),
        TruthStream(bag.truth.t[:0], bag.truth.q[:0]), bag.schema), tmp / "bag"),
    "trajectory": lambda tmp, traj: tj.save(
        replace(traj, waypoints=traj.waypoints[:0]), tmp / "t.csv"),
}


@pytest.mark.parametrize("artifact", list(EMPTY_SAVES))
def test_saving_no_rows_raises_and_keeps_the_previous_files(tmp_path, artifact):
    written = READERS[artifact].write(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    with pytest.raises(ValueError, match="no data rows to write"):
        EMPTY_SAVES[artifact](tmp_path, written)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
