"""Reproducible run manifests tying artifacts to their producing run.

A manifest records the tool version, the command, the seed, a hash of the
effective configuration, hashes of every input artifact consumed and every
output artifact produced, and per-stage timings (wall clock, and simulated
session time where that differs). Rerunning a command with the same config,
seed and inputs must reproduce byte-identical outputs; the timing fields are
the only part of a manifest expected to vary between such reruns. A command
writes its manifest only when every stage has passed and its outputs are in
place, so a manifest always describes the files beside it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from fnmatch import fnmatch
from pathlib import Path

from . import __version__
from .core import (_checked, _one_of, _read_json, _replacing, _rule, json_digest,
                   write_json)

MANIFEST_NAME = "manifest.json"


def hash_file(path) -> str:
    h = hashlib.sha256()
    with open(Path(path), "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_tree(path) -> str:
    """Hash of a directory artifact: file names + contents, order-stable.
    A ``_staged`` temporary (``.<stem>.<tag>.tmp<suffix>``) that a killed
    writer left behind is no part of the artifact."""
    path = Path(path)
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file() and not fnmatch(p.name, ".*.tmp*"):
            h.update(p.relative_to(path).as_posix().encode())
            h.update(bytes.fromhex(hash_file(p)))
    return h.hexdigest()


def _hash_artifact(path: Path) -> str:
    return hash_tree(path) if path.is_dir() else hash_file(path)


@dataclass
class RunManifest:
    command: str
    seed: int
    config: dict
    tool_version: str = __version__
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    stages: list = field(default_factory=list)

    @property
    def config_hash(self) -> str:
        return json_digest(self.config)

    def add_input(self, path) -> None:
        path = Path(path)
        self.inputs[str(path)] = {"path": str(path), "sha256": _hash_artifact(path)}

    def add_output(self, path) -> None:
        path = Path(path)
        self.outputs[str(path)] = {"path": str(path), "sha256": _hash_artifact(path)}

    def add_stage(self, name: str, wall_s: float, sim_s=None) -> None:
        stage = {"name": name, "wall_s": float(wall_s)}
        if sim_s is not None:
            stage["sim_s"] = float(sim_s)
        self.stages.append(stage)

    def to_dict(self) -> dict:
        return {
            "tool": "cablecal",
            "tool_version": self.tool_version,
            "command": self.command,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "stages": self.stages,
        }

    def write(self, out_dir) -> Path:
        out = Path(out_dir) / MANIFEST_NAME
        with _replacing(out) as (fh,):
            write_json(self.to_dict(), fh)
        return out


_sha256 = _rule("sha256", "64 hex digits", lambda v: len(v) == 64
                and not set(v) - set("0123456789abcdef"), ValueError, number=False)

#: One ``inputs`` or ``outputs`` value: the artifact's path and hash.
_ARTIFACT = {"path": ("string", None, True), "sha256": ("string", _sha256, True)}

#: A manifest file: the entries ``RunManifest.to_dict`` writes.
_MANIFEST = {
    "tool": ("string", _one_of("cablecal"), True),
    "tool_version": ("string", None, True),
    "command": ("string", None, True),
    "seed": ("integer", None, True),
    "config": ("object", None, True),
    "config_hash": lambda got: ("string", _one_of(json_digest(got["config"])), True),
    "inputs": ("object", {"*": ("object", _ARTIFACT, True)}, True),
    "outputs": ("object", {"*": ("object", _ARTIFACT, True)}, True),
    "stages": ("array", {"*": ("object", {"name": ("string", None, True),
                                         "wall_s": ("number", None, True),
                                         "sim_s": ("number", None, False)},
                               True)}, True),
}


def load_manifest(path) -> RunManifest:
    """Read a manifest from a file path or an artifact directory; a missing
    or wrong-typed entry raises ValueError naming the file and the entry."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    doc = _checked(_read_json(path, ValueError), _MANIFEST, path, ValueError)
    return RunManifest(**{f.name: doc[f.name] for f in fields(RunManifest) if f.name in doc})
