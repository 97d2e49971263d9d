"""Tests of the benchmark's span recorder, wrapper installer and probes.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Probe, SpanRecorder, _covered, install  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.run = "r"
    outer = rec.begin("outer")
    clock.now = 1.0
    child = rec.begin("child")
    clock.now = 3.0
    rec.end(child)
    clock.now = 4.0
    child = rec.begin("child")
    clock.now = 4.5
    rec.end(child)
    clock.now = 10.0
    rec.end(outer)
    assert rec.self_times("r") == {"outer": 7.5, "child": 2.5}
    assert rec.inclusive_times("r") == {"outer": 10.0, "child": 2.5}
    assert [s["parent"] for s in rec.to_records()] == [None, 0, 0]


def test_inclusive_counts_nested_same_name_once():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    a = rec.begin("f")
    clock.now = 1.0
    b = rec.begin("f")
    clock.now = 2.0
    rec.end(b)
    clock.now = 5.0
    rec.end(a)
    assert rec.inclusive_times(None) == {"f": 5.0}
    assert rec.self_times(None) == {"f": 5.0}


def test_covered_merges_overlaps_and_clips():
    assert _covered(0, 10, [(1, 3), (2, 4), (6, 7), (9, 12)]) == 5.0
    assert _covered(0, 10, []) == 0.0


def test_out_of_order_close_is_an_error():
    rec = SpanRecorder()
    a = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.end(a)


def test_counts_and_notes_are_kept_per_run():
    rec = SpanRecorder()
    rec.run = "1"
    rec.count("rows", 3)
    rec.count("rows", 2)
    rec.note("paths", "x")
    rec.run = "2"
    rec.count("rows")
    assert rec.counts["1"]["rows"] == 5.0
    assert rec.counts["2"]["rows"] == 1.0
    assert rec.notes["1"]["paths"] == ["x"]


def _fake_modules():
    def work(x):
        return 2 * x + 1

    lib = types.ModuleType("lib")
    lib.work = work
    user = types.ModuleType("user")
    user.work = lib.work  # a by-name import
    return lib, user


class Thing:
    def method(self, x):
        return x + 1


def test_install_wraps_every_lookup_and_restores():
    lib, user = _fake_modules()
    original_work, original_method = lib.work, Thing.__dict__["method"]
    rec = SpanRecorder()
    seen = []
    probes = [Probe(lib, "work", "lib.work",
                    lambda r, a, k, res: seen.append(res)),
              Probe(Thing, "method", "thing.method")]
    inst = install(rec, probes, [lib, user])
    assert lib.work is not original_work and user.work is lib.work
    assert user.work(1) == 3 and Thing().method(1) == 2
    assert [s.name for s in rec.spans] == ["lib.work", "thing.method"]
    assert seen == [3]
    inst.restore()
    assert inst.restored()
    assert lib.work is original_work and user.work is original_work
    assert Thing.__dict__["method"] is original_method


def test_span_closes_when_the_wrapped_call_raises():
    mod = types.ModuleType("m")

    def boom():
        raise ValueError("x")

    mod.boom = boom
    rec = SpanRecorder()
    with install(rec, [Probe(mod, "boom", "m.boom")], [mod]):
        with pytest.raises(ValueError):
            mod.boom()
    assert rec.spans[0].end >= rec.spans[0].start
    assert mod.boom is boom


def test_cablecal_probes_restore_and_leave_results_unchanged(tmp_path,
                                                              monkeypatch):
    """A traced and an untraced iteration of one seed write byte-identical
    artifacts, and every wrapped entry point is restored afterwards."""
    pytest.importorskip("cablecal")
    import cablecal.cli  # noqa: F401  (its by-name imports get scanned)
    import probes as probes_mod
    import workloads

    before = {id(m): dict(vars(m)) for m in probes_mod.cablecal_modules()}
    monkeypatch.setattr(workloads, "SESSION_S", 60.0)  # keep the test quick
    workload = workloads.Session(tmp_path)
    workload.prepare()
    inp = workload.inputs(5)
    plain = workload.check(inp, workload.body(inp, workloads.Steps()))
    rec = SpanRecorder()
    rec.run = "t"
    with install(rec, probes_mod.probes(),
                 probes_mod.cablecal_modules()) as inst:
        inp = workload.inputs(5)
        traced = workload.check(inp, workload.body(inp, workloads.Steps(), rec))
    assert inst.restored()
    assert plain.digest == traced.digest
    assert all(plain.checks.values()) and all(traced.checks.values())
    for m in probes_mod.cablecal_modules():
        if id(m) in before:
            assert all(vars(m).get(k) is v for k, v in before[id(m)].items())
    layer = probes_mod.layer_metrics(rec, "t")
    assert layer["sim.state_rows"] == 1800  # 60 s at 30 Hz
    assert layer["data.pair_ratio"] == 1.0
    assert layer["data.bag_bytes"] > 0
    assert layer["data.save_bag_s"] > 0 and layer["sim.run_s"] > 0
    assert layer["nn.batches"] == 0


def test_gemm_flop_counts_forward_and_backward():
    pytest.importorskip("cablecal")
    import probes as probes_mod
    # forward 2*(4*3 + 3*2) + weight grads 2*(4*3 + 3*2) + delta 2*(3*2)
    assert probes_mod._gemm_flop((4, 3, 2), 1) == 2 * (18 + 18 + 6)
    assert probes_mod._gemm_flop((4, 3, 2), 10) == 10 * 2 * 42
    assert np.isfinite(probes_mod._gemm_flop((16, 100, 100, 3), 1024))
