import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cablecal import core
from cablecal.core import DEFAULT_LIMITS, JointLimits
from cablecal import trajectory as tj

SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)


# --- independent homogeneous-matrix oracle -------------------------------
#
# The direction maps below are rebuilt from scratch as explicit 4x4
# matrix products (translate @ rotate, then an elementwise row scale),
# with no code shared with the implementation under test.

def _T(tx, ty, tz):
    m = np.eye(4)
    m[:3, 3] = (tx, ty, tz)
    return m


def _Rz(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])


def _Ry(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0, s, 0], [0, 1, 0, 0], [-s, 0, c, 0], [0, 0, 0, 1.0]])


def _Rx(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]])


def _scale_rows(m, sx, sy, sz):
    out = m.copy()
    out[0] *= sx
    out[1] *= sy
    out[2] *= sz
    return out


def oracle_matrix(direction):
    """Hand-built homogeneous matrix for each direction class."""
    if direction == "j1":
        return _T(0.5, 0.5, 0.5)
    if direction == "j2":
        return _T(0.5, 0.5, 0.5) @ _Rz(90)
    if direction == "j3":
        return _T(0.5, 0.5, 0.5) @ _Ry(90)
    if direction == "j1j2":
        m = _T(0.5 * SQRT2, 0.5 * SQRT2, 0.5) @ _Rz(45)
        return _scale_rows(m, 1 / SQRT2, 1 / SQRT2, 1)
    if direction == "j2j3":
        m = _T(0.5, 0.5 * SQRT2, 0.5 * SQRT2) @ _Rx(45) @ _Rz(90)
        return _scale_rows(m, 1, 1 / SQRT2, 1 / SQRT2)
    if direction == "j1j3":
        m = _T(0.5 * SQRT2, 0.5, 0.5 * SQRT2) @ _Ry(-45)
        return _scale_rows(m, 1 / SQRT2, 1, 1 / SQRT2)
    if direction == "j1j2j3":
        m = _T(0.5 * SQRT3, 0.5 * SQRT3, 0.5 * SQRT3) @ _Ry(45) @ _Rx(45)
        return _scale_rows(m, 1 / SQRT3, 1 / SQRT3, 1 / SQRT3)
    raise AssertionError(direction)


def homogeneous(tr):
    """A DirectionTransform's map as one 4x4 homogeneous matrix."""
    m = np.eye(4)
    m[:3, :3] = tr.shrink[:, None] * tr.rotation
    m[:3, 3] = tr.shrink * tr.translation
    return m


def oracle_apply(direction, pts):
    m = oracle_matrix(direction)
    homo = np.hstack([pts, np.ones((len(pts), 1))])
    return (homo @ m.T)[:, :3]


@pytest.mark.parametrize("direction", tj.DIRECTIONS)
def test_transform_matches_homogeneous_oracle(direction):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.5, 0.5, size=(1000, 3))
    got = tj.direction_transform(direction).apply(pts)
    want = oracle_apply(direction, pts)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(homogeneous(tj.direction_transform(direction)) - oracle_matrix(direction))) < 1e-12


def test_transform_table_is_read_only():
    tr = tj.direction_transform("j1j2")
    for a in (tr.rotation, tr.translation, tr.shrink):
        with pytest.raises(ValueError):
            a[0] = 7.0
    assert tj.direction_transform("j1j2").translation[0] == 0.5 * SQRT2


@pytest.mark.parametrize("direction", tj.DIRECTIONS)
def test_transform_lands_in_unit_cube(direction):
    unit = tj.direction_transform(direction).apply(tj._raster(0.5, tj.DEFAULT_STEP))
    assert unit.min() >= -1e-12
    assert unit.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("direction", tj.DIRECTIONS)
def test_transform_is_invertible(direction):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, size=(200, 3))
    tr = tj.direction_transform(direction)
    m = homogeneous(tr)  # apply(p) == m[:3, :3] @ p + m[:3, 3]
    back = np.linalg.solve(m[:3, :3], (tr.apply(pts) - m[:3, 3]).T).T
    assert np.max(np.abs(back - pts)) < 1e-12


def test_sweep_segments_align_with_direction_diagonal():
    # during fast sweeps, the moving joints advance together for the
    # single- and double-joint classes
    for direction, expect in [
        ("j1", (1, 0, 0)),
        ("j2", (0, 1, 0)),
        ("j3", (0, 0, 1)),
        ("j1j2", (1 / 2, 1 / 2, 0)),
        ("j2j3", (0, 1 / 2, 1 / 2)),
        ("j1j3", (1 / 2, 0, 1 / 2)),
    ]:
        sweep = tj.direction_transform(direction).apply(np.array([[-0.5, -0.4, -0.3], [0.5, -0.4, -0.3]]))
        delta = sweep[1] - sweep[0]
        assert np.max(np.abs(np.abs(delta) - np.abs(expect))) < 1e-12, direction


# --- base raster geometry -------------------------------------------------

def test_base_raster_levels_sparsity_half():
    base = tj._raster(0.5, 0.5)
    for axis in (1, 2):
        levels = np.unique(base[:, axis])
        assert np.allclose(levels, [-0.5, 0.0, 0.5])


def test_base_raster_extremes_exact():
    for sparsity in (0.5, 1 / 3, 0.25):
        base = tj._raster(sparsity, tj.DEFAULT_STEP)
        assert base.min(axis=0) == pytest.approx([-0.5] * 3, abs=0)
        assert base.max(axis=0) == pytest.approx([0.5] * 3, abs=0)


def test_base_raster_segments_axis_aligned_and_continuous():
    base = tj._raster(0.25, tj.DEFAULT_STEP)
    deltas = np.diff(base, axis=0)
    changed = np.sum(np.abs(deltas) > 1e-12, axis=1)
    assert changed.max() <= 1  # one coordinate moves at a time
    assert np.max(np.abs(deltas)) <= tj.DEFAULT_STEP + 1e-12


def test_base_raster_sweep_axis_has_no_gap():
    base = tj._raster(0.5, 0.01)
    deltas = np.abs(np.diff(base, axis=0))
    sweep_moves = deltas[deltas[:, 0] > 1e-12, 0]
    assert sweep_moves.max() <= 0.01 + 1e-12


def test_finer_sparsity_has_more_waypoints():
    n_half = len(tj._raster(0.5, tj.DEFAULT_STEP))
    n_quarter = len(tj._raster(0.25, tj.DEFAULT_STEP))
    assert n_quarter > n_half


def _densify_ref(waypoints, step):
    """The original per-point loop form of ``_densify``."""
    out = [waypoints[0]]
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        k = max(1, math.ceil(float(np.max(np.abs(b - a))) / step))
        for i in range(1, k + 1):
            out.append(a + (b - a) * (i / k))
    return np.array(out)


_point = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3)


@st.composite
def _paths(draw):
    """Waypoint paths mixing long jumps, zero-length and sub-step segments."""
    pts = [draw(_point)]
    for kind in draw(st.lists(st.sampled_from(["jump", "same", "tiny"]), max_size=10)):
        prev = pts[-1]
        if kind == "jump":
            pts.append(draw(_point))
        elif kind == "same":
            pts.append(prev)
        else:
            pts.append(tuple(c + draw(st.floats(min_value=-1e-3, max_value=1e-3))
                             for c in prev))
    return np.array(pts, dtype=float)


@settings(max_examples=200, deadline=None)
@given(waypoints=_paths(), step=st.floats(min_value=0.01, max_value=0.5))
@example(waypoints=np.array([[0.1, -0.2, 0.3]]), step=0.05)
@example(waypoints=np.array([[0.1, -0.2, 0.3]] * 3), step=0.05)
@example(waypoints=np.array([[0.0, 0.0, 0.0], [1e-4, 0.0, -1e-4]]), step=0.01)
def test_densify_matches_reference_loop(waypoints, step):
    got, want = tj._densify(waypoints, step), _densify_ref(waypoints, step)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_invalid_sparsity_rejected():
    for bad in (0.0, -0.1, 0.6, 1.0):
        with pytest.raises(tj.TrajectoryError):
            tj.generate("j1", bad)


# --- scaling to limits ----------------------------------------------------

@pytest.mark.parametrize("direction", tj.DIRECTIONS)
@pytest.mark.parametrize("sparsity", [0.5, 1 / 3])
def test_scaled_spans_and_center(direction, sparsity):
    lim = DEFAULT_LIMITS
    traj = tj.generate(direction, sparsity)
    lo, hi = traj.waypoints.min(axis=0), traj.waypoints.max(axis=0)
    span = hi - lo
    center = 0.5 * (hi + lo)
    f = tj.span_fraction(direction)
    assert np.max(np.abs(span - f * lim.range) / lim.range) < 1e-9
    assert np.max(np.abs(center - lim.center) / lim.range) < 1e-9
    assert np.all(lo >= np.asarray(lim.min) - 1e-9)
    assert np.all(hi <= np.asarray(lim.max) + 1e-9)


def test_span_fractions_by_class():
    assert tj.span_fraction("j1") == pytest.approx(1 / SQRT3)
    assert tj.span_fraction("j1j3") == pytest.approx(SQRT2 / SQRT3)
    assert tj.span_fraction("j1j2j3") == 1.0


def test_triple_direction_spans_full_limits():
    traj = tj.generate("j1j2j3", 0.5)
    assert np.allclose(traj.waypoints.min(axis=0), DEFAULT_LIMITS.min, atol=1e-9)
    assert np.allclose(traj.waypoints.max(axis=0), DEFAULT_LIMITS.max, atol=1e-9)


def test_single_direction_known_span():
    # j1 limits [0, 90] -> span 90/sqrt(3) ~ 51.96 deg centered at 45
    traj = tj.generate("j1", 0.5)
    lo, hi = traj.waypoints[:, 0].min(), traj.waypoints[:, 0].max()
    assert hi - lo == pytest.approx(90 / SQRT3, rel=1e-12)
    assert 0.5 * (hi + lo) == pytest.approx(45.0, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    direction=st.sampled_from(tj.DIRECTIONS),
    n=st.integers(min_value=2, max_value=6),
    j3max=st.floats(min_value=50.0, max_value=400.0),
)
def test_scaled_trajectory_property(direction, n, j3max):
    lim = JointLimits((-10.0, 5.0, 0.0), (80.0, 95.0, j3max))
    traj = tj.generate(direction, 1.0 / n, limits=lim, step=0.05)
    lo, hi = traj.waypoints.min(axis=0), traj.waypoints.max(axis=0)
    f = tj.span_fraction(direction)
    assert np.max(np.abs((hi - lo) - f * lim.range) / lim.range) < 1e-9
    assert np.max(np.abs(0.5 * (hi + lo) - lim.center) / lim.range) < 1e-9


def _scale_to_limits_ref(pts, limits, f):
    """The original per-joint loop form of ``_scaled``."""
    c, r = limits.center, limits.range
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    out = np.empty_like(pts)
    for j in range(3):
        tgt_lo, tgt_hi = c[j] - 0.5 * f * r[j], c[j] + 0.5 * f * r[j]
        span = hi[j] - lo[j]
        if span < 1e-12:
            out[:, j] = 0.5 * (tgt_lo + tgt_hi)
        else:
            out[:, j] = tgt_lo + (pts[:, j] - lo[j]) * (tgt_hi - tgt_lo) / span
    return out


@settings(max_examples=100, deadline=None)
@given(direction=st.sampled_from(tj.DIRECTIONS),
       pts=st.lists(st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3),
                    min_size=1, max_size=20),
       flat=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       limits=st.sampled_from([DEFAULT_LIMITS, JointLimits((-10.0, 5.0, 0.0),
                                                           (80.0, 95.0, 333.3))]))
def test_scale_to_limits_matches_reference_loop(direction, pts, flat, limits):
    pts = np.array(pts)
    pts[:, list(flat)] = 0.25                   # joints the raster does not move
    got = tj._scaled(pts, direction, limits)
    want = _scale_to_limits_ref(pts, limits, tj.span_fraction(direction))
    assert got.tobytes() == want.tobytes()


# --- timing ---------------------------------------------------------------

def test_duration_empty_and_single():
    empty = tj.Trajectory(np.zeros((0, 3)), "j1", 0.5, DEFAULT_LIMITS)
    single = tj.Trajectory(np.zeros((1, 3)), "j1", 0.5, DEFAULT_LIMITS)
    assert tj.trajectory_duration(empty) == 0.0
    assert tj.trajectory_duration(single) == 0.0


def test_duration_slowest_joint_paces_segment():
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 6.0, 9.5]])
    # speeds (3, 3, 9.5): times per joint = (1, 2, 1) -> segment takes 2 s
    t = tj.trajectory_duration(tj.Trajectory(pts, "j1", 0.5, DEFAULT_LIMITS))
    assert t == pytest.approx(2.0)


def test_default_recording_time_j2j3():
    traj = tj.generate("j2j3", 0.5)
    dur = tj.trajectory_duration(traj)
    assert 209 * 0.9 < dur < 209 * 1.1


def test_sparsity_halving_duration_ratio():
    for direction in ("j1", "j2j3"):
        d2 = tj.trajectory_duration(tj.generate(direction, 0.5))
        d4 = tj.trajectory_duration(tj.generate(direction, 0.25))
        assert 1.5 < d4 / d2 < 2.5


def test_segment_times_monotone():
    traj = tj.generate("j1j2", 1 / 3)
    t = tj.segment_times(traj.waypoints)
    assert t[0] == 0.0
    assert np.all(np.diff(t) >= 0)
    assert t[-1] == tj.trajectory_duration(traj)


# --- persistence ----------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    traj = tj.generate("j1j3", 1 / 3)
    path = tmp_path / "traj.csv"
    tj.save(traj, path)
    back = tj.load(path)
    assert np.array_equal(back.waypoints, traj.waypoints)
    assert back.direction == traj.direction
    assert back.sparsity == traj.sparsity
    assert back.limits == traj.limits and back.step == traj.step
    assert (tmp_path / "traj.json").exists()


def _fail_matrix(fh, header, blocks):
    """The shared CSV writer, failing after 100 waypoint rows."""
    core._write_matrix(fh, header, [b[:100] for b in blocks])
    raise OSError("disk full")


def _fail_sidecar(obj, fh):
    fh.write('{"direction": ')
    raise OSError("disk full")


@pytest.mark.parametrize("name, broken", [
    ("_write_matrix", _fail_matrix),
    ("write_json", _fail_sidecar),
], ids=["csv", "sidecar"])
def test_failed_save_keeps_previous_files(tmp_path, monkeypatch, name, broken):
    path = tmp_path / "traj.csv"
    tj.save(tj.generate("j1j3", 1 / 3), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(tj, name, broken)
    with pytest.raises(OSError, match="disk full"):
        tj.save(tj.generate("j2j3", 0.5), path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _drop_direction(csv_path):
    side = csv_path.with_suffix(".json")
    doc = json.loads(side.read_text())
    del doc["direction"]
    side.write_text(json.dumps(doc))


def _set_entry(name, value):
    def corrupt(csv_path):
        side = csv_path.with_suffix(".json")
        doc = json.loads(side.read_text())
        doc[name] = value
        side.write_text(json.dumps(doc))
    return corrupt


def _old_sidecar(csv_path):
    """The sidecar as written before ``step`` became an entry of its own."""
    side = csv_path.with_suffix(".json")
    doc = json.loads(side.read_text())
    doc.update(normalized=False, meta={"frame": "scaled", "step": doc.pop("step")})
    side.write_text(json.dumps(doc))


def _replace_line(csv_path, lineno, text):
    lines = csv_path.read_text().splitlines(keepends=True)
    lines[lineno] = text
    csv_path.write_text("".join(lines))


def _edit_rows(edit):
    """Rewrite the data rows (the header kept) as ``edit(rows)``."""
    def corrupt(csv_path):
        head, *rows = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join([head, *edit(rows)]))
    return corrupt


@pytest.mark.parametrize("corrupt, bad_file, entry", [
    (_drop_direction, "traj.json", "'direction'"),
    (lambda p: p.with_suffix(".json").write_text("not json\n"), "traj.json", "line 1"),
    (lambda p: p.with_suffix(".json").write_text("[1, 2]\n"), "traj.json", "JSON object"),
    (_set_entry("sparsity", None), "traj.json", "'sparsity'"),
    (_set_entry("limits", {"min": [0, 0], "max": [90, 90, 250]}), "traj.json",
     "entry 'limits.min'"),
    (lambda p: _replace_line(p, 4, "3,inf,1.0,2.0\n"), "traj.csv", "row 3"),
    (lambda p: _replace_line(p, 2, "1,abc,1.0,2.0\n"), "traj.csv", "abc"),
    (lambda p: p.write_text("t_index,j1,j2\n0,1.0,2.0\n1,2.0,3.0\n"), "traj.csv", "3 columns"),
    (_set_entry("direction", "zz"), "traj.json", "'direction'"),
    (_set_entry("direction", ["j1"]), "traj.json", "'direction'"),
    (_set_entry("sparsity", 7.0), "traj.json", "'sparsity'"),
    (_set_entry("sparsity", 0.0), "traj.json", "'sparsity'"),
    (_set_entry("normalized", "no"), "traj.json", "entry 'normalized': unknown key"),
    (_set_entry("normalized", 0), "traj.json", "entry 'normalized': unknown key"),
    (_set_entry("sparsity", "0.5"), "traj.json", "entry 'sparsity': expected number"),
    (_set_entry("meta", 5), "traj.json", "entry 'meta': unknown key"),
    (_old_sidecar, "traj.json", "entry 'step': missing"),
    (_set_entry("step", 0), "traj.json", "entry 'step': step must be"),
    (_set_entry("step", "0.005"), "traj.json", "entry 'step': expected number"),
    (_set_entry("limits", None), "traj.json", "entry 'limits': expected object"),
    (_edit_rows(lambda r: [r[0], r[2], r[1], *r[3:]]), "traj.csv", "row 1 has t_index 2,"),
    (_edit_rows(lambda r: r[:4] + r[5:]), "traj.csv", "row 4 has t_index 5,"),
], ids=["no-direction", "sidecar-not-json", "sidecar-list", "null-sparsity",
         "short-limits", "inf-waypoint",
        "non-numeric", "three-columns", "unknown-direction", "list-direction",
        "sparsity-above-half", "zero-sparsity", "string-normalized",
        "int-normalized", "string-sparsity", "int-meta", "old-sidecar",
        "zero-step", "string-step", "null-limits", "swapped-rows", "dropped-row"])
def test_load_error_names_file_and_entry(tmp_path, corrupt, bad_file, entry):
    path = tmp_path / "traj.csv"
    tj.save(tj.generate("j1j3", 1 / 3), path)
    corrupt(path)
    with pytest.raises(tj.TrajectoryError) as info:
        tj.load(path)
    assert str(tmp_path / bad_file) in str(info.value)
    assert entry in str(info.value)
