import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cablecal import core
from cablecal.core import FULL_SCHEMA
from cablecal import data as dt
from cablecal import evaluate as ev
from cablecal import sim as sm
from cablecal import trajectory as tj


def make_bag(duration=20.0, rates=(30.0, 100.0), seed=0, em=None):
    em = em if em is not None else sm.default_error_model()
    traj = tj.generate("j2j3", 0.5, step=0.02)
    return dt.record(traj, em, duration=duration, rates=rates, seed=seed)


def synthetic_bag(ts, tt, qt=None):
    n = len(ts)
    feats = np.zeros((n, FULL_SCHEMA.dim_full))
    feats[:, FULL_SCHEMA.index_of("timestamp")] = ts
    for j in (1, 2, 3):
        feats[:, FULL_SCHEMA.index_of(f"joint_position_j{j}")] = np.arange(n) + j
    qt = qt if qt is not None else np.tile([[1.0, 2.0, 3.0]], (len(tt), 1)) * tt[:, None]
    return dt.RecordedBag(sm.StateStream(np.asarray(ts, float), feats),
                          sm.TruthStream(np.asarray(tt, float), qt), FULL_SCHEMA)


# --- bags -------------------------------------------------------------------

def test_bag_round_trip_bit_identical(tmp_path):
    bag = make_bag()
    dt.save_bag(bag, tmp_path / "bag")
    back = dt.load_bag(tmp_path / "bag")
    for got, want in [(back.state.t, bag.state.t), (back.state.features, bag.state.features),
                      (back.truth.t, bag.truth.t), (back.truth.q, bag.truth.q)]:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert back.schema == bag.schema
    assert back.metadata == bag.metadata


def test_bag_rejects_wrong_width():
    with pytest.raises(dt.DataError):
        dt.RecordedBag(sm.StateStream(np.array([0.0]), np.zeros((1, 5))),
                       sm.TruthStream(np.array([0.0]), np.zeros((1, 3))), FULL_SCHEMA)


@pytest.mark.parametrize("stream", ["state", "truth"])
@pytest.mark.parametrize("at, value", [(1, math.nan), (3, math.inf),
                                       (0, -math.inf)])
def test_bag_rejects_non_finite_timestamps(stream, at, value):
    t = np.array([0.0, 0.1, 0.2, 0.3])
    bad = t.copy()
    bad[at] = value
    ts, tt = (bad, t) if stream == "state" else (t, bad)
    with pytest.raises(dt.DataError, match="finite"):
        synthetic_bag(ts, tt)


def test_record_metadata():
    bag = make_bag(seed=3)
    assert bag.metadata["seed"] == 3
    assert bag.metadata["trajectory"]["direction"] == "j2j3"


# --- synchronization ----------------------------------------------------------

def test_sync_coincident_grids_pairs_everything():
    bag = make_bag(rates=(50.0, 50.0))
    ds = dt.synchronize(bag)
    assert len(ds) == len(bag.state.t)
    assert np.array_equal(ds.targets, bag.truth.q[: len(ds)])


def test_sync_dual_rate_pair_count_equals_state_count():
    bag = make_bag(rates=(30.0, 100.0))
    for tol in (0.005, 0.010):
        ds = dt.synchronize(bag, tolerance=tol)
        assert len(ds) == len(bag.state.t)


def test_sync_zero_tolerance_incommensurate_grids_empty():
    ts = np.arange(10) * (1 / 30.0) + 0.0011
    tt = np.arange(34) * 0.01
    with pytest.raises(dt.EmptyDatasetError):
        dt.synchronize(synthetic_bag(ts, tt), tolerance=0.0)


def test_sync_nearest_wins_ties_to_earlier():
    # state sample exactly between two truth samples -> earlier truth
    ts = np.array([0.05])
    tt = np.array([0.0, 0.1])
    qt = np.array([[1.0, 1, 1], [2.0, 2, 2]])
    ds = dt.synchronize(synthetic_bag(ts, tt, qt), tolerance=0.1)
    assert np.array_equal(ds.targets[0], [1.0, 1, 1])


def test_sync_injective_on_truth():
    # state denser than truth: each truth sample pairs at most once,
    # and the nearest state sample keeps it
    ts = np.array([0.00, 0.04, 0.09, 0.12, 0.22])
    tt = np.array([0.0, 0.1, 0.2])
    qt = np.arange(9, dtype=float).reshape(3, 3)
    ds = dt.synchronize(synthetic_bag(ts, tt, qt), tolerance=0.06)
    # truth 0.0 -> state 0.00 (0.04 loses, d=0.04); truth 0.1 -> state 0.09
    # (0.12 loses, d=0.02 vs 0.01); truth 0.2 -> state 0.22
    assert len(ds) == 3
    assert np.allclose(ds.t, [0.00, 0.09, 0.22])


def test_sync_deterministic():
    bag = make_bag()
    d1 = dt.synchronize(bag)
    d2 = dt.synchronize(bag)
    assert np.array_equal(d1.inputs, d2.inputs)
    assert np.array_equal(d1.targets, d2.targets)


def test_sync_full_features():
    bag = make_bag()
    ds = dt.synchronize(bag, full_features=True)
    assert ds.inputs.shape[1] == 138
    assert ds.schema.dim_selected == 138
    sel = dt.synchronize(bag)
    assert sel.inputs.shape[1] == 16


def test_errors_property():
    bag = make_bag()
    ds = dt.synchronize(bag)
    assert np.array_equal(ds.errors, ds.targets - ds.reported)
    # with the default model, reported j2 is biased well away from truth
    assert abs(ds.errors[:, 1].mean()) > 1.0


# --- split / normalize ----------------------------------------------------------

def test_split_is_time_blocked():
    bag = make_bag(duration=40.0)
    ds = dt.synchronize(bag)
    train, test = dt.split_and_normalize(ds, 0.8)
    assert len(train) == round(len(ds) * 0.8)
    assert train.t.max() < test.t.min()
    assert np.array_equal(np.concatenate([train.t, test.t]), ds.t)


def test_norm_stats_from_train_only():
    bag = make_bag(duration=40.0)
    ds = dt.synchronize(bag)
    train, test = dt.split_and_normalize(ds, 0.5)
    assert train.norm is test.norm
    want_mean = ds.inputs[: len(train)].mean(axis=0)
    assert np.allclose(train.norm.mean, want_mean)
    # normalized train is centered; normalized test generally is not
    assert np.max(np.abs(train.norm.apply(train.inputs).mean(axis=0))) < 1e-9


def test_degenerate_features_flagged_and_zeroed():
    bag = make_bag(em=sm.noiseless_linear_model())
    ds = dt.synchronize(bag)
    train, _ = dt.split_and_normalize(ds, 0.8)
    j5 = list(ds.schema.selected_names()).index("joint_position_j5")
    assert train.norm.degenerate[j5]
    assert np.all(train.norm.apply(train.inputs)[:, j5] == 0.0)
    assert train.norm.sd[j5] == 1.0


@pytest.mark.parametrize("kind", ["slice", "mask", "arange"])
def test_take_keeps_values_layout_norm_and_meta(kind):
    ds, _ = dt.split_and_normalize(dt.synchronize(make_bag(duration=10.0)))
    idx = {"slice": slice(5, 60), "mask": np.arange(len(ds)) % 3 == 1,
           "arange": np.arange(40)}[kind]
    sub = ds.take(idx)
    for name in ("t", "inputs", "targets", "reported"):
        got, want = getattr(sub, name), getattr(ds, name)[idx]
        assert np.array_equal(got, want)
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.flags.c_contiguous == want.flags.c_contiguous
    assert sub.norm is ds.norm and sub.schema == ds.schema
    assert sub.meta == ds.meta and sub.meta is not ds.meta


# --- concat ---------------------------------------------------------------------

def test_concat_identity_and_sum():
    a = dt.synchronize(make_bag(duration=10.0, seed=1))
    b = dt.synchronize(make_bag(duration=15.0, seed=2))
    one = dt.concat([a])
    assert np.array_equal(one.inputs, a.inputs)
    both = dt.concat([a, b])
    assert len(both) == len(a) + len(b)
    assert np.array_equal(both.inputs[: len(a)], a.inputs)


def test_concat_mixed_masks_rejected():
    bag = make_bag(duration=10.0)
    sel = dt.synchronize(bag)
    full = dt.synchronize(bag, full_features=True)
    with pytest.raises(dt.DataError):
        dt.concat([sel, full])


# --- dataset persistence ----------------------------------------------------------

def test_dataset_round_trip_bit_identical(tmp_path):
    ds = dt.synchronize(make_bag())
    train, _ = dt.split_and_normalize(ds, 0.8)
    path = tmp_path / "train.csv"
    dt.save_dataset(train, path)
    back = dt.load_dataset(path)
    assert np.array_equal(back.t, train.t)
    assert np.array_equal(back.inputs, train.inputs)
    assert np.array_equal(back.targets, train.targets)
    assert np.array_equal(back.reported, train.reported)
    assert back.schema == train.schema
    assert np.array_equal(back.norm.mean, train.norm.mean)
    assert np.array_equal(back.norm.sd, train.norm.sd)
    assert np.array_equal(back.norm.degenerate, train.norm.degenerate)


def test_dataset_round_trip_without_norm(tmp_path):
    ds = dt.synchronize(make_bag())
    dt.save_dataset(ds, tmp_path / "d.csv")
    back = dt.load_dataset(tmp_path / "d.csv")
    assert back.norm is None
    assert np.array_equal(back.inputs, ds.inputs)


# --- synchronize against the reference loop ---------------------------------------

def synchronize_ref(bag, tolerance=dt.SYNC_TOLERANCE_S, full_features=False):
    """The original loop form of ``dt.synchronize``, kept as its oracle."""
    ts, tt = bag.state.t, bag.truth.t
    if len(ts) == 0 or len(tt) == 0:
        raise dt.EmptyDatasetError("cannot synchronize empty streams")
    pos = np.searchsorted(tt, ts)
    left = np.clip(pos - 1, 0, len(tt) - 1)
    right = np.clip(pos, 0, len(tt) - 1)
    d_left = np.abs(ts - tt[left])
    d_right = np.abs(ts - tt[right])
    nearest = np.where(d_left <= d_right, left, right)
    dist = np.minimum(d_left, d_right)
    ok = dist <= tolerance
    order = np.lexsort((np.arange(len(ts)), dist))
    chosen = np.zeros(len(ts), dtype=bool)
    used = set()
    for i in order:
        if not ok[i]:
            continue
        k = int(nearest[i])
        if k not in used:
            used.add(k)
            chosen[i] = True
    if not np.any(chosen):
        raise dt.EmptyDatasetError(
            f"no state/truth pairs within tolerance {tolerance}s")
    idx = np.flatnonzero(chosen)
    schema = bag.schema.with_all_selected() if full_features else bag.schema
    X = bag.state.features[idx][:, schema.selected_indices()]
    targets = bag.truth.q[nearest[idx]]
    rep_cols = [bag.schema.index_of(f"joint_position_j{j}") for j in (1, 2, 3)]
    reported = bag.state.features[idx][:, rep_cols]
    meta = dict(bag.metadata)
    meta["sync_tolerance_s"] = tolerance
    return dt.Dataset(bag.state.t[idx], X, targets, reported, schema, None, meta)


@st.composite
def stream_times(draw, max_len=30):
    """Strictly increasing times: on a 1/1024 s grid, where distances are
    exact, so equidistant ties occur (a state sample midway between two
    truth samples, two state samples equally far from one truth sample),
    or continuous."""
    n = draw(st.integers(1, max_len))
    if draw(st.booleans()):
        offset = draw(st.integers(0, 1024))
        steps = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
        return (offset + np.cumsum(steps)) / 1024.0
    offset = draw(st.floats(0.0, 1.0))
    steps = draw(st.lists(st.floats(1e-4, 0.1), min_size=n, max_size=n))
    return offset + np.cumsum(steps)


def _same_array(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
            and a.flags.c_contiguous == b.flags.c_contiguous
            and a.flags.f_contiguous == b.flags.f_contiguous)


@settings(max_examples=300, deadline=None)
@given(ts=stream_times(), tt=stream_times(),
       tolerance=st.sampled_from([0.0, 0.001, 4 / 1024, 0.010, 0.05, 100.0]),
       full_features=st.booleans(), strided=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sync_matches_reference_loop(ts, tt, tolerance, full_features, strided,
                                     seed):
    rng = np.random.default_rng(seed)
    n, m = len(ts), len(tt)
    # a loaded bag's features are a strided view of the state.csv matrix
    feats = rng.standard_normal((n, FULL_SCHEMA.dim_full + 1))
    feats = feats[:, 1:] if strided else np.ascontiguousarray(feats[:, 1:])
    # column 0 of the truth rows is its index, to read the pairing back
    q = np.column_stack([np.arange(m, dtype=float), rng.standard_normal((m, 2))])
    bag = dt.RecordedBag(sm.StateStream(ts, feats), sm.TruthStream(tt, q),
                         FULL_SCHEMA, {"seed": seed})
    try:
        want = synchronize_ref(bag, tolerance, full_features)
    except dt.EmptyDatasetError as exc:
        with pytest.raises(dt.EmptyDatasetError, match=re.escape(str(exc))):
            dt.synchronize(bag, tolerance, full_features)
        return
    got = dt.synchronize(bag, tolerance, full_features)
    for name in ("t", "inputs", "targets", "reported"):
        assert _same_array(getattr(got, name), getattr(want, name)), name
    assert got.schema == want.schema and got.meta == want.meta
    k = got.targets[:, 0].astype(int)
    assert len(set(k.tolist())) == len(k)
    assert np.all(np.abs(got.t - tt[k]) <= tolerance)


# --- CSV writer against np.savetxt -------------------------------------------------

def _bits(u):
    """The float64 whose bit pattern is the integer ``u``."""
    return float(np.uint64(u).view(np.float64))


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
           1e308, -1e308, 1.0, -7.0, 12345678901234567.0, 0.1,
           _bits(0x7FF4000000000001), _bits(0xFFF4B9712C64C8FA),  # signalling NaNs
           # exact ties of the 17th digit, which round half to even
           1000000000000000.25, 1000000000000000.75, 123456789012345.625]


def _tie_bounds(j):
    """Inclusive bounds on ``a`` for ``_tie(j, a)``."""
    return -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53) - 2


def _tie(j, a):
    """An exact %.17g tie: a / 2**j with ``a`` made odd, read from the
    decimal string of its digits a * 5**j, which number 18 and end in 5."""
    return float(f"{(a | 1) * 5 ** j}e-{j}")


# the hard cases of the writer's rounding: powers of ten and their
# neighbours (decade edges), exact ties and integers near 2**53
_TENS = 10.0 ** np.arange(-5, 18)
HARD = sorted(set(np.concatenate([
    _TENS, np.nextafter(_TENS, 0), np.nextafter(_TENS, np.inf),
    2.0 ** 53 + np.arange(-20.0, 21.0), 2.0 ** 54 + 2 * np.arange(-20.0, 21.0),
]).tolist()))

FLOAT64 = (st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from(SPECIAL + HARD)
           | st.integers(0, 2 ** 64 - 1).map(_bits)                 # raw bits
           | st.integers(1, 2 ** 52 - 1).map(_bits)                 # subnormals
           | st.integers(2, 21).flatmap(
               lambda j: st.integers(*_tie_bounds(j)).map(lambda a: _tie(j, a))))


def _pool(seed):
    """About 9000 hard values, both signs: ``HARD``, exact ties and their
    neighbours, raw bit patterns, subnormals and normals scaled over the
    whole fixed-notation range."""
    rng = np.random.default_rng(seed)
    ties = []
    for j in range(2, 22):
        lo, hi = _tie_bounds(j)
        ties += [_tie(j, int(a)) for a in rng.integers(lo, hi + 1, 50)]
    ties = np.array(ties)
    pool = np.concatenate([
        SPECIAL, HARD, ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf),
        rng.integers(0, 2 ** 64, 2000, dtype=np.uint64).view(np.float64),
        rng.integers(1, 2 ** 52, 500, dtype=np.uint64).view(np.float64),
        rng.standard_normal(2000) * 10.0 ** rng.integers(-6, 19, 2000)])
    return np.concatenate([pool, -pool])


def savetxt_ref(path, header, blocks):
    np.savetxt(path, np.column_stack(blocks), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _split(table, cuts):
    """``table``'s columns as 1-D blocks (one column) and 2-D blocks."""
    edges = [0] + sorted(set(cuts)) + [table.shape[1]]
    return [table[:, a] if b == a + 1 else table[:, a:b]
            for a, b in zip(edges, edges[1:]) if b > a]


@st.composite
def column_blocks(draw):
    """Either a few rows drawn value by value, or rows that end just
    before, at or after a chunk boundary of the writer, at the bag (139),
    truth (4) and single-column widths, drawn from ``_pool``."""
    if draw(st.booleans()):
        rows = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 12))
        shapes = st.just((rows,)) | st.tuples(st.just(rows), st.integers(1, 4))
        return draw(st.lists(hnp.arrays(np.float64, shapes, elements=FLOAT64),
                             min_size=1, max_size=4))
    width = draw(st.sampled_from([1, 4, 139]))
    chunk = max(1, core._CSV_CHUNK_VALUES // width)
    rows = draw(st.sampled_from([chunk - 1, chunk, chunk + 1, 2 * chunk + 1]))
    pool = _pool(draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = pool[rng.integers(len(pool), size=(rows, width))]
    return _split(table, draw(st.lists(st.integers(1, width - 1), max_size=3))
                  if width > 1 else [])


def write_matrix(path, header, blocks):
    with core._replacing(path) as (fh,):
        core._write_matrix(fh, header, blocks)


@pytest.mark.filterwarnings("error")        # no numpy warning on any value
@settings(max_examples=150, deadline=None)
@given(blocks=column_blocks())
@example(blocks=[np.array(SPECIAL)])
@example(blocks=[np.empty(0), np.empty((0, 2))])
def test_write_matrix_matches_savetxt(blocks):
    width = sum(1 if b.ndim == 1 else b.shape[1] for b in blocks)
    header = [f"c{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as d:
        got, want = Path(d) / "got.csv", Path(d) / "want.csv"
        if len(blocks[0]) == 0:             # no rows: refused, nothing written
            with pytest.raises(ValueError, match="no data rows to write"):
                write_matrix(got, header, blocks)
            assert not any(Path(d).iterdir())
            return
        write_matrix(got, header, blocks)
        savetxt_ref(want, header, blocks)
        assert got.read_bytes() == want.read_bytes()
        assert sorted(p.name for p in Path(d).iterdir()) == ["got.csv", "want.csv"]


def _json_ref(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_saved_bag_and_dataset_bytes_match_savetxt(tmp_path):
    bag = make_bag(seed=11)
    dt.save_bag(bag, tmp_path / "bag")
    ref = tmp_path / "ref"
    ref.mkdir()
    savetxt_ref(ref / "state.csv", ["t"] + list(bag.schema.names),
                [bag.state.t, bag.state.features])
    savetxt_ref(ref / "truth.csv", ["t", "q1", "q2", "q3"], [bag.truth.t, bag.truth.q])
    _json_ref(ref / "metadata.json",
              {"schema": bag.schema.to_dict(), "metadata": bag.metadata})
    for name in ("state.csv", "truth.csv", "metadata.json"):
        assert (tmp_path / "bag" / name).read_bytes() == (ref / name).read_bytes(), name

    train, _ = dt.split_and_normalize(dt.synchronize(bag, full_features=True))
    dt.save_dataset(train, tmp_path / "train.csv")
    D = train.inputs.shape[1]
    savetxt_ref(ref / "train.csv",
                ["t"] + [f"x_{i}" for i in range(D)]
                + ["q1_true", "q2_true", "q3_true", "q1_rep", "q2_rep", "q3_rep"],
                [train.t, train.inputs, train.targets, train.reported])
    _json_ref(ref / "train.json", {"schema": train.schema.to_dict(),
                                   "norm": train.norm.to_dict(), "meta": train.meta})
    for name in ("train.csv", "train.json"):
        assert (tmp_path / name).read_bytes() == (ref / name).read_bytes(), name


def test_only_scientific_notation_and_ties_take_the_python_path():
    # the float64 exact product rounds every other value, on any IEEE-754
    # platform: of a recorded bag, only the values that %.17g prints in
    # scientific notation (0 < |v| < 1e-4) go to Python's %, and so does
    # every exact tie
    bag = make_bag(seed=11)
    values = np.column_stack([bag.state.t, bag.state.features]).ravel()
    mag = np.abs(values)
    ties = np.array([_tie(j, a) for j in range(2, 22) for a in _tie_bounds(j)])
    for pool, slow in ((values, np.count_nonzero((mag > 0) & (mag < 1e-4))),
                       (ties, len(ties))):
        assert core._format_17g(pool, np.empty((core._TEXT_WIDTH, len(pool)), np.uint8)) == slow


# --- CSV reader against np.loadtxt -------------------------------------------------

#: Finite values at the reader's edges: ±0, subnormals, integers, the
#: 1e16/1e17 and 1e-4/1e-5 decade edges, the largest float and exact ties.
EDGES = np.array([v for v in SPECIAL + HARD + [-v for v in HARD]
                  + [np.finfo(float).max, -np.finfo(float).tiny] if math.isfinite(v)])


@settings(max_examples=150, deadline=None)
@given(blocks=column_blocks(), block_bytes=st.sampled_from([64, 4096, 1 << 18]))
@example(blocks=[EDGES], block_bytes=4096)
@example(blocks=[EDGES[:len(EDGES) // 4 * 4].reshape(-1, 4)], block_bytes=1 << 18)
def test_read_matrix_equals_loadtxt_without_calling_it(blocks, block_bytes):
    # finite values only: the reader refuses NaN and infinities; a block
    # smaller than a row is raised to the widest row the writer writes
    blocks = [np.nan_to_num(b, nan=0.0) for b in blocks]
    if len(blocks[0]) == 0:
        return
    width = sum(1 if b.ndim == 1 else b.shape[1] for b in blocks)
    header = [f"c{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.csv"
        write_matrix(path, header, blocks)
        want = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_READ_BLOCK_BYTES", block_bytes)
            got = core._read_matrix(path, header, dt.DataError)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


#: Edits of one cell that the reader must refuse by row: a dropped or
#: duplicated cell, or a token the writer never writes in its place.
CELL_EDITS = ["drop", "duplicate", "1.0", "1E5", " 1", "x", ""]


def _edited(line: bytes, col: int, edit: str) -> bytes:
    cells = line.split(b",")
    cells[col:col + 1] = {"drop": [], "duplicate": [cells[col]] * 2}.get(
        edit, [edit.encode()])
    return b",".join(cells)


@settings(max_examples=25, deadline=None)
@given(table=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                        elements=st.floats(allow_nan=False, allow_infinity=False)),
       where=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       edit=st.sampled_from(CELL_EDITS))
@example(table=np.array([[1.5, -2.0], [1e-300, 3.0]]), where=(1, 1), edit="drop")
def test_read_matrix_of_a_cut_or_edited_file_loads_whole_rows_or_names_the_row(
        table, where, edit):
    # a file cut right after a row's newline loads exactly the rows before
    # the cut; a cut anywhere else, or one edited cell, is refused naming
    # the file (and, after the header, the row)
    rows, width = table.shape
    header = [f"c{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.csv"
        write_matrix(path, header, [table])
        text = path.read_bytes()
        head = text.index(b"\n") + 1
        for n in range(len(text) + 1):
            path.write_bytes(text[:n])
            whole = text[head:n].count(b"\n")
            if n > head and text[n - 1] == ord("\n"):
                got = core._read_matrix(path, header, dt.DataError)
                assert np.array_equal(got.view(np.uint64), table[:whole].view(np.uint64))
                continue
            with pytest.raises(dt.DataError) as info:
                core._read_matrix(path, header, dt.DataError)
            if n >= head - 1:
                assert str(info.value) == (f"{path}: no data rows" if n <= head else
                                           f"{path}: row {whole} has no final newline")
            else:
                assert str(info.value).startswith(f"{path}: header column ")

        r, c = where[0] % rows, where[1] % width
        lines = text.split(b"\n")
        lines[1 + r] = _edited(lines[1 + r], c, edit)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(dt.DataError) as info:
            core._read_matrix(path, header, dt.DataError)
    if edit == "duplicate" or edit == "drop" and width > 1:
        k = width + (edit == "duplicate") - (edit == "drop")
        want = f"row {r} has {k} columns, expected {width}"
    else:                                   # dropping a row's one cell leaves ''
        token = "" if edit == "drop" else edit
        want = f"row {r}, column 'c{c}': {token!r} is not a %.17g number"
    assert str(info.value) == f"{path}: {want}"


@pytest.mark.parametrize("rows, error", [
    ("1,2,3\n1,x,3\n1,2\n", "row 1, column 'b': 'x' is not a %.17g number"),
    ("1,2,3\n1,2\n1,x,3\n", "row 1 has 2 columns, expected 3"),
    ("1,2,3\n" + "1," * 40 + "1\n", "row 1 has more than 3 columns or a value of over 24 bytes"),
], ids=["token", "width", "longer-than-a-block"])
def test_read_matrix_names_the_first_bad_row(tmp_path, monkeypatch, rows, error):
    # a block holds at least the widest row of the header's width, 25 bytes
    # a value, and a longer row is refused as it is met
    monkeypatch.setattr(core, "_READ_BLOCK_BYTES", 64)
    path = tmp_path / "m.csv"
    path.write_bytes(("a,b,c\n" + rows).encode())
    with pytest.raises(dt.DataError) as info:
        core._read_matrix(path, ["a", "b", "c"], dt.DataError)
    assert str(info.value) == f"{path}: {error}"


#: Text that _write_matrix never writes, which np.loadtxt would read or
#: skip, and the refusal that follows ``<file>: ``.
OUTSIDE_GRAMMAR = {
    "0.1000,1,2\n": "row 0, column 'a': '0.1000' is not a %.17g number",
    "1.,1,2\n": "row 0, column 'a': '1.' is not a %.17g number",
    ".5,1,2\n": "row 0, column 'a': '.5' is not a %.17g number",
    "+1,1,2\n": "row 0, column 'a': '+1' is not a %.17g number",
    "1E5,1,2\n": "row 0, column 'a': '1E5' is not a %.17g number",
    "1e5,1,2\n": "row 0, column 'a': '1e5' is not a %.17g number",
    "1,2,3\r\n4,5,6\r\n": "row 0, column 'c': '3\\r' is not a %.17g number",
    " 1,2,3\n": "row 0, column 'a': ' 1' is not a %.17g number",
    "1, 2,3\n": "row 0, column 'b': ' 2' is not a %.17g number",
    "1,2,3 \n": "row 0, column 'c': '3 ' is not a %.17g number",
    "nan,1,2\n": "row 0 holds NaN or infinite values",
    "1,-inf,2\n": "row 0 holds NaN or infinite values",
    "0.12345678901234567890123,1,2\n":
        "row 0, column 'a': '0.12345678901234567890123' is not a %.17g number",
    "1,2,3\n4,5\n": "row 1 has 2 columns, expected 3",
    "1,2,3\n4,5,6": "row 1 has no final newline",
    "1,2,3\n\n4,5,6\n": "row 1 has 1 columns, expected 3",
    "1,2,3,4\n": "row 0 has 4 columns, expected 3",
    "1,2,3\n# note\n": "row 1 has 1 columns, expected 3",
    "1,,3\n": "row 0, column 'b': '' is not a %.17g number",
    "1--2,1,2\n": "row 0, column 'a': '1--2' is not a %.17g number",
    "1.2.3,1,2\n": "row 0, column 'a': '1.2.3' is not a %.17g number",
    "-,1,2\n": "row 0, column 'a': '-' is not a %.17g number",
    "1_0,1,2\n": "row 0, column 'a': '1_0' is not a %.17g number",
    "1,2,3\n4,5,6\n7,8,x\n": "row 2, column 'c': 'x' is not a %.17g number",
    "0x1,1,2\n": "row 0, column 'a': '0x1' is not a %.17g number",
    "007,1,2\n": "row 0, column 'a': '007' is not a %.17g number",
    "-0.0,1,2\n": "row 0, column 'a': '-0.0' is not a %.17g number",
    "1,2,3\n\n": "row 1 has 1 columns, expected 3",
}


@pytest.mark.parametrize("rows", list(OUTSIDE_GRAMMAR))
def test_read_matrix_outside_the_writer_grammar_is_loadtxt(tmp_path, rows):
    # text outside the writer's grammar, which np.loadtxt reads or skips, is
    # refused naming the file and the row
    path = tmp_path / "m.csv"
    path.write_bytes(("a,b,c\n" + rows).encode())
    with pytest.raises(dt.DataError) as info:
        core._read_matrix(path, ["a", "b", "c"], dt.DataError)
    assert str(info.value) == f"{path}: {OUTSIDE_GRAMMAR[rows]}"


# --- atomic writes ------------------------------------------------------------------

class _Unformattable:
    def __float__(self):
        raise RuntimeError("cannot format")


def test_failed_matrix_write_keeps_previous_file(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix(path, ["a", "b"], [np.arange(3.0), np.ones(3)])
    before = path.read_bytes()
    # fails on a row after the first chunks are already written
    rows = core._CSV_CHUNK_VALUES // 2          # per chunk, at width 2
    bad = np.arange(4.0 * rows).astype(object)
    bad[3 * rows] = _Unformattable()
    with pytest.raises(RuntimeError, match="cannot format"):
        write_matrix(path, ["a", "b"], [np.zeros(len(bad)), bad])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


def _files(d):
    """Every file under ``d`` (temporaries included) with its bytes."""
    return {p.name: p.read_bytes() for p in Path(d).iterdir()}


def test_failed_sidecar_write_keeps_previous_bag(tmp_path):
    dt.save_bag(make_bag(duration=5.0), tmp_path / "bag")
    before = _files(tmp_path / "bag")
    other = make_bag(duration=5.0, seed=1)
    bad = dt.RecordedBag(other.state, other.truth, other.schema,
                         {"not_json": object()})
    with pytest.raises(TypeError):
        dt.save_bag(bad, tmp_path / "bag")
    assert _files(tmp_path / "bag") == before


def test_failed_sidecar_write_keeps_previous_dataset(tmp_path):
    first, _ = dt.split_and_normalize(dt.synchronize(make_bag(duration=5.0)))
    dt.save_dataset(first, tmp_path / "d.csv")
    before = _files(tmp_path)
    other, _ = dt.split_and_normalize(
        dt.synchronize(make_bag(duration=5.0, seed=1)))
    bad = dt.Dataset(other.t, other.inputs, other.targets, other.reported,
                     other.schema, other.norm, {"not_json": object()})
    with pytest.raises(TypeError):
        dt.save_dataset(bad, tmp_path / "d.csv")
    assert _files(tmp_path) == before


_PREVIOUS = b'{"previous": true}\n'


@pytest.mark.parametrize("save", [
    lambda path: tj.save(tj.generate("j1", 0.5), path),
    lambda path: dt.save_dataset(
        dt.split_and_normalize(dt.synchronize(make_bag(duration=5.0)))[0], path),
    lambda path: ev.write_report([{"a": 1.0}], {"a": 1.0}, path),
], ids=["trajectory", "dataset", "report"])
def test_csv_named_like_its_sidecar_is_refused_and_keeps_the_previous_file(tmp_path, save):
    # x.json would be both the CSV and its sidecar, staged into one file
    path = tmp_path / "x.json"
    path.write_bytes(_PREVIOUS)
    with pytest.raises(ValueError, match=re.escape(f"{path}: one file named twice")):
        save(path)
    assert _files(tmp_path) == {"x.json": _PREVIOUS}


def test_staged_refuses_paths_that_resolve_to_one_file(tmp_path):
    with pytest.raises(ValueError, match="one file named twice"):
        with core._staged(tmp_path / "x.txt", tmp_path / "sub" / ".." / "x.txt"):
            pass
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("last", ["A", "B"])
def test_interleaved_writers_each_replace_the_file_whole(tmp_path, last):
    # two writers of one path, open at once: each stages at its own name,
    # so whichever finishes last leaves its whole text and no temporary
    path = tmp_path / "x.csv"
    path.write_bytes(_PREVIOUS)
    blocks = {w: core._replacing(path) for w in "AB"}
    handles = {w: block.__enter__()[0] for w, block in blocks.items()}
    for w in "AB":
        handles[w].write(f"{w} partial\n")
    for w in sorted("AB", key=lambda w: w == last):
        handles[w].write(f"{w} done\n")
        blocks[w].__exit__(None, None, None)
        assert path.read_text() == f"{w} partial\n{w} done\n"
    assert _files(tmp_path) == {"x.csv": f"{last} partial\n{last} done\n".encode()}


def test_a_staged_name_another_writer_holds_is_not_touched(tmp_path, monkeypatch):
    monkeypatch.setattr(core.secrets, "token_hex", lambda n: "ab" * n)
    held = tmp_path / f".x.{'ab' * 8}.tmp.csv"
    held.write_bytes(_PREVIOUS)
    with pytest.raises(FileExistsError):
        with core._replacing(tmp_path / "x.csv", tmp_path / "x.json"):
            pass
    assert _files(tmp_path) == {held.name: _PREVIOUS}


# --- load boundary ------------------------------------------------------------------

def _saved(tmp_path):
    bag = make_bag(duration=5.0)
    dt.save_bag(bag, tmp_path / "bag")
    train, _ = dt.split_and_normalize(dt.synchronize(bag))
    dt.save_dataset(train, tmp_path / "d.csv")


def _load(tmp_path, name):
    """Load the bag or the dataset that file ``name`` belongs to."""
    if name.startswith("bag/"):
        return dt.load_bag(tmp_path / "bag")
    return dt.load_dataset(tmp_path / "d.csv")


def test_bag_without_a_reported_joint_is_refused_naming_the_sidecar(tmp_path):
    # the schema and the state.csv header agree, but synchronize would not
    # find the reported position of joint 1
    dt.save_bag(make_bag(duration=2.0), tmp_path / "bag")
    side, state = tmp_path / "bag" / "metadata.json", tmp_path / "bag" / "state.csv"
    side.write_text(side.read_text().replace('"joint_position_j1"', '"j1_position"'))
    state.write_text(state.read_text().replace(",joint_position_j1,", ",j1_position,"))
    with pytest.raises(dt.DataError, match=re.escape(
            f"{side}: entry 'schema': no reported joint column(s) 'joint_position_j1'")):
        dt.load_bag(tmp_path / "bag")


def test_bag_built_without_the_reported_joints_is_refused_naming_them():
    bag = make_bag(duration=2.0)
    names = tuple(n.replace("joint_position_j", "position_j") if n.startswith("joint_") else n
                  for n in bag.schema.names)
    schema = core.FeatureSchema(names, bag.schema.selected_mask)
    with pytest.raises(dt.DataError, match=re.escape(
            "no reported joint column(s) 'joint_position_j1', 'joint_position_j2', "
            "'joint_position_j3'")):
        dt.RecordedBag(bag.state, bag.truth, schema)


@pytest.mark.parametrize("name", ["bag/metadata.json", "d.json"])
def test_load_rejects_sidecar_without_schema(tmp_path, name):
    _saved(tmp_path)
    path = tmp_path / name
    side = json.loads(path.read_text())
    del side["schema"]
    path.write_text(json.dumps(side))
    with pytest.raises(dt.DataError, match=f"{path.name}.*schema"):
        _load(tmp_path, name)


@pytest.mark.parametrize("name, edit", [
    ("bag/state.csv", lambda cells: cells[:-1]),
    ("bag/truth.csv", lambda cells: cells + ["1.5"]),
    ("d.csv", lambda cells: cells + ["1.5"]),
])
def test_load_rejects_csv_width_not_matching_schema(tmp_path, name, edit):
    _saved(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(
        ",".join(edit(line.rstrip("\n").split(","))) + "\n" for line in lines))
    with pytest.raises(dt.DataError, match=f"{path.name}.*columns"):
        _load(tmp_path, name)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["bag/state.csv", "bag/truth.csv", "d.csv"])
def test_load_rejects_non_finite_csv_values(tmp_path, name, value):
    _saved(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[2] = value
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(dt.DataError, match=f"{path.name}.*NaN or infinite"):
        _load(tmp_path, name)


@pytest.mark.parametrize("field", ["mean", "sd"])
def test_load_dataset_rejects_non_finite_norm(tmp_path, field):
    _saved(tmp_path)
    path = tmp_path / "d.json"
    side = json.loads(path.read_text())
    side["norm"][field][0] = math.nan
    path.write_text(json.dumps(side))
    with pytest.raises(dt.DataError,
                       match=re.escape(f"{path}: entry 'norm.{field}': must be finite")):
        dt.load_dataset(tmp_path / "d.csv")


def test_reloaded_dataset_keeps_the_layout_of_synchronize(tmp_path):
    _saved(tmp_path)
    ds = dt.load_dataset(tmp_path / "d.csv")
    assert ds.inputs.flags.f_contiguous
    assert dt.synchronize(make_bag(duration=5.0)).inputs.flags.f_contiguous


def _pop(key):
    def edit(norm):
        del norm[key]
        return norm
    return edit


def _put(key, value):
    def edit(norm):
        norm[key] = value
        return norm
    return edit


@pytest.mark.parametrize("edit, entry, named", [
    (_pop("sd"), "norm.sd", "missing"),
    (lambda norm: [norm["mean"], norm["sd"]], "norm", "expected object or null, got array"),
    (lambda norm: {}, "norm.mean", "missing"),
    (_put("mean", "abc"), "norm.mean", "expected array, got string"),
    (_put("sd", [1.0, None]), "norm.sd", "expected a (16,) array of numbers"),
    (_put("degenerate", 3), "norm.degenerate", "expected array, got integer"),
    (_put("degenerate", ["no"] * 16), "norm.degenerate", "array of booleans"),
    (_put("degenerate", [0.0] * 16), "norm.degenerate", "array of booleans"),
    (_put("mean", [0.0]), "norm.mean", "got a (1,) array"),
    (lambda norm: {k: v[:-1] for k, v in norm.items()}, "norm.mean", "got a (15,) array"),
    (_put("sd", [1.0] * 3 + [0.0] + [1.0] * 12), "norm", "sd must be > 0"),
    (_put("sd", [1.0] * 15 + [-1.0]), "norm", "sd must be > 0"),
], ids=["no-sd", "list", "empty", "string-mean", "null-in-sd", "int-degenerate",
        "string-degenerate", "numeric-degenerate", "short-mean", "short-norm",
        "zero-sd", "negative-sd"])
def test_load_dataset_names_malformed_norm(tmp_path, edit, entry, named):
    _saved(tmp_path)
    path = tmp_path / "d.json"
    side = json.loads(path.read_text())
    side["norm"] = edit(side["norm"])
    path.write_text(json.dumps(side))
    with pytest.raises(dt.DataError) as info:
        dt.load_dataset(tmp_path / "d.csv")
    assert f"{path}: entry '{entry}': " in str(info.value)
    assert named in str(info.value)


@pytest.mark.parametrize("name, edit, entry", [
    ("bag/metadata.json", _put("metadata", [1, 2]), "metadata"),
    ("bag/metadata.json", _put("metadata", None), "metadata"),
    ("d.json", _put("meta", "x"), "meta"),
    ("bag/metadata.json", lambda side: _put("selected_mask", "1" * 138)(side["schema"]),
     "schema.selected_mask"),
    ("d.json", lambda side: _put("names", list(range(138)))(side["schema"]),
     "schema.names"),
], ids=["list-metadata", "null-metadata", "string-meta", "string-mask", "int-names"])
def test_load_rejects_wrong_typed_sidecar_entry(tmp_path, name, edit, entry):
    _saved(tmp_path)
    path = tmp_path / name
    side = json.loads(path.read_text())
    edit(side)
    path.write_text(json.dumps(side))
    with pytest.raises(dt.DataError, match=re.escape(f"{path}: entry '{entry}': expected")):
        _load(tmp_path, name)
