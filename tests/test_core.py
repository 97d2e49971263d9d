import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablecal.core import (
    DEFAULT_LIMITS,
    FULL_SCHEMA,
    FeatureSchema,
    JointLimits,
    SchemaError,
    build_full_schema,
    json_digest,
)


_coord = st.one_of(st.integers(-10**6, 10**6), st.floats(-1e6, 1e6))
_span = st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e6))


@st.composite
def _limit_pairs(draw):
    """(min, max) as two 3-lists of ints and floats with min < max."""
    lo = draw(st.lists(_coord, min_size=3, max_size=3))
    return lo, [a + draw(_span) for a in lo]


@settings(max_examples=200, deadline=None)
@given(_limit_pairs())
def test_limits_dict_round_trip_keeps_equality_and_hash(pair):
    lim = JointLimits(*pair)
    back = JointLimits.from_dict(json.loads(json.dumps(lim.to_dict())))
    assert back == lim and hash(back) == hash(lim)
    assert back.min == lim.min == tuple(float(v) for v in pair[0])


@settings(max_examples=200, deadline=None)
@given(_limit_pairs())
def test_limits_json_holds_every_bound_as_a_float(pair):
    # ints are written as floats (90 -> 90.0), as the limits JSON always was
    lo, hi = pair
    want = json.dumps({"min": [float(v) for v in lo], "max": [float(v) for v in hi]})
    assert json.dumps(JointLimits(lo, hi).to_dict()) == want


_bad_value = st.sampled_from([float("nan"), float("inf"), -float("inf")])


@settings(max_examples=100, deadline=None)
@given(_limit_pairs(), st.sampled_from(["min", "max"]), st.integers(0, 2),
       st.one_of(_bad_value, st.integers(0, 5).filter(lambda n: n != 3)))
def test_limits_reject_nonfinite_and_wrong_length(pair, side, j, bad):
    lo, hi = (list(v) for v in pair)
    vec = lo if side == "min" else hi
    if isinstance(bad, float):
        vec[j] = bad
    else:                   # a length other than 3
        vec[:] = (vec * 2)[:bad]
    with pytest.raises(ValueError, match=side):
        JointLimits(lo, hi)


@pytest.mark.parametrize("side", ["min", "max"])
def test_limits_reject_an_integer_too_large_for_a_float(side):
    lo, hi = [0, 0, 0], [90, 90, 250]
    (lo if side == "min" else hi)[2] = 10 ** 400
    with pytest.raises(ValueError, match=f"limits {side} must be 3 finite"):
        JointLimits(lo, hi)


@settings(max_examples=100, deadline=None)
@given(_limit_pairs(), st.integers(0, 2), st.booleans())
def test_limits_reject_min_not_below_max(pair, j, equal):
    lo, hi = (list(v) for v in pair)
    hi[j] = lo[j] if equal else lo[j] - 1.0
    with pytest.raises(ValueError, match="min < max"):
        JointLimits(lo, hi)


def test_limits_center_and_range():
    lim = JointLimits((0, 0, 0), (90, 90, 250))
    assert lim == DEFAULT_LIMITS
    assert np.array_equal(lim.center, [45, 45, 125])
    assert np.array_equal(lim.range, [90, 90, 250])
    # center +- half range reconstructs the bounds exactly
    assert np.array_equal(lim.center + lim.range / 2, lim.max)
    assert np.array_equal(lim.center - lim.range / 2, lim.min)


def test_limits_reject_inverted():
    with pytest.raises(ValueError):
        JointLimits((0, 0, 0), (90, -1, 250))
    with pytest.raises(ValueError):
        JointLimits((0, 5, 0), (90, 5, 250))


def test_full_schema_dimensions():
    s = build_full_schema()
    assert s.dim_full == 138
    assert s.dim_selected == 16
    assert len(set(s.names)) == 138


def test_selected_block_is_positions_then_torques():
    names = FULL_SCHEMA.selected_names()
    assert len(names) == 16
    assert all(n.startswith("joint_position_") for n in names[:8])
    assert all(n.startswith("motor_torque_") for n in names[8:])
    # the three positioning joints come first within the position block
    assert names[0] == "joint_position_j1"
    assert names[1] == "joint_position_j2"
    assert names[2] == "joint_position_j3"


def test_schema_round_trip_and_hash_stability():
    s = FULL_SCHEMA
    blob = json.dumps(s.to_dict())
    s2 = FeatureSchema.from_dict(json.loads(blob))
    assert s2 == s
    assert s2.hash() == s.hash()
    # changing the mask changes the hash
    assert s.with_all_selected().hash() != s.hash()


def test_json_digest_keeps_its_values():
    # schema hashes sit in every dataset and model file and config hashes in
    # every manifest, so the canonical digest must not change its bytes
    assert FULL_SCHEMA.hash() == (
        "8c8e50adbd19d29367a139b29f59678a0122c3973ec6011e8dc936d3b4fa35c0")
    assert json_digest({"b": [1, 2.5, None], "a": {"y": True, "x": "é"}}) == (
        "939075563d1fec2997dd324b5476211902d0a036c3ff5736d55db2282ca668f3")


def test_schema_rejects_bad_shapes():
    with pytest.raises(SchemaError):
        FeatureSchema(("a", "b"), (True,))
    with pytest.raises(SchemaError):
        FeatureSchema(("a", "a"), (True, False))


def test_selected_indices_match_mask():
    s = FULL_SCHEMA
    idx = s.selected_indices()
    assert len(idx) == 16
    assert [s.names[i] for i in idx] == list(s.selected_names())
