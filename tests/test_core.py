import json

import numpy as np
import pytest

from cablecal.core import (
    FULL_SCHEMA,
    FeatureSchema,
    JointLimits,
    JointVector,
    SchemaError,
    build_full_schema,
)


def test_joint_vector_round_trip():
    v = JointVector(1.5, -2.0, 30.25)
    assert np.array_equal(v.as_array(), [1.5, -2.0, 30.25])
    assert JointVector.from_array(v.as_array()) == v


def test_joint_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        JointVector(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        JointVector(0.0, float("inf"), 0.0)


def test_limits_center_and_range():
    lim = JointLimits(JointVector(0, 0, 0), JointVector(90, 90, 250))
    assert np.array_equal(lim.center, [45, 45, 125])
    assert np.array_equal(lim.range, [90, 90, 250])
    # center +- half range reconstructs the bounds exactly
    assert np.array_equal(lim.center + lim.range / 2, lim.max.as_array())
    assert np.array_equal(lim.center - lim.range / 2, lim.min.as_array())


def test_limits_reject_inverted():
    with pytest.raises(ValueError):
        JointLimits(JointVector(0, 0, 0), JointVector(90, -1, 250))
    with pytest.raises(ValueError):
        JointLimits(JointVector(0, 5, 0), JointVector(90, 5, 250))


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
