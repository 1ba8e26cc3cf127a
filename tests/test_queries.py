import itertools

import numpy as np
import pytest

import pobounds as pb
from pobounds.errors import ContradictionError, UndefinedConditionalError


def idx(dims, y_vec, x):
    return pb.flatten_index(pb.CellIndex(y_vec, x), dims)


def test_consistency_kills_impossible_event():
    # asking for X=0, Y=1 while forcing Y_0=0 contradicts consistency
    dims = pb.Dims(2, 2)
    q = pb.build_event_query(dims, {0: 0}, x=0, y=1)
    obj = pb.collapse_to_objective(q, dims)
    assert np.all(obj == 0.0)


def test_joint_po_event_objective(dims33):
    q = pb.build_event_query(dims33, {0: 0, 1: 0, 2: 1})
    obj = pb.collapse_to_objective(q, dims33)
    hot = {i for i in range(dims33.param_count()) if obj[i] == 1.0}
    assert hot == {idx(dims33, (0, 0, 1), x) for x in range(3)}
    assert np.all((obj == 0.0) | (obj == 1.0))


def test_contrast_expectation_objective():
    dims = pb.Dims(2, 2)
    q = pb.build_moment_query(dims, 1, (1, 0))
    obj = pb.collapse_to_objective(q, dims)
    for y_vec, x in dims.cells():
        assert obj[idx(dims, y_vec, x)] == y_vec[1] - y_vec[0]


def test_interval_event_matches_enumeration():
    dims = pb.Dims(4, 3)
    q = pb.build_conditional_query(dims, {0: {"le": 1}, 1: {"le": 1}, 2: {"le": 1}}, given=(3, 2))
    obj = pb.collapse_to_objective(q, dims)
    expected = set()
    for y_vec in itertools.product(range(3), repeat=4):
        if y_vec[0] <= 1 and y_vec[1] <= 1 and y_vec[2] <= 1 and y_vec[3] == 2:
            expected.add(idx(dims, y_vec, 3))
    assert {i for i in np.flatnonzero(obj)} == expected


def test_empty_event_is_constant_one():
    dims = pb.Dims(2, 2)
    q = pb.build_event_query(dims, {})
    obj = pb.collapse_to_objective(q, dims)
    assert np.all(obj == 1.0)
    res = pb.bound(dims, q, obs=pb.ObservationalJoint(np.full((2, 2), 0.25)))
    assert res.lower == pytest.approx(1.0, abs=1e-9)
    assert res.upper == pytest.approx(1.0, abs=1e-9)


def test_benefit_event_query():
    dims = pb.Dims(2, 2)
    for po in ({0: 0, 1: 1}, {0: np.int64(0), 1: np.uint8(1)}, {0: [np.int32(0)], 1: {"eq": np.int64(1)}}):
        q = pb.build_event_query(dims, po)
        obj = pb.collapse_to_objective(q, dims)
        assert {i for i in np.flatnonzero(obj)} == {idx(dims, (0, 1), 0), idx(dims, (0, 1), 1)}
    for flag in (True, np.True_):
        with pytest.raises(pb.ValidationError):
            pb.build_event_query(dims, {0: 0, 1: flag})


def test_contradictory_value_set():
    dims = pb.Dims(2, 2)
    with pytest.raises(ContradictionError):
        pb.build_event_query(dims, {0: {"ge": 1, "le": 0}})


def test_conditional_event_conflict():
    dims = pb.Dims(2, 2)
    with pytest.raises(ContradictionError):
        pb.build_conditional_query(dims, {0: 0}, given=(1, 1), x=0)


def test_conditional_full_space_event_is_one():
    dims = pb.Dims(2, 2)
    obs = pb.ObservationalJoint(np.full((2, 2), 0.25))
    q = pb.build_conditional_query(dims, {}, given=(0, 1))
    res = pb.bound(dims, q, obs=obs)
    assert res.lower == pytest.approx(1.0, abs=1e-9)
    assert res.upper == pytest.approx(1.0, abs=1e-9)


def test_moment_query_coefficient_sets(dims33):
    q1 = pb.build_moment_query(pb.Dims(2, 2), 1, (1, 0))
    vals = set(pb.collapse_to_objective(q1, pb.Dims(2, 2)))
    assert vals == {-1.0, 0.0, 1.0}
    q2 = pb.build_moment_query(dims33, 2, (1, 0))
    vals2 = set(pb.collapse_to_objective(q2, dims33))
    assert vals2 == {0.0, 1.0, 4.0}


def test_moment_query_same_arm_is_zero(dims33):
    q = pb.build_moment_query(dims33, 2, (1, 1))
    assert not q.coeffs
    res = pb.bound(dims33, q, exp=pb.ExperimentalMarginals(np.full((3, 3), 1 / 3)))
    assert res.lower == res.upper == 0.0


def test_posterior_effect_on_point_mass():
    dims = pb.Dims(2, 2)
    joint = pb.SparseJointPO(dims, {((0, 1), 0, 0): 1.0}, "full")
    q = pb.build_posterior_effect_query(dims, (1, 0), (0, 0))
    assert pb.evaluate(joint, q) == pytest.approx(1.0)


def test_condition_probability_values(truth_a):
    q = pb.build_posterior_effect_query(truth_a.dims, (1, 0), (2, 2))
    assert pb.condition_probability(q, truth_a.xy_marginal()) == pytest.approx(0.1)
    dims = pb.Dims(2, 2)
    q2 = pb.build_conditional_query(dims, {0: 0}, given=(0, 1))
    assert pb.condition_probability(q2, pb.ObservationalJoint(np.full((2, 2), 0.25))) == pytest.approx(0.25)


def test_condition_on_zero_probability_cell():
    dims = pb.Dims(2, 2)
    obs = pb.ObservationalJoint(np.array([[0.5, 0.0], [0.25, 0.25]]))
    q = pb.build_conditional_query(dims, {0: 0}, given=(0, 1))
    with pytest.raises(UndefinedConditionalError):
        pb.bind_condition(q, obs)


def test_conditional_event_coefficients_are_scaled_indicators(truth_a):
    dims = truth_a.dims
    obs = truth_a.xy_marginal()
    q = pb.build_conditional_query(dims, {0: 0}, given=(2, 2))
    scaled = pb.bind_condition(q, obs)
    p = pb.condition_probability(q, obs)
    assert set(np.round(scaled, 12)) <= {0.0, round(1 / p, 12)}


def test_po_only_objective_constant_across_x(dims33):
    q = pb.build_event_query(dims33, {0: {"le": 1}, 2: 2})
    obj = pb.collapse_to_objective(q, dims33)
    for y_vec in dims33.outcome_vectors():
        vals = {obj[idx(dims33, y_vec, x)] for x in range(3)}
        assert len(vals) == 1


def test_conditional_evaluation_matches_enumeration(truth_b):
    # direct enumeration oracle on a point-identified joint
    dims = truth_b.dims
    obs = truth_b.xy_marginal()
    q = pb.build_conditional_query(dims, {0: 1}, given=(2, 2))
    expected = sum(
        mass for (y_vec, x, y), mass in truth_b.entries.items() if y_vec[0] == 1 and (x, y) == (2, 2)
    ) / obs.table[2, 2]
    assert pb.evaluate(truth_b, q, obs=obs) == pytest.approx(expected, abs=1e-12)
