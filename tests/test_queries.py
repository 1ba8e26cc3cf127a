import itertools
import re
import warnings

import numpy as np
import pytest

import pobounds as pb
from conftest import random_mite_truth
from oracles import CellIndex, cells, flatten_index, outcome_vectors
from pobounds.errors import ContradictionError, UndefinedConditionalError, ValidationError


def idx(dims, y_vec, x):
    return flatten_index(CellIndex(y_vec, x), dims)


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
    for y_vec, x in cells(dims):
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
    # levels are never truncated: every non-integer is refused, wherever it sits
    for level in ({"ge": 0.5}, {"in": [1.9]}, [0.2, 1], {"eq": True}, 1.0, np.float64(1), {"le": 1.0}, [np.True_]):
        with pytest.raises(pb.ValidationError, match="not an integer"):
            pb.build_event_query(dims, {0: 0, 1: level})


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
    assert not q.coeffs.any()
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
    for y_vec in outcome_vectors(dims33):
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


# The per-cell dict builders, collapse and evaluation the coefficient tensor
# replaced, kept as a reference: one Python loop over the cells per query.


def reference_levels(dims, constraint):
    full = range(dims.d_y)
    if isinstance(constraint, dict):
        values = set(full)
        for op, v in constraint.items():
            if op == "eq":
                values &= {v}
            elif op == "in":
                values &= set(v)
            elif op == "le":
                values &= {u for u in full if u <= v}
            else:
                values &= {u for u in full if u >= v}
        return values
    return set(constraint) if isinstance(constraint, list) else {constraint}


def reference_event(dims, po, x=None, y=None, given=None):
    sets = [reference_levels(dims, po[k]) if k in po else set(range(dims.d_y)) for k in range(dims.d_x)]
    xs = range(dims.d_x) if x is None else [x]
    ys = range(dims.d_y) if y is None else [y]
    if given is not None:
        xs, ys = [given[0]], [given[1]]
    coeffs = {}
    for y_vec in outcome_vectors(dims):
        if all(y_vec[k] in sets[k] for k in range(dims.d_x)):
            for xv in xs:
                for yv in ys:
                    coeffs[(y_vec, xv, yv)] = 1.0
    return coeffs


def reference_moment(dims, order, arms):
    i, j = arms
    coeffs = {}
    for y_vec in outcome_vectors(dims):
        c = float(y_vec[i] - y_vec[j]) ** order
        if c != 0.0:
            for x in range(dims.d_x):
                for y in range(dims.d_y):
                    coeffs[(y_vec, x, y)] = c
    return coeffs


def reference_posterior_effect(dims, arms, given):
    i, j = arms
    l, m = given
    coeffs = {}
    for y_vec in outcome_vectors(dims):
        c = float(y_vec[i] - y_vec[j])
        if y_vec[l] == m and c != 0.0:
            coeffs[(y_vec, l, m)] = c
    return coeffs


def reference_collapse(coeffs, dims):
    obj = np.zeros(dims.param_count())
    for (y_vec, x, y), c in coeffs.items():
        if y_vec[x] == y and c != 0.0:
            obj[idx(dims, y_vec, x)] += c
    return obj


def reference_evaluate(joint, coeffs, divisor):
    dims = joint.dims
    total = 0.0
    if joint.space == "full":
        for key, mass in joint.entries.items():
            total += mass * coeffs.get(key, 0.0)
        return total / divisor
    obj = reference_collapse(coeffs, dims)
    for y_vec, mass in joint.entries.items():
        per_x = [obj[idx(dims, y_vec, x)] for x in range(dims.d_x)]
        if max(per_x) - min(per_x) > 1e-12:
            return None
        total += mass * per_x[0]
    return total / divisor


def random_constraint(rng, d_y):
    form = int(rng.integers(5))
    if form == 0:
        return int(rng.integers(d_y))
    if form == 1:
        return [int(v) for v in rng.choice(d_y, size=rng.integers(1, d_y + 1), replace=False)]
    if form == 2:
        return {"le": int(rng.integers(d_y))}
    if form == 3:
        return {"ge": int(rng.integers(d_y)), "in": [int(v) for v in rng.choice(d_y, size=2, replace=False)]}
    return {"eq": int(rng.integers(d_y))}


def random_queries(dims, rng, obs):
    """(query, reference coefficients) pairs of all four kinds."""
    cells = np.argwhere(obs.table > 0.0)
    out = []
    for _ in range(4):
        po = {int(k): random_constraint(rng, dims.d_y) for k in rng.choice(dims.d_x, size=rng.integers(0, 3))}
        x = None if rng.random() < 0.5 else int(rng.integers(dims.d_x))
        y = None if rng.random() < 0.5 else int(rng.integers(dims.d_y))
        given = tuple(int(v) for v in cells[rng.integers(len(cells))])
        arms = tuple(int(v) for v in rng.choice(dims.d_x, size=2, replace=rng.random() < 0.2))
        order = int(rng.integers(0, 4))
        if any(not reference_levels(dims, c) for c in po.values()):
            with pytest.raises(ContradictionError):
                pb.build_event_query(dims, po)
            continue
        out += [
            (pb.build_event_query(dims, po, x=x, y=y), reference_event(dims, po, x, y)),
            (pb.build_conditional_query(dims, po, given), reference_event(dims, po, given=given)),
            (pb.build_moment_query(dims, order, arms), reference_moment(dims, order, arms)),
            (pb.build_posterior_effect_query(dims, arms, given), reference_posterior_effect(dims, arms, given)),
        ]
    return out


@pytest.mark.parametrize("d_x, d_y", [(2, 2), (3, 3), (4, 3), (3, 4), (5, 3)])
def test_queries_match_per_cell_reference(d_x, d_y):
    dims = pb.Dims(d_x, d_y)
    rng = np.random.default_rng([17, d_x, d_y])
    truth = random_mite_truth(dims, rng)
    obs = truth.xy_marginal()
    joints = [
        (pb.identify_experimental(truth.po_marginals()), None),
        (pb.identify_observational(obs), obs),
        (truth, None),
    ]
    for q, ref in random_queries(dims, rng, obs):
        dense = np.zeros(dims.full_shape())
        for (y_vec, x, y), c in ref.items():
            dense[y_vec + (x, y)] = c
        assert np.array_equal(q.coeffs, dense)
        assert pb.collapse_to_objective(q, dims).tobytes() == reference_collapse(ref, dims).tobytes()
        if q.condition is not None:
            divisor = pb.condition_probability(q, obs)
            assert pb.bind_condition(q, obs).tobytes() == (reference_collapse(ref, dims) / divisor).tobytes()
        for joint, joint_obs in joints:
            if q.condition is not None and joint.space == "po":
                continue
            divisor = 1.0 if q.condition is None else pb.condition_probability(q, joint_obs or joint.xy_marginal())
            expected = reference_evaluate(joint, ref, divisor)
            if expected is None:
                with pytest.raises(ValidationError, match="depends on treatment"):
                    pb.evaluate(joint, q, obs=joint_obs)
            else:
                assert pb.evaluate(joint, q, obs=joint_obs) == expected


def test_indices_are_range_checked():
    dims = pb.Dims(3, 3)
    bad = [
        lambda: pb.build_event_query(dims, {0: 0}, x=-1),
        lambda: pb.build_event_query(dims, {0: 0}, x=3),
        lambda: pb.build_event_query(dims, {0: 0}, y=-1),
        lambda: pb.build_event_query(dims, {-1: 0}),
        lambda: pb.build_conditional_query(dims, {0: 0}, given=(-1, 0)),
        lambda: pb.build_conditional_query(dims, {0: 0}, given=(0, 3)),
        lambda: pb.build_moment_query(dims, 1, (-1, 0)),
        lambda: pb.build_moment_query(dims, 1, (0, 3)),
        lambda: pb.build_moment_query(dims, -1, (1, 0)),
        lambda: pb.build_posterior_effect_query(dims, (1, 0), (-1, 2)),
        lambda: pb.build_posterior_effect_query(dims, (1, -1), (0, 2)),
        lambda: pb.build_posterior_effect_query(dims, (1, 0), (0, 3)),
    ]
    for build in bad:
        with pytest.raises(ValidationError, match="out of range|negative"):
            build()
    q = pb.QuerySpec(np.zeros(dims.full_shape()), condition=(-1, 0))
    with pytest.raises(ValidationError, match="out of range"):
        pb.condition_probability(q, pb.ObservationalJoint(np.full((3, 3), 1 / 9)))
    with pytest.raises(ValidationError, match="non-finite"):
        pb.collapse_to_objective(pb.QuerySpec(np.full(dims.full_shape(), np.inf)), dims)


@pytest.mark.parametrize("bad", [1.9, 2.7, "1.5", True, np.float64(1.0), np.True_])
def test_indices_are_refused_not_truncated(dims33, bad):
    builds = [
        ("potential-outcome index", lambda v: pb.build_event_query(dims33, {v: 0})),
        ("treatment value", lambda v: pb.build_event_query(dims33, {0: 0}, x=v)),
        ("observed outcome", lambda v: pb.build_event_query(dims33, {0: 0}, y=v)),
        ("treatment value", lambda v: pb.build_conditional_query(dims33, {0: 0}, given=(v, 1))),
        ("observed outcome", lambda v: pb.build_conditional_query(dims33, {0: 0}, given=(1, v))),
        ("treatment value", lambda v: pb.build_conditional_query(dims33, {0: 0}, given=(1, 1), x=v)),
        ("observed outcome", lambda v: pb.build_conditional_query(dims33, {0: 0}, given=(1, 1), y=v)),
        ("moment order", lambda v: pb.build_moment_query(dims33, v, (1, 0))),
        ("arm", lambda v: pb.build_moment_query(dims33, 2, (v, 0))),
        ("arm", lambda v: pb.build_posterior_effect_query(dims33, (1, v), (0, 1))),
        ("treatment value", lambda v: pb.build_posterior_effect_query(dims33, (1, 0), (v, 1))),
    ]
    for what, build in builds:
        with pytest.raises(ValidationError, match=re.escape(f"{what} {bad!r} is not an integer")):
            build(bad)


def test_numpy_integer_indices_are_accepted(dims33):
    def build(one, two):
        return [
            pb.build_event_query(dims33, {one: 0}, x=two, y=one),
            pb.build_conditional_query(dims33, {one: 0}, given=(two, one), x=two),
            pb.build_moment_query(dims33, two, (two, one)),
            pb.build_posterior_effect_query(dims33, (two, one), (one, two)),
        ]

    for plain, numpy in zip(build(1, 2), build(np.int64(1), np.uint8(2))):
        assert np.array_equal(plain.coeffs, numpy.coeffs)


def test_huge_moment_order_is_refused_without_a_warning(dims33):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        query = pb.build_moment_query(dims33, 2000, (1, 0))
        with pytest.raises(ValidationError, match="query has a non-finite coefficient"):
            pb.collapse_to_objective(query, dims33)
