import numpy as np
import pytest

import pobounds as pb
from pobounds.errors import ConfigError

from oracles import constraint_residual


@pytest.fixture(scope="module")
def joint_po_query(dims33):
    return pb.build_event_query(dims33, {0: 0, 1: 0, 2: 1})


def test_golden_pairwise_ordering(truth_a, joint_po_query):
    dims = truth_a.dims
    res = pb.bound(
        dims,
        joint_po_query,
        exp=truth_a.po_marginals(),
        obs=truth_a.xy_marginal(),
        assumptions=pb.preset("pairwise(2,1)", dims),
    )
    assert res.status == "ok"
    assert res.lower == pytest.approx(0.0, abs=0.01)
    assert res.upper == pytest.approx(0.167, abs=0.01)


def test_golden_observational_only(truth_a, joint_po_query):
    for assume in [None, pb.preset("pairwise(1,0)", truth_a.dims), pb.preset("mtr", truth_a.dims)]:
        res = pb.bound(truth_a.dims, joint_po_query, obs=truth_a.xy_marginal(), assumptions=assume)
        assert res.upper == pytest.approx(0.350, abs=0.01)


def test_constant_query_is_unit_interval(truth_a):
    q = pb.build_event_query(truth_a.dims, {})
    res = pb.bound(truth_a.dims, q, exp=truth_a.po_marginals())
    assert res.lower == pytest.approx(1.0, abs=1e-9)
    assert res.upper == pytest.approx(1.0, abs=1e-9)


def test_assumption_nesting(truth_a, joint_po_query):
    # tightening assumptions can only shrink the interval
    dims = truth_a.dims
    exp, obs = truth_a.po_marginals(), truth_a.xy_marginal()
    chains = [
        (None, pb.preset("pairwise(1,0)", dims)),
        (None, pb.preset("pairwise(2,1)", dims)),
        (pb.preset("pairwise(2,1)", dims), pb.preset("mtr", dims)),
    ]
    for weaker, stronger in chains:
        a = pb.bound(dims, joint_po_query, exp=exp, obs=obs, assumptions=weaker)
        b = pb.bound(dims, joint_po_query, exp=exp, obs=obs, assumptions=stronger)
        assert b.lower >= a.lower - 1e-7
        assert b.upper <= a.upper + 1e-7


def test_ground_truth_containment(truth_a):
    dims = truth_a.dims
    p_true = truth_a.param_vector()
    exp, obs = truth_a.po_marginals(), truth_a.xy_marginal()
    queries = [
        pb.build_event_query(dims, {0: 0, 1: 0, 2: 1}),
        pb.build_moment_query(dims, 2, (1, 0)),
        pb.build_posterior_effect_query(dims, (1, 0), (2, 2)),
    ]
    for q in queries:
        obj = pb.collapse_to_objective(q, dims)
        target = float(obj @ p_true)
        if q.condition is not None:
            target /= pb.condition_probability(q, obs)
        res = pb.bound(dims, q, exp=exp, obs=obs, assumptions=pb.preset("mtr", dims))
        assert res.lower - 1e-7 <= target <= res.upper + 1e-7


def test_witness_sharpness(truth_a, joint_po_query):
    dims = truth_a.dims
    exp, obs = truth_a.po_marginals(), truth_a.xy_marginal()
    assumptions = pb.preset("prob_mtr(0.9,1.0)", dims)
    res = pb.bound(dims, joint_po_query, exp=exp, obs=obs, assumptions=assumptions)
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=assumptions)
    obj = pb.collapse_to_objective(joint_po_query, dims)
    assert constraint_residual(cs, res.lower_witness) < 1e-8
    assert constraint_residual(cs, res.upper_witness) < 1e-8
    assert float(obj @ res.lower_witness) == pytest.approx(res.lower, abs=1e-8)
    assert float(obj @ res.upper_witness) == pytest.approx(res.upper, abs=1e-8)


def test_point_identification_collapse(truth_b, joint_po_query):
    dims = truth_b.dims
    res = pb.bound(
        dims,
        joint_po_query,
        exp=truth_b.po_marginals(),
        assumptions=pb.preset("mite", dims),
    )
    assert res.upper - res.lower < 1e-7
    assert res.lower == pytest.approx(1 / 7, abs=1e-7)


def test_infeasible_bound_reports_certificate():
    dims = pb.Dims(2, 2)
    exp = pb.ExperimentalMarginals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    q = pb.build_event_query(dims, {0: 0, 1: 1})
    res = pb.bound(dims, q, exp=exp, assumptions=pb.preset("mtr", dims))
    assert res.status == "infeasible"
    assert res.diagnostics
    with pytest.raises(pb.PoboundsError):
        res.width()


def test_slack_repairs_noisy_infeasibility():
    # inconsistent factual cell vs arm marginal: P(X=0,Y=0) > P(Y_0=0)
    dims = pb.Dims(2, 2)
    exp = pb.ExperimentalMarginals(np.array([[0.10, 0.90], [0.50, 0.50]]))
    obs = pb.ObservationalJoint(np.array([[0.15, 0.35], [0.25, 0.25]]))
    q = pb.build_event_query(dims, {0: 0, 1: 1})
    res = pb.bound(dims, q, exp=exp, obs=obs)
    assert res.status == "infeasible"
    repaired = pb.bound(dims, q, exp=exp, obs=obs, slack=0.06)
    assert repaired.status == "ok"


def test_config_errors(truth_a, joint_po_query):
    dims = truth_a.dims
    with pytest.raises(ConfigError):
        pb.bound(dims, joint_po_query)
    with pytest.raises(ConfigError):
        pb.bound(
            dims,
            joint_po_query,
            exp=truth_a.po_marginals(),
            assumptions=pb.AssumptionSet(exogeneity=True),
        )
    conditional = pb.build_posterior_effect_query(dims, (1, 0), (2, 2))
    with pytest.raises(ConfigError):
        pb.bound(dims, conditional, exp=truth_a.po_marginals())
    for eps in (-0.1, np.inf, np.nan, True, "0.1"):
        with pytest.raises(ConfigError, match="slack"):
            pb.bound(dims, joint_po_query, obs=truth_a.xy_marginal(), slack=eps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tables_rejected(bad):
    dims = pb.Dims(2, 2)
    q = pb.build_event_query(dims, {0: 0, 1: 1})
    exp = pb.ExperimentalMarginals(np.array([[bad, 0.5], [0.5, 0.5]]))
    obs = pb.ObservationalJoint(np.array([[bad, 0.25], [0.25, 0.25]]))
    with pytest.raises(pb.ValidationError, match="experimental table"):
        pb.bound(dims, q, exp=exp)
    with pytest.raises(pb.ValidationError, match="observational table"):
        pb.bound(dims, q, obs=obs)


def test_sweep_single_point_equals_bound(truth_a, joint_po_query):
    dims = truth_a.dims
    exp, obs = truth_a.po_marginals(), truth_a.xy_marginal()
    assumptions = pb.preset("prob_mtr(0.95,1.0)", dims)
    direct = pb.bound(dims, joint_po_query, exp=exp, obs=obs, assumptions=assumptions)
    points = [pb.bound(dims, joint_po_query, exp=exp, obs=obs, assumptions=a) for a in [assumptions]]
    assert len(points) == 1
    assert points[0].lower == direct.lower
    assert points[0].upper == direct.upper


def test_sweep_upper_bound_decreases(truth_a, joint_po_query):
    dims = truth_a.dims
    grid = [pb.preset(f"prob_mtr({l},1.0)", dims) for l in (0.90, 0.95, 1.00)]
    exp, obs = truth_a.po_marginals(), truth_a.xy_marginal()
    ubs = [pb.bound(dims, joint_po_query, exp=exp, obs=obs, assumptions=a).upper for a in grid]
    assert ubs[0] == pytest.approx(0.275, abs=0.01)
    assert ubs[-1] == pytest.approx(0.165, abs=0.01)
    assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))


def test_sweep_survives_infeasible_point():
    # an infeasible point of the grid is reported, and the points after it are solved
    dims = pb.Dims(2, 2)
    exp = pb.ExperimentalMarginals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    q = pb.build_event_query(dims, {0: 1, 1: 0})
    grid = [pb.AssumptionSet(), pb.preset("mtr", dims), pb.AssumptionSet()]
    points = [pb.bound(dims, q, exp=exp, assumptions=a) for a in grid]
    assert points[0].status == "ok"
    assert points[1].status == "infeasible"
    assert points[2].status == "ok"
    assert points[0].lower == points[2].lower
