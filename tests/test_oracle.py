import numpy as np
import pytest

import pobounds as pb
from pobounds.errors import ValidationError

from oracles import SizeError, constraint_residual, random_feasible_points, tian_pearl_pns_bounds, vertex_enumerate_small


def test_closed_form_examples():
    assert tian_pearl_pns_bounds(0.5, 0.5) == (0.0, 0.5)
    assert tian_pearl_pns_bounds(1.0, 0.0) == (1.0, 1.0)
    assert tian_pearl_pns_bounds(0.0, 1.0) == (0.0, 0.0)


def test_closed_form_matches_lp_on_grid():
    dims = pb.Dims(2, 2)
    q = pb.build_event_query(dims, {0: 0, 1: 1})
    exo = pb.AssumptionSet(exogeneity=True)
    for p1 in np.linspace(0.0, 1.0, 6):
        for p0 in np.linspace(0.0, 1.0, 6):
            obs = pb.ObservationalJoint(
                np.array([[0.5 * (1 - p0), 0.5 * p0], [0.5 * (1 - p1), 0.5 * p1]])
            )
            res = pb.bound(dims, q, obs=obs, assumptions=exo)
            lo, hi = tian_pearl_pns_bounds(p1, p0)
            assert res.lower == pytest.approx(lo, abs=1e-8)
            assert res.upper == pytest.approx(hi, abs=1e-8)


def test_hit_and_run_base_simplex():
    dims = pb.Dims(2, 2)
    cs = pb.compile_base(dims)
    points = random_feasible_points(cs, 100, seed=3)
    assert len(points) == 100
    for p in points:
        assert constraint_residual(cs, p) < 1e-8


def test_hit_and_run_within_lp_range(truth_a):
    dims = truth_a.dims
    cs = pb.assemble_constraints(dims, exp=truth_a.po_marginals(), obs=truth_a.xy_marginal())
    obj = pb.collapse_to_objective(pb.build_event_query(dims, {0: 0, 1: 0, 2: 1}), dims)
    lo = pb.solve(pb.LpProblem(obj, cs, "minimize")).value
    hi = pb.solve(pb.LpProblem(obj, cs, "maximize")).value
    for p in random_feasible_points(cs, 50, seed=21):
        v = float(obj @ p)
        assert lo - 1e-7 <= v <= hi + 1e-7
        assert constraint_residual(cs, p) < 1e-8


def test_hit_and_run_respects_support_mask(truth_b):
    dims = truth_b.dims
    assumptions = pb.preset("mite", dims)
    cs = pb.assemble_constraints(dims, exp=truth_b.po_marginals(), assumptions=assumptions)
    mask = pb.indicator_mask(dims, assumptions.terms[0])
    for p in random_feasible_points(cs, 25, seed=5):
        assert float((1.0 - mask) @ p) < 1e-8


def test_hit_and_run_infeasible_errors():
    dims = pb.Dims(2, 2)
    exp = pb.ExperimentalMarginals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cs = pb.assemble_constraints(dims, exp=exp, assumptions=pb.preset("mtr", dims))
    with pytest.raises(ValidationError):
        random_feasible_points(cs, 5, seed=0)


def test_vertices_of_base_simplex():
    dims = pb.Dims(2, 2)
    verts = vertex_enumerate_small(pb.compile_base(dims))
    assert len(verts) == 8
    for v in verts:
        assert np.sum(v) == pytest.approx(1.0)
        assert np.sum(v > 1e-9) == 1


def test_vertices_with_observational_row():
    dims = pb.Dims(2, 2)
    obs = pb.ObservationalJoint(np.array([[0.3, 0.2], [0.1, 0.4]]))
    cs = pb.compile_base(dims).merge(pb.compile_observational(dims, obs))
    verts = vertex_enumerate_small(cs)
    assert 0 < len(verts) < 200
    rng = np.random.default_rng(2)
    for _ in range(5):
        obj = rng.uniform(-1, 1, 8)
        sol = pb.solve(pb.LpProblem(obj, cs, "maximize"))
        best = max(float(v @ obj) for v in verts)
        assert sol.value == pytest.approx(best, abs=1e-9)


def test_vertices_infeasible_system_empty():
    dims = pb.Dims(2, 2)
    exp = pb.ExperimentalMarginals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cs = pb.assemble_constraints(dims, exp=exp, assumptions=pb.preset("mtr", dims))
    assert vertex_enumerate_small(cs) == []


def test_vertices_size_guard(dims33):
    with pytest.raises(SizeError):
        vertex_enumerate_small(pb.compile_base(dims33))
