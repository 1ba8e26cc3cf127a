import re

import numpy as np
import pytest

import pobounds as pb
from pobounds import simplex
from pobounds.bounds import constraint_residual
from pobounds.compile import ConstraintSet

from oracles import vertex_enumerate_small


def test_max_single_coordinate():
    dims = pb.Dims(2, 2)
    cs = pb.compile_base(dims)
    obj = np.zeros(8)
    obj[0] = 1.0
    sol = pb.solve(pb.LpProblem(obj, cs, "maximize"))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sol.witness, np.eye(8)[0], atol=1e-12)


def test_contradictory_rows_infeasible():
    dims = pb.Dims(2, 2)
    cap = ConstraintSet(dims, np.ones((1, 8)), [0.5], ["le"], ["monotone(0,upper)"])
    sol = pb.solve(pb.LpProblem(np.ones(8), pb.compile_base(dims).merge(cap), "maximize"))
    assert sol.status == "infeasible"
    assert set(sol.certificate) == {"base-sum", "monotone(0,upper)"}


def test_golden_upper_bound(truth_a):
    dims = truth_a.dims
    cs = pb.assemble_constraints(dims, exp=truth_a.po_marginals(), obs=truth_a.xy_marginal())
    obj = pb.collapse_to_objective(pb.build_event_query(dims, {0: 0, 1: 0, 2: 1}), dims)
    sol = pb.solve(pb.LpProblem(obj, cs, "maximize"))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.275, abs=0.01)


def test_check_feasible_base():
    assert pb.check_feasible(pb.compile_base(pb.Dims(2, 2))).status == "feasible"


def test_infeasible_ordering_names_monotone_row():
    # degenerate marginals force Y_0 = 1 a.s. and Y_1 = 0 a.s.; a sure
    # ordering Y_0 <= Y_1 cannot hold
    dims = pb.Dims(2, 2)
    exp = pb.ExperimentalMarginals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cs = pb.assemble_constraints(dims, exp=exp, assumptions=pb.preset("mtr", dims))
    sol = pb.check_feasible(cs)
    assert sol.status == "infeasible"
    assert any(tag.startswith("monotone") for tag in sol.certificate)


def test_unit_increment_system_feasible_on_compatible_data(truth_b):
    dims = truth_b.dims
    cs = pb.assemble_constraints(
        dims,
        exp=truth_b.po_marginals(),
        obs=truth_b.xy_marginal(),
        assumptions=pb.preset("mite", dims).with_exogeneity(),
    )
    assert pb.check_feasible(cs).status == "feasible"


def test_min_max_duality_flip(truth_a):
    dims = truth_a.dims
    cs = pb.assemble_constraints(dims, obs=truth_a.xy_marginal())
    obj = pb.collapse_to_objective(pb.build_moment_query(dims, 2, (1, 0)), dims)
    hi = pb.solve(pb.LpProblem(obj, cs, "maximize"))
    lo_flipped = pb.solve(pb.LpProblem(-obj, cs, "minimize"))
    assert hi.value == pytest.approx(-lo_flipped.value, abs=1e-8)


def test_witness_feasibility(truth_a):
    dims = truth_a.dims
    cs = pb.assemble_constraints(
        dims, exp=truth_a.po_marginals(), obs=truth_a.xy_marginal(), assumptions=pb.preset("mtr", dims)
    )
    query = pb.build_event_query(dims, {0: 0, 1: 0, 2: 1})
    obj = pb.collapse_to_objective(query, dims)
    res = pb.bound(
        dims, query, exp=truth_a.po_marginals(), obs=truth_a.xy_marginal(), assumptions=pb.preset("mtr", dims)
    )
    endpoints = {"minimize": (res.lower, res.lower_witness), "maximize": (res.upper, res.upper_witness)}
    for sense in ("minimize", "maximize"):
        sol = pb.solve(pb.LpProblem(obj, cs, sense))
        assert sol.status == "optimal"
        assert constraint_residual(cs, sol.witness) < 1e-8
        assert float(obj @ sol.witness) == pytest.approx(sol.value, abs=1e-8)
        # bound() shares one phase 1 between both senses; the result must not move
        value, witness = endpoints[sense]
        assert value == sol.value
        assert np.array_equal(witness, sol.witness)


@pytest.mark.parametrize("call, what", [(0, "phase-1 point"), (1, "maximize witness")])
def test_perturbed_witness_is_refused(truth_a, monkeypatch, call, what):
    dims = truth_a.dims
    cs = pb.assemble_constraints(dims, exp=truth_a.po_marginals(), obs=truth_a.xy_marginal())
    obj = pb.collapse_to_objective(pb.build_event_query(dims, {0: 0, 1: 0, 2: 1}), dims)
    honest = simplex._Tableau.solution_vector
    calls = []

    def perturbed(tab):
        x = honest(tab)
        if len(calls) == call:
            x[0] += 1e-6
        calls.append(call)
        return x

    monkeypatch.setattr(simplex._Tableau, "solution_vector", perturbed)
    with pytest.raises(pb.SolverFailureError) as info:
        pb.solve(pb.LpProblem(obj, cs, "maximize"))
    found = re.fullmatch(rf"{what} violates row (\S+) by 1e-06 \(tolerance 1e-08\)", str(info.value))
    assert found, str(info.value)
    assert cs.A[cs.provenance.index(found.group(1)), 0] != 0.0


def test_determinism(truth_a):
    dims = truth_a.dims
    cs = pb.assemble_constraints(dims, exp=truth_a.po_marginals())
    obj = pb.collapse_to_objective(pb.build_moment_query(dims, 2, (1, 0)), dims)
    a = pb.solve(pb.LpProblem(obj, cs, "maximize"))
    b = pb.solve(pb.LpProblem(obj, cs, "maximize"))
    assert a.iterations == b.iterations
    assert np.array_equal(a.witness, b.witness)
    assert a.value == b.value


def test_redundant_rows_are_tolerated():
    # duplicate equality rows must not break phase 2
    dims = pb.Dims(2, 2)
    exp = pb.ExperimentalMarginals(np.array([[0.5, 0.5], [0.25, 0.75]]))
    rows = pb.compile_experimental(dims, exp)
    cs = pb.compile_base(dims).merge(rows, rows)
    obj = np.zeros(8)
    obj[3] = 1.0
    sol = pb.solve(pb.LpProblem(obj, cs, "maximize"))
    assert sol.status == "optimal"
    assert constraint_residual(cs, sol.witness) < 1e-8


def test_random_small_instances_match_vertex_enumeration():
    from conftest import random_small_instance

    rng = np.random.default_rng(11)
    for _ in range(40):
        cs, obj, _p = random_small_instance(rng)
        verts = vertex_enumerate_small(cs)
        assert verts, "witness construction guarantees feasibility"
        sol = pb.solve(pb.LpProblem(obj, cs, "maximize"))
        assert sol.status == "optimal"
        best = max(float(v @ obj) for v in verts)
        assert sol.value == pytest.approx(best, abs=1e-9)


def test_infeasible_instances_agree_with_enumeration():
    # deliberately conflicting probability windows: simplex and enumeration
    # must both call the system empty
    rng = np.random.default_rng(12)
    dims = pb.Dims(2, 2)
    disagreements = 0
    for _ in range(20):
        lo, hi = np.sort(rng.uniform(0, 1, 2))
        term = pb.MonotoneTerm.from_pairs(2, {(1, 0): (0.0, np.inf)}, float(lo), float(hi))
        obs = pb.ObservationalJoint(rng.dirichlet(np.ones(4)).reshape(2, 2))
        cs = pb.assemble_constraints(dims, obs=obs, assumptions=pb.AssumptionSet((term,)))
        verts = vertex_enumerate_small(cs)
        sol = pb.solve(pb.LpProblem(rng.uniform(-1, 1, 8), cs, "maximize"))
        if bool(verts) != (sol.status == "optimal"):
            disagreements += 1
    assert disagreements == 0


def test_problem_shape_validation():
    dims = pb.Dims(2, 2)
    with pytest.raises(pb.ValidationError):
        pb.LpProblem(np.ones(5), pb.compile_base(dims), "maximize")
    with pytest.raises(pb.ValidationError):
        pb.LpProblem(np.ones(8), pb.compile_base(dims), "upward")
