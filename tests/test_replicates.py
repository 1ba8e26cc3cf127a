"""Replicate loops compile their structure once and move only ``rhs``: every
replicate must still equal an independent solve of its own full rows, and a
stored tableau that drifted must not pass a basis off as optimal."""

import numpy as np
import pytest

import pobounds as pb
from pobounds import bounds, simplex
from pobounds.model import cell_grid

from oracles import reference_rows

REPLICATES = 16


def near_boundary_truth(dims, seed):
    """A full joint with nondecreasing outcome vectors almost surely, 80% of
    its mass on constant ones: sampled arm marginals sometimes cross, so some
    replicates contradict ``prob_mtr(0.95, 1)`` and are excluded."""
    rng = np.random.default_rng(seed)
    Y, X = cell_grid(dims)
    vec = np.ravel_multi_index(tuple(Y), (dims.d_y,) * dims.d_x)
    monotone = np.unique(vec[(np.diff(Y, axis=0) >= 0).all(axis=0)])
    constant = np.unique(vec[(Y == Y[0]).all(axis=0)])
    py = np.zeros(dims.d_y**dims.d_x)
    py[monotone] = 0.2 * rng.dirichlet(np.ones(monotone.size))
    py[constant] += 0.8 * rng.dirichlet(np.ones(constant.size))
    return joint(dims, py, rng.dirichlet(np.full(dims.d_x, 4.0), py.size))


def exogenous_truth(dims, seed):
    rng = np.random.default_rng(seed)
    py = rng.dirichlet(np.ones(dims.d_y**dims.d_x))
    return joint(dims, py, np.tile(rng.dirichlet(np.full(dims.d_x, 4.0)), (py.size, 1)))


def joint(dims, py, px_given_y):
    Y, X = cell_grid(dims)
    p = (py[:, None] * px_given_y).reshape(-1)
    entries = {}
    for i in np.flatnonzero(p):
        y_vec = tuple(int(v) for v in Y[:, i])
        entries[(y_vec, int(X[i]), y_vec[X[i]])] = float(p[i])
    return pb.SparseJointPO(dims, entries, "full")


def monotone_mass(truth):
    Y, _ = cell_grid(truth.dims)
    return float(truth.param_vector()[(np.diff(Y, axis=0) >= 0).all(axis=0)].sum())


def case(name):
    """dims, truth, assumptions, query and the data the replicates draw."""
    if name == "3x3-exp+obs+prob_mtr":
        dims = pb.Dims(3, 3)
        truth = near_boundary_truth(dims, 4)
        return dims, truth, pb.preset("prob_mtr(0.95,1.0)", dims), pb.build_event_query(dims, {0: 0, 1: 1}), "both"
    dims = pb.Dims(4, 3)
    truth = exogenous_truth(dims, 5)
    m = monotone_mass(truth)
    assumptions = pb.preset(f"prob_mtr({max(0.0, m - 0.05):.6f},{min(1.0, m + 0.05):.6f})", dims).with_exogeneity()
    return dims, truth, assumptions, pb.build_event_query(dims, {0: 0, 3: {"ge": 1}}), "obs"


@pytest.fixture
def recorder(monkeypatch):
    """Each replicate's tables and result."""
    log = []
    honest = bounds._bound

    def bound(dims, query, exp, obs, assumptions, slack, loop=None):
        log.append({"tables": (exp, obs), "result": None})
        log[-1]["result"] = honest(dims, query, exp, obs, assumptions, slack, loop)
        return log[-1]["result"]

    monkeypatch.setattr(bounds, "_bound", bound)
    return log


def highs_bounds(optimize, dims, query, exp, obs, assumptions):
    """HiGHS on the full rows of the per-cell reference compile: the
    endpoints, or None when infeasible."""
    A, rhs, kind, _ = reference_rows(dims, exp=exp, obs=obs, assumptions=assumptions)
    obj = pb.collapse_to_objective(query, dims)
    eq, le = np.array(kind) == "eq", np.array(kind) == "le"
    out = []
    for sign in (1.0, -1.0):
        ref = optimize.linprog(sign * obj, A_ub=A[le], b_ub=rhs[le], A_eq=A[eq], b_eq=rhs[eq],
                               bounds=(0, None), method="highs")
        if ref.status == 2:
            return None
        assert ref.status == 0, ref.message
        out.append(sign * ref.fun)
    return out


@pytest.mark.parametrize("call", ["bootstrap", "simulation_study"])
@pytest.mark.parametrize("name", ["3x3-exp+obs+prob_mtr", "4x3-obs+exogeneity+prob_mtr"])
def test_every_replicate_matches_highs(call, name, recorder):
    optimize = pytest.importorskip("scipy.optimize")
    dims, truth, assumptions, query, data = case(name)
    n, seed = 500, 33
    if call == "bootstrap":
        exp_sample = pb.sample_from_truth(truth, n, seed, "experimental") if data == "both" else None
        obs_sample = pb.sample_from_truth(truth, n, seed + 1, "observational")
        summary = pb.bootstrap(dims, query, REPLICATES, seed, exp_sample=exp_sample, obs_sample=obs_sample,
                               assumptions=assumptions)
    else:
        summary = pb.simulation_study(truth, n, REPLICATES, seed, query, data_kind=data, assumptions=assumptions)
    assert len(recorder) == REPLICATES
    used = 0
    for i, entry in enumerate(recorder):
        want = highs_bounds(optimize, dims, query, *entry["tables"], assumptions)
        res = entry["result"]
        assert (want is None) == (res.status == "infeasible"), i
        if want is not None:
            used += 1
            assert abs(res.lower - want[0]) <= 1e-9 and abs(res.upper - want[1]) <= 1e-9, i
    assert (summary.used, summary.excluded) == (used, REPLICATES - used)
    if name.startswith("3x3"):
        assert 0 < summary.excluded < REPLICATES  # the case does sit near the boundary


def test_a_drifted_tableau_is_refused_by_the_fresh_dual_check(truth_a, monkeypatch):
    # the stored minimizing tableau drifts onto the maximizing basis, with a
    # body whose nonbasic columns are zero: priced out on that body, the
    # basis looks optimal for the minimum, so only reduced costs solved
    # afresh from the original columns can refuse it
    dims = truth_a.dims
    exp, obs = truth_a.po_marginals(), truth_a.xy_marginal()
    assumptions = pb.preset("prob_mtr(0.5,1.0)", dims)
    query = pb.build_event_query(dims, {0: 0, 2: 1})
    warm = simplex._WarmStart()
    cold = bounds._bound(dims, query, exp, obs, assumptions, None, warm)
    assert cold.status == "ok" and cold.upper - cold.lower > 0.1

    _, highest = warm.bases.tableaux
    forged = highest.copy()
    forged.T[:-1, np.setdiff1d(np.arange(forged.T.shape[1] - 1), forged.basis)] = 0.0
    costs = pb.collapse_to_objective(query, dims)[warm.system.keep]
    priced = forged.copy()
    priced.set_costs(costs)
    assert not (priced.T[-1, :-1] < -simplex.PIVOT_TOL).any()
    warm.bases = simplex._Bases(warm.bases.rows, (forged, highest))

    served = []
    honest = simplex._WarmStart.resolve

    def resolve(self, *args):
        solved = honest(self, *args)
        served.append(solved is not None)
        return solved

    monkeypatch.setattr(simplex._WarmStart, "resolve", resolve)
    again = bounds._bound(dims, query, exp, obs, assumptions, None, warm)
    assert served == [False]
    assert abs(again.lower - cold.lower) <= 1e-9 and abs(again.upper - cold.upper) <= 1e-9
    # the cold solve stored fresh tableaux, which serve the next replicate
    assert bounds._bound(dims, query, exp, obs, assumptions, None, warm).lower == pytest.approx(cold.lower, abs=1e-9)
    assert served == [False, True]
