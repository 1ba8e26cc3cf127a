"""Warm-started replicates: each bootstrap or simulation replicate starts from
the optimal bases of the replicate before it and repairs them with dual
simplex pivots.  Every replicate's endpoints must equal a cold ``bound()`` on
the same tables, the exclusions must be the cold ones, and only replicates the
warm start cannot serve may run phase 1."""

import dataclasses
import json

import numpy as np
import pytest

import pobounds as pb
from pobounds import bounds, compile, simplex
from pobounds.model import cell_grid

from test_farkas import tiny

DIMS = pb.Dims(3, 3)
N = 300
REPLICATES = 12


def truth(exogenous, seed):
    """A full joint whose outcome vectors are nondecreasing with probability
    0.9, with treatment independent of them when ``exogenous``."""
    rng = np.random.default_rng(seed)
    Y, X = cell_grid(DIMS)
    vec = np.ravel_multi_index(tuple(Y), (DIMS.d_y,) * DIMS.d_x)
    monotone = (np.diff(Y, axis=0) >= 0).all(axis=0)
    py = np.zeros(DIMS.d_y**DIMS.d_x)
    py[np.unique(vec[monotone])] = 0.9 * rng.dirichlet(np.ones(np.unique(vec[monotone]).size))
    py[np.unique(vec[~monotone])] = 0.1 * rng.dirichlet(np.ones(np.unique(vec[~monotone]).size))
    if exogenous:
        w = np.tile(rng.dirichlet(np.ones(DIMS.d_x)), (py.size, 1))
    else:
        w = rng.dirichlet(np.full(DIMS.d_x, 4.0), py.size)
    p = (py[:, None] * w).reshape(-1)
    entries = {}
    for i in np.flatnonzero(p):
        y_vec = tuple(int(v) for v in Y[:, i])
        entries[(y_vec, int(X[i]), y_vec[X[i]])] = float(p[i])
    return pb.SparseJointPO(DIMS, entries, "full")


CASES = {
    # name: (assumptions, query, slack, exogenous)
    "exp+obs+prob_mtr": (pb.preset("prob_mtr(0.9,1.0)", DIMS), pb.build_event_query(DIMS, {0: 0, 1: 1}), None, False),
    "exp+obs+mtr": (pb.preset("mtr", DIMS), pb.build_moment_query(DIMS, 2, (2, 0)), None, False),
    "slack": (pb.preset("mtr", DIMS), pb.build_event_query(DIMS, {0: 0, 2: {"ge": 1}}), 0.02, False),
    "posterior_effect": (pb.preset("prob_mtr(0.5,1.0)", DIMS), pb.build_posterior_effect_query(DIMS, (2, 0), (1, 1)),
                         None, False),
    "obs+exogeneity+prob_mtr": (pb.preset("prob_mtr(0.5,1.0)", DIMS).with_exogeneity(),
                                pb.build_event_query(DIMS, {0: 0, 1: 1}), None, True),
    # no monotone term: each replicate compiles its own structure, solved in its q-form
    "obs+exogeneity": (pb.AssumptionSet().with_exogeneity(), pb.build_event_query(DIMS, {0: 0, 1: 1}), None, True),
}


def run(call, name, seed):
    assumptions, query, slack, exogenous = CASES[name]
    joint = truth(exogenous, seed)
    if call == "bootstrap":
        exp_sample = None if exogenous else pb.sample_from_truth(joint, N, seed, "experimental")
        obs_sample = pb.sample_from_truth(joint, N, seed + 1, "observational")
        return pb.bootstrap(DIMS, query, REPLICATES, seed, exp_sample=exp_sample, obs_sample=obs_sample,
                            assumptions=assumptions, slack=slack)
    return pb.simulation_study(joint, N, REPLICATES, seed, query, data_kind="obs" if exogenous else "both",
                               assumptions=assumptions, slack=slack)


@pytest.fixture
def recorder(monkeypatch):
    """Each replicate's tables, result, warm outcome and phase-1 count."""
    log = []
    phase1_runs = [0]
    honest_bound, honest_resolve, honest_phase1 = bounds._bound, simplex._WarmStart.resolve, simplex._Tableau.phase1

    def phase1(self):
        phase1_runs[0] += 1
        return honest_phase1(self)

    def resolve(self, *args):
        solved = honest_resolve(self, *args)
        log[-1]["warm"] = solved is not None
        return solved

    def bound(dims, query, exp, obs, assumptions, slack, warm=None):
        entry = {"tables": (exp, obs), "warm": False, "result": None}
        log.append(entry)
        before = phase1_runs[0]
        try:
            entry["result"] = honest_bound(dims, query, exp, obs, assumptions, slack, warm)
            return entry["result"]
        finally:
            entry["phase1"] = phase1_runs[0] - before

    monkeypatch.setattr(simplex._Tableau, "phase1", phase1)
    monkeypatch.setattr(simplex._WarmStart, "resolve", resolve)
    monkeypatch.setattr(bounds, "_bound", bound)
    return log


def cold_replay(name, tables):
    """``bound()`` on one replicate's tables, or None where the replicate is excluded."""
    assumptions, query, slack, _ = CASES[name]
    exp, obs = tables
    try:
        res = pb.bound(DIMS, query, exp=exp, obs=obs, assumptions=assumptions, slack=slack)
    except pb.UndefinedConditionalError:
        return None
    return res if res.status == "ok" else None


@pytest.mark.parametrize("call", ["bootstrap", "simulation_study"])
@pytest.mark.parametrize("name", list(CASES))
def test_warm_replicates_match_cold_bounds(call, name, recorder):
    seed = 20 + list(CASES).index(name)
    summary = run(call, name, seed)
    log = list(recorder)
    assert len(log) == REPLICATES

    used = 0
    for i, entry in enumerate(log):
        cold = cold_replay(name, entry["tables"])
        res = entry["result"]
        assert (cold is None) == (res is None or res.status != "ok"), i
        if cold is not None:
            used += 1
            assert abs(res.lower - cold.lower) <= 1e-9 and abs(res.upper - cold.upper) <= 1e-9, i
        # a replicate runs phase 1 exactly when the warm start did not serve it
        assert (entry["phase1"] > 0) == (not entry["warm"]), i
    assert (summary.used, summary.excluded) == (used, REPLICATES - used)

    warm = sum(entry["warm"] for entry in log)
    assert not log[0]["warm"]
    if CASES[name][3]:
        assert warm == 0  # P(X=l) enters A: every replicate is a new system
    else:
        assert warm >= used - 1 > 0


@pytest.mark.parametrize("call", ["bootstrap", "simulation_study"])
def test_warm_replicates_are_reproducible(call):
    reports = [json.dumps(run(call, "exp+obs+prob_mtr", 7).to_json_dict()) for _ in range(2)]
    assert reports[0] == reports[1]


def test_a_stored_basis_serves_only_its_own_system():
    # same A and kind, other presolve column mask: the key differs
    warm = simplex._WarmStart()
    system = pb.assemble_constraints(DIMS, obs=pb.ObservationalJoint(np.full((3, 3), 1 / 9)))
    objective = pb.collapse_to_objective(pb.build_event_query(DIMS, {0: 0}), DIMS)
    simplex._solve(system, [(objective, "minimize")], warm)
    everything = simplex._Rows.whole(system)
    one_dropped = everything.keep.copy()
    one_dropped[0] = False
    assert warm.fits(system, everything, 1)
    assert not warm.fits(system, dataclasses.replace(everything, keep=one_dropped), 1)
    assert not warm.fits(system, everything, 2)


def test_a_presolve_with_the_same_columns_but_other_rows_is_not_served(monkeypatch):
    # two lower rows over cells 0..3 of a 2x2 model, on one A: whichever is
    # tight forces cells 4..7 to zero and leaves, and the other stays, so
    # the two replicates keep the same columns but other rows
    rows = [[(j, -1.0) for j in range(4)], [(j, -2.0) for j in range(4)], [(0, 1.0), (1, 1.0)]]
    first = tiny(rows, [-1.0, -1.2, 0.4], ["le", "le", "eq"], ["monotone(0,lower)", "monotone(1,lower)", "row(0,1)"])
    second = first.with_rhs([1.0, -0.5, -2.0, 0.4])
    a, b = simplex._presolve(first), simplex._presolve(second)
    assert a.keep.tolist() == b.keep.tolist() == [True] * 4 + [False] * 4
    assert a.rows.tolist() == [True, False, True, True] and b.rows.tolist() == [True, True, False, True]
    objective = np.arange(8.0)
    objectives = [(objective, "minimize"), (objective, "maximize")]
    warm = simplex._WarmStart()
    simplex._solve(first, objectives, warm)
    assert warm.fits(first, simplex._presolve(first.with_rhs(first.rhs)), 2)
    assert not warm.fits(second, b, 2)
    served, honest = [], simplex._WarmStart.resolve

    def resolve(self, *args):
        solved = honest(self, *args)
        served.append(solved is not None)
        return solved

    monkeypatch.setattr(simplex._WarmStart, "resolve", resolve)
    got = simplex._solve(second, objectives, warm)[1]
    assert served == [False]
    want = simplex._solve(second, objectives)[1]
    assert [(s.value, s.witness.tobytes()) for s in got] == [(s.value, s.witness.tobytes()) for s in want]
    assert [s.value for s in got] == pytest.approx([1.2, 2.2], abs=1e-12)


@pytest.mark.parametrize("call", ["bootstrap", "simulation_study"])
def test_a_warm_witness_off_its_certificate_is_solved_cold(call, recorder, monkeypatch):
    # the first vector a warm start serves is moved by 1e-6, which breaks the
    # base-sum row: that replicate must run the cold two phases instead
    honest_lift = simplex._lift
    perturbed = []

    def lift(x, keep):
        full = honest_lift(x, keep)
        if recorder and recorder[-1]["warm"] and not perturbed:
            full[0] += 1e-6
            perturbed.append(len(recorder) - 1)
        return full

    monkeypatch.setattr(simplex, "_lift", lift)
    summary = run(call, "exp+obs+prob_mtr", 20)  # no SolverFailureError escapes
    log = list(recorder)
    assert len(log) == REPLICATES and summary.used + summary.excluded == REPLICATES
    (i,) = perturbed
    assert log[i]["warm"] and log[i]["phase1"] > 0
    res, cold = log[i]["result"], cold_replay("exp+obs+prob_mtr", log[i]["tables"])
    assert res.status == "ok" and cold is not None
    assert abs(res.lower - cold.lower) <= 1e-9 and abs(res.upper - cold.upper) <= 1e-9
    # every other replicate runs phase 1 exactly when the warm start did not serve it
    assert all((entry["phase1"] > 0) == (not entry["warm"]) for j, entry in enumerate(log) if j != i)


@pytest.mark.parametrize("call", ["bootstrap", "simulation_study"])
def test_q_form_replicates_compile_no_exogeneity_block(call, monkeypatch):
    # every replicate of the obs+exogeneity case is solved in its q-form,
    # which certifies on the factored exogeneity rows
    blocks, honest = [], compile.compile_exogeneity

    def block(*args):
        blocks.append(args)
        return honest(*args)

    monkeypatch.setattr(compile, "compile_exogeneity", block)
    summary = run(call, "obs+exogeneity", 30)
    assert summary.used == REPLICATES and blocks == []
