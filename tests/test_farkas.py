"""A warm replicate whose dual simplex repair finds no entering column is
excluded on the Farkas ray of the blocked row, solved afresh and checked on
the replicate's original rows, without a cold solve; a ray that fails the
check sends the replicate to the cold two phases."""

import numpy as np
import pytest

import pobounds as pb
from pobounds import bounds, simplex
from pobounds.compile import ConstraintSet

from test_replicates import case, highs_bounds

N, SEED, REPLICATES = 500, 33, 16


def run(call, name="3x3-exp+obs+prob_mtr", query=None):
    dims, truth, assumptions, default, data = case(name)
    query = default if query is None else query
    if call == "bootstrap":
        exp_sample = pb.sample_from_truth(truth, N, SEED, "experimental") if data == "both" else None
        obs_sample = pb.sample_from_truth(truth, N, SEED + 1, "observational")
        return pb.bootstrap(dims, query, REPLICATES, SEED, exp_sample=exp_sample, obs_sample=obs_sample,
                            assumptions=assumptions)
    return pb.simulation_study(truth, N, REPLICATES, SEED, query, data_kind=data, assumptions=assumptions)


@pytest.fixture
def recorder(monkeypatch):
    """Each replicate's tables, result and cold two-phase solves."""
    log = []
    honest_bound, honest_two_phase = bounds._bound, simplex._two_phase

    def two_phase(*args):
        log[-1]["cold"] += 1
        return honest_two_phase(*args)

    def bound(dims, query, exp, obs, assumptions, slack, loop=None):
        log.append({"tables": (exp, obs), "cold": 0})
        log[-1]["result"] = honest_bound(dims, query, exp, obs, assumptions, slack, loop)
        return log[-1]["result"]

    monkeypatch.setattr(simplex, "_two_phase", two_phase)
    monkeypatch.setattr(bounds, "_bound", bound)
    return log


def cold(entry, query=None, name="3x3-exp+obs+prob_mtr"):
    dims, _, assumptions, default, _ = case(name)
    exp, obs = entry["tables"]
    return pb.bound(dims, default if query is None else query, exp=exp, obs=obs, assumptions=assumptions)


def same_as_cold(entry, query=None):
    res, want = entry["result"], cold(entry, query)
    assert res.status == want.status
    if want.status == "ok":
        assert abs(res.lower - want.lower) <= 1e-9 and abs(res.upper - want.upper) <= 1e-9


@pytest.mark.parametrize("call", ["bootstrap", "simulation_study"])
def test_infeasible_replicates_are_excluded_without_a_cold_solve(call, recorder):
    summary = run(call)
    log = list(recorder)  # the cold replays below are recorded too
    assert len(log) == REPLICATES and summary.excluded > 0
    # only the first replicate, which has no stored basis, solves cold
    assert [entry["cold"] for entry in log] == [1] + [0] * (REPLICATES - 1)
    for entry in log:
        same_as_cold(entry)
        if entry["result"].status == "infeasible":
            assert entry["result"].diagnostics  # the tags of the ray's rows


@pytest.mark.parametrize("call", ["bootstrap", "simulation_study"])
def test_warm_exclusions_match_highs(call, recorder):
    optimize = pytest.importorskip("scipy.optimize")
    dims, _, assumptions, query, _ = case("3x3-exp+obs+prob_mtr")
    summary = run(call)
    want = [highs_bounds(optimize, dims, query, *entry["tables"], assumptions) for entry in recorder]
    assert (summary.used, summary.excluded) == (sum(w is not None for w in want), sum(w is None for w in want))


@pytest.mark.parametrize("call", ["bootstrap", "simulation_study"])
def test_a_blocked_row_whose_ray_fails_the_check_is_solved_cold(call, recorder, monkeypatch):
    # every repair that must pivot claims to be blocked at the row of its
    # largest basic value, whose ray y has yᵀrhs > 0 and proves nothing
    honest = run(call)
    recorder.clear()
    verdicts, blocked = [], set()
    honest_farkas = simplex._farkas

    def repair(self, limit):
        blocked.add(len(recorder) - 1)
        return False, int(np.argmax(self.T[:-1, -1]))

    def farkas(*args):
        verdicts.append(honest_farkas(*args))
        return verdicts[-1]

    monkeypatch.setattr(simplex._Tableau, "repair", repair)
    monkeypatch.setattr(simplex, "_farkas", farkas)
    forged = run(call)
    log = list(recorder)
    assert verdicts and all(v is None for v in verdicts)
    assert (forged.used, forged.excluded) == (honest.used, honest.excluded)
    # a blocked replicate whose ray was not checked had a feasible minimize basis
    assert {i for i, entry in enumerate(log) if entry["cold"] > 0} == {0} | blocked
    assert 0 < len(verdicts) <= len(blocked)
    for entry in log:
        same_as_cold(entry)


@pytest.mark.parametrize("call", ["bootstrap", "simulation_study"])
def test_a_posterior_loop_reprices_every_stored_basis(call, recorder, monkeypatch):
    # the divisor P(X=2, Y=0) moves with the tables, so the objective is
    # rebound on every replicate: a stored pricing is reused only for the
    # same basis and equal costs, and re-priced otherwise
    dims = pb.Dims(3, 3)
    query = pb.build_posterior_effect_query(dims, (2, 0), (2, 0))
    calls = []
    honest_priced = simplex._priced

    def priced(columns, tab, costs):
        before = tab.priced
        out = honest_priced(columns, tab, costs)
        same = before is not None and before.basis == tuple(tab.basis) and np.array_equal(before.costs, costs)
        calls.append((before is not None and before.basis == tuple(tab.basis), same, out is before))
        return out

    monkeypatch.setattr(simplex, "_priced", priced)
    run(call, query=query)
    log = list(recorder)
    assert all(reused == same for _, same, reused in calls)
    assert sum(stored and not same for stored, same, _ in calls) >= REPLICATES  # stored bases re-priced
    assert sum(entry["cold"] == 0 for entry in log) >= REPLICATES // 2  # served warm
    for entry in log:
        same_as_cold(entry, query)


@pytest.mark.parametrize("call", ["bootstrap", "simulation_study"])
def test_a_blocked_row_after_a_feasible_basis_is_solved_cold(call, recorder, monkeypatch):
    # the maximize repair claims to be blocked after the minimize basis of
    # the same rows reached primal feasibility: no ray is checked, and the
    # replicate is solved cold
    honest = run(call)
    recorder.clear()
    honest_resolve, honest_farkas = simplex._WarmStart.resolve, simplex._farkas
    honest_copy, honest_repair = simplex._Tableau.copy, simplex._Tableau.repair
    stored, forged, rays = [], [], []

    def resolve(self, *args):
        stored[:] = self.bases.tableaux if self.bases is not None else ()
        return honest_resolve(self, *args)

    def copy(self):
        tab = honest_copy(self)
        tab.source = self
        return tab

    def repair(self, limit):
        feasible, blocked = honest_repair(self, limit)
        if feasible and len(stored) == 2 and getattr(self, "source", None) is stored[1]:
            forged.append(len(recorder) - 1)
            return False, 0
        return feasible, blocked

    monkeypatch.setattr(simplex._WarmStart, "resolve", resolve)
    monkeypatch.setattr(simplex._Tableau, "copy", copy)
    monkeypatch.setattr(simplex._Tableau, "repair", repair)
    def farkas(*args):
        rays.append(len(recorder) - 1)
        return honest_farkas(*args)

    monkeypatch.setattr(simplex, "_farkas", farkas)
    result = run(call)
    log = list(recorder)
    assert forged and not set(forged) & set(rays)
    assert (result.used, result.excluded) == (honest.used, honest.excluded)
    assert all(log[i]["cold"] == 1 for i in forged)
    for entry in log:
        same_as_cold(entry)


def tiny(rows, rhs, kind, provenance):
    """A system over the 8 cells of a 2x2 model: the base row and ``rows``,
    each a list of (cell, coefficient)."""
    A = np.zeros((1 + len(rows), 8))
    A[0] = 1.0
    for i, row in enumerate(rows, start=1):
        for cell, coefficient in row:
            A[i, cell] = coefficient
    return ConstraintSet(pb.Dims(2, 2), A, [1.0, *rhs], ["eq", *kind], ["base-sum", *provenance])


def ray_on_every_row(cs, ray):
    """:func:`simplex._farkas` of ``ray`` over every row of ``cs``, none presolved away."""
    return simplex._farkas(cs, simplex._Rows.whole(cs), np.array(ray))


def test_the_ray_check_on_the_original_rows():
    # sum(p) = 1 and sum(p) >= 1.5 contradict each other: y = (1, 1) proves it
    cs = tiny([[(j, -1.0) for j in range(8)]], [-1.5], ["le"], ["monotone(0,lower)"])
    assert ray_on_every_row(cs, [1.0, 1.0]) == ("base-sum", "monotone(0,lower)")
    assert ray_on_every_row(cs, [3e5, 3e5]) == ("base-sum", "monotone(0,lower)")
    # on the simplex the le row alone is infeasible: the base row's
    # multiplier lifts y = (0, 1) to (1, 1), and the tags name it
    assert ray_on_every_row(cs, [0.0, 1.0]) == ("base-sum", "monotone(0,lower)")
    for ray in ([-1.0, -1.0], [1.0, 0.0], [0.0, 0.0], [np.nan, 1.0]):
        assert ray_on_every_row(cs, ray) is None, ray
    upper = tiny([[(j, 1.0) for j in range(8)]], [0.5], ["le"], ["monotone(0,upper)"])
    assert ray_on_every_row(upper, [-1.0, 1.0]) == ("base-sum", "monotone(0,upper)")
    # sum(p) = 1 and p_0 <= 2 are feasible: y = (1, -1) passes every column
    # of A and has yᵀrhs = -1, but an le row takes no negative multiplier
    loose = tiny([[(0, 1.0)]], [2.0], ["le"], ["monotone(0,upper)"])
    assert ray_on_every_row(loose, [1.0, -1.0]) is None


def test_the_ray_check_leaves_the_tolerance_to_a_feasible_point():
    # sum(p) >= 1 + t: infeasible on the simplex for every t > 0, but a
    # cold phase 1 accepts a residue of 1e-9, so only t >= FEAS_TOL is proved
    for t, proved in ((1e-9, False), (5e-9, False), (2e-8, True)):
        cs = tiny([[(j, -1.0) for j in range(8)]], [-(1.0 + t)], ["le"], ["monotone(0,lower)"])
        assert (ray_on_every_row(cs, [0.0, 1.0]) is not None) == proved, t
        assert (ray_on_every_row(cs, [1.0, 1.0]) is not None) == proved, t
    # without a base row p is not bounded, and only yᵀA >= 0 proves anything
    free = ConstraintSet(pb.Dims(2, 2), -np.ones((1, 8)), [-1.5], ["le"], ["monotone(0,lower)"])
    assert ray_on_every_row(free, [1.0]) is None
    both = ConstraintSet(pb.Dims(2, 2), np.vstack([-np.ones(8), np.ones(8)]), [-1.5, 1.0], ["le", "le"],
                         ["monotone(0,lower)", "monotone(0,upper)"])
    assert ray_on_every_row(both, [1.0, 1.0]) == ("monotone(0,lower)", "monotone(0,upper)")


def test_a_reduced_ray_that_leans_on_a_dropped_column_proves_nothing():
    # the le row forces cells 4..7 to zero; over cells 0..3 the data row
    # contradicts the base row, but the ray (1, -1) of the reduced rows has
    # yᵀA = 1 - 2 < 0 on the dropped cell 4: only a multiplier on the
    # dropped forcing row makes the ray valid on the original rows
    cs = tiny([[(j, 1.0) for j in range(4, 8)], [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 2.0)]],
              [0.0, 1.5], ["le", "eq"], ["monotone(0,upper)", "experimental(0,0)"])
    reduced = simplex._presolve(cs)
    assert reduced.A is not cs.A and reduced.keep.tolist() == [True] * 4 + [False] * 4
    assert reduced.provenance == ("base-sum", "experimental(0,0)")
    assert simplex._farkas(cs, reduced, np.array([1.0, -1.0])) is None
    assert ray_on_every_row(cs, [1.0, 3.0, -1.0]) == ("base-sum", "monotone(0,upper)", "experimental(0,0)")
