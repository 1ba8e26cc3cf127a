"""The systems ``simplex._solve`` walks, innermost first: the q-form of
factored exogeneity rows, the presolve of the full rows when it reduces
them, then every row.  Each is built only once the one before it has given
way, so the presolve and the dense exogeneity block run only for the full
LP."""

import pytest

import pobounds as pb
from conftest import bounding_truth
from pobounds import bounds, compile, simplex
from test_presolve import infeasible_systems
from test_qform import forged_lift, query, tables


def exogenous(monkeypatch):
    dims = pb.Dims(3, 3)
    exp, obs = tables(3, 3, 15)
    return dims, dict(exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())


def failed_q_form(monkeypatch):
    # a lifted witness off its rows: the q-form gives way to the full LP
    monkeypatch.setattr(simplex._Couplings, "lift", forged_lift)
    return exogenous(monkeypatch)


def mtr(monkeypatch):
    truth = bounding_truth()
    dims = truth.dims
    return dims, dict(exp=truth.po_marginals(), obs=truth.xy_marginal(), assumptions=pb.preset("mtr", dims))


def infeasible(name):
    dims, exp, assumptions, _ = infeasible_systems()[name]
    return lambda monkeypatch: (dims, dict(exp=exp, assumptions=assumptions))


def kind(system):
    if isinstance(system, simplex._Couplings):
        return "couplings"
    return "whole" if system.rows.all() and system.keep.all() else "reduced"


CASES = {
    "q-form": (exogenous, ["couplings"], False, False, "ok"),
    "failed-q-form": (failed_q_form, ["couplings", "whole"], True, True, "ok"),
    "exp+obs+mtr": (mtr, ["reduced"], True, False, "ok"),
    "mtr-swapped-2x2": (infeasible("mtr-swapped-2x2"), ["reduced", "whole"], True, False, "infeasible"),
    "mtr-falling-3x3": (infeasible("mtr-falling-3x3"), ["reduced", "whole"], True, False, "infeasible"),
    "emptied-data-row": (infeasible("emptied-data-row"), ["whole"], True, False, "infeasible"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_level_is_built_and_solved_only_once_the_one_before_gives_way(case, monkeypatch):
    inputs, systems, presolved, compiled, status = CASES[case]
    dims, args = inputs(monkeypatch)
    seen, ran = [], set()
    honest_two_phase, honest_presolve, honest_block = simplex._two_phase, simplex._presolve, compile.compile_exogeneity

    def two_phase(system, objectives, start=None):
        seen.append(kind(system))
        return honest_two_phase(system, objectives, start)

    def spy(name, honest):
        def call(*a):
            ran.add(name)
            return honest(*a)
        return call

    monkeypatch.setattr(simplex, "_two_phase", two_phase)
    monkeypatch.setattr(simplex, "_presolve", spy("presolve", honest_presolve))
    monkeypatch.setattr(compile, "compile_exogeneity", spy("exogeneity", honest_block))
    res = pb.bound(dims, query(dims, "event"), **args)
    assert res.status == status
    assert seen == systems
    assert ("presolve" in ran, "exogeneity" in ran) == (presolved, compiled)


@pytest.mark.parametrize("case, rules", [
    ("q-form", [("couplings", False, False, False, (pb.SolverFailureError,)), ("whole", True, True, True, ())]),
    ("exp+obs+mtr", [("reduced", True, True, False, ()), ("whole", False, True, True, ())]),
    ("emptied-data-row", [("whole", True, True, True, ())]),
])
def test_only_the_first_dense_level_starts_from_warm_bases_and_either_replaces_them(case, rules, monkeypatch):
    # per level: its system, whether it starts from the warm bases, whether
    # it keeps its own there, whether it is the last, and the errors it
    # gives way on
    dims, args = CASES[case][0](monkeypatch)
    rows = bounds._system(dims, args.get("exp"), args.get("obs"), args["assumptions"], None)
    c = pb.collapse_to_objective(query(dims, "event"), dims)
    warm = simplex._WarmStart()
    levels = list(simplex._levels(rows, [(c, "minimize"), (c, "maximize")], warm))
    assert [(kind(level.system), level.resume is warm, level.keep is warm, level.last, level.failures)
            for level in levels] == rules


def test_a_feasible_whole_solve_after_an_infeasible_reduced_phase_1_keeps_its_bases(monkeypatch):
    # the presolve keeps the feasible set, so only a phase 1 that ends on
    # either side of its tolerance on the two systems comes here: forged
    dims, args = mtr(monkeypatch)
    rows = bounds._system(dims, args["exp"], args["obs"], args["assumptions"], None)
    c = pb.collapse_to_objective(query(dims, "event"), dims)
    honest = simplex._two_phase

    def two_phase(system, objectives, start=None):
        if kind(system) == "reduced":
            return simplex.LpSolution("infeasible", None, None, 0), [], None
        return honest(system, objectives, start)

    monkeypatch.setattr(simplex, "_two_phase", two_phase)
    warm = simplex._WarmStart()
    phase1, solutions = simplex._solve(rows, [(c, "minimize"), (c, "maximize")], warm)
    assert phase1.status == "feasible" and [sol.status for sol in solutions] == ["optimal", "optimal"]
    assert warm.constraints is rows and kind(warm.system) == "whole" and len(warm.bases.tableaux) == 2
