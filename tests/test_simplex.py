import hashlib
import re

import numpy as np
import pytest

import pobounds as pb
from pobounds import simplex
from pobounds.compile import ConstraintSet

from oracles import constraint_residual, rare_arm_tables, tool, vertex_enumerate_small


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
    # the mtr row forces columns to zero, so bound() and solve() both run the presolve
    assert simplex._presolve(cs).A is not cs.A
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


# The pivot path on fixed instances, Dantzig's rule until the first degenerate
# pivot and Bland's after it: (d_x, d_y, mix, query kind, seed) -> phase-1
# pivots, then float.hex and witness SHA-256 of the min and max endpoints.  A
# change of pivot rule changes these on purpose.
PINNED = {
    (3, 3, "exp+obs+exogeneity", "event", 0): (
        42,
        ("0x0.0p+0", "4623a771bf8a677afd3e170ee58a1c439c2ffe0c2a0963914eae7f10c20c21d0"),
        ("0x1.07bf7eac335aep-2", "d0658c4b505a81ae4ee64fa94f96b12f0845c2a078bcf11da23ab2570bad9f5c"),
    ),
    (4, 3, "obs+exogeneity+prob_mtr", "moment", 1): (
        132,
        ("0x1.172deba95569ap-3", "a7a089a00493f4aedb9ada7bb28511438c0f39a6337ded3ac931dbce328285ed"),
        ("0x1.20484c4dac402p+1", "430bbd3fc28a9c6a6886c2a02e471cddf69839875ffe43e4130a8faccd1a5e43"),
    ),
    (3, 4, "exp+obs+mtr", "posterior_effect", 2): (
        47,
        ("0x0.0p+0", "9d3bd7aa9790c3bde38c415cda621871b53c15bdfbe917fe64f486367817c333"),
        ("0x1.0000000000013p+1", "7b6416e5d59fd5077e242ddd37ab72ca84d836e9e9f0400151ccc4322282b399"),
    ),
    (4, 4, "exp+obs+exogeneity", "event", 3): (
        400,
        ("0x1.1958a2055e248p-6", "bdd89e363f0be9e55e120e41e67a0c9e9bc0e1590c48f6f63452a19077525fd0"),
        ("0x1.eaa0da14f3664p-3", "5c368890f33dfddf3f3f0481f6aa44c18f38a5cfc85d7765dd320084b6178355"),
    ),
    (5, 3, "obs+exogeneity+prob_mtr", "moment", 4): (
        520,
        ("0x1.7bf4d2ef34fa4p-3", "3e025534480aafba02f27b9559c5d6953f3e6bb8077fd0b81fdf382acf0147f6"),
        ("0x1.351f0e5f2e494p+1", "f654bf9c784bd4daea3a47d08206f5e8eb6852511135d2743a95d8c2bdd5fcd8"),
    ),
    (3, 3, "exp+obs+mtr", "posterior_effect", 5): (
        19,
        ("0x0.0p+0", "7f77bd2ff0eef4b5f27ae6fcf8714a38e25de8de5568bcab9c98af098610e128"),
        ("0x1.f9e8245c4ad3bp-2", "461fcff912de904969d2b5a67d4f94ad97a0966526d4a54cf0b31ef38729a420"),
    ),
}


# bound() on the same instances, through the presolve or the q-form: float.hex
# and witness SHA-256 of the lower and upper endpoints.  The two exp+obs+mtr
# instances reduce, and the two exp+obs+exogeneity instances are solved over
# couplings of the arm marginals, so their witnesses and last bits differ
# from the full LP's above.
PINNED_BOUND = {
    (3, 3, "exp+obs+exogeneity", "event", 0): (
        ("0x0.0p+0", "e6c66021bd5643a2c660f7be1a479df77242998ace0ef09eef461732afb13ee0"),
        ("0x1.07bf7eac335b0p-2", "840267a3cd6c70d714f64d1be98b254de84050ca21b02fd26066ae2145aa05ff"),
    ),
    (4, 3, "obs+exogeneity+prob_mtr", "moment", 1): PINNED[4, 3, "obs+exogeneity+prob_mtr", "moment", 1][1:],
    (3, 4, "exp+obs+mtr", "posterior_effect", 2): (
        ("0x0.0p+0", "ed80e62baa71eb9ac9d93005ca8486188616768da534543e5665a9491cc8b4e4"),
        ("0x1.0000000000000p+1", "0150a894efce0ad4aee589f63e7214de2d390b1f39ce136978114fe88de48375"),
    ),
    (4, 4, "exp+obs+exogeneity", "event", 3): (
        ("0x1.1958a2055e620p-6", "eb1242937052062406269bd6464f461f5dc925e183ce2074daa037893f09002d"),
        ("0x1.eaa0da14f3668p-3", "9aa83be86a846cd53440f6e3b2a12e2198774230a4c25d1f1d573746c7928a9b"),
    ),
    (5, 3, "obs+exogeneity+prob_mtr", "moment", 4): PINNED[5, 3, "obs+exogeneity+prob_mtr", "moment", 4][1:],
    (3, 3, "exp+obs+mtr", "posterior_effect", 5): (
        ("0x0.0p+0", "7f77bd2ff0eef4b5f27ae6fcf8714a38e25de8de5568bcab9c98af098610e128"),
        ("0x1.f9e8245c4ad3bp-2", "461fcff912de904969d2b5a67d4f94ad97a0966526d4a54cf0b31ef38729a420"),
    ),
}


def pinned_inputs(d_x, d_y, mix, kind, seed):
    """``bound()``'s arguments for a query on the tables of a random exogenous
    truth that meets the mix: ``share`` of its mass lies on nondecreasing
    outcome vectors, all of it under mtr."""
    named, share = {
        "exp+obs+exogeneity": (None, 0.0),
        "obs+exogeneity+prob_mtr": ("prob_mtr(0.5,1.0)", 0.5),
        "exp+obs+mtr": ("mtr", 1.0),
    }[mix]
    rng = np.random.default_rng(seed)
    dims = pb.Dims(d_x, d_y)
    Y = np.indices((d_y,) * d_x).reshape(d_x, -1)
    monotone = (np.diff(Y, axis=0) >= 0).all(axis=0)
    py = (1.0 - share) * rng.dirichlet(np.ones(Y.shape[1]))
    py[monotone] += share * rng.dirichlet(np.ones(monotone.sum()))
    px = rng.dirichlet(np.ones(d_x))
    marginals = np.stack([np.bincount(Y[k], weights=py, minlength=d_y) for k in range(d_x)])
    obs = pb.ObservationalJoint(px[:, None] * marginals)
    exp = pb.ExperimentalMarginals(marginals) if mix.startswith("exp") else None
    assumptions = (pb.preset(named, dims) if named else pb.AssumptionSet()).with_exogeneity("exogeneity" in mix)
    if kind == "event":
        query = pb.build_event_query(dims, {0: 0, 1: {"ge": 1}})
    elif kind == "moment":
        query = pb.build_moment_query(dims, 2, (1, 0))
    else:
        query = pb.build_posterior_effect_query(dims, (1, 0), (0, 1))
    return dims, query, exp, obs, assumptions


def pinned_instance(*case):
    """The constraint set and objective of :func:`pinned_inputs`."""
    dims, query, exp, obs, assumptions = pinned_inputs(*case)
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=assumptions)
    obj = pb.bind_condition(query, obs) if query.condition else pb.collapse_to_objective(query, dims)
    return cs, obj


def pivot_path(cs, obj):
    """Phase-1 pivots, then ``float.hex`` and witness SHA-256 of each endpoint."""
    phase1, solutions, _ = simplex._two_phase(cs, [(obj, "minimize"), (obj, "maximize")])
    return (phase1.iterations,) + tuple(
        (float(s.value).hex(), hashlib.sha256(s.witness.tobytes()).hexdigest()) for s in solutions
    )


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: f"{c[0]}x{c[1]}-{c[2]}-{c[3]}")
def test_pivot_path_is_pinned(case):
    assert pivot_path(*pinned_instance(*case)) == PINNED[case]


@pytest.mark.parametrize("case", list(PINNED_BOUND), ids=lambda c: f"{c[0]}x{c[1]}-{c[2]}-{c[3]}")
def test_bound_bytes_are_pinned(case):
    dims, query, exp, obs, assumptions = pinned_inputs(*case)
    res = pb.bound(dims, query, exp=exp, obs=obs, assumptions=assumptions)
    endpoints = ((res.lower, res.lower_witness), (res.upper, res.upper_witness))
    assert tuple((v.hex(), hashlib.sha256(w.tobytes()).hexdigest()) for v, w in endpoints) == PINNED_BOUND[case]


def entering_columns(cs, obj):
    """Each ``run`` of a solve of ``cs`` as a list of its pivots: the reduced
    costs before the pivot, the entering column, and whether the least ratio
    of its ratio test is at most ``DEAD_TOL``."""
    runs, running = [], []
    honest_run, honest_pivot = simplex._Tableau.run, simplex._Tableau._pivot

    def run(self, allowed):
        runs.append([])
        running.append(allowed)
        try:
            return honest_run(self, allowed)
        finally:
            running.pop()

    def pivot(self, row, col, work):
        if running:  # not the pivots of drop_artificials
            column, rhs = self.T[:-1, col], self.T[:-1, -1]
            eligible = column > simplex.PIVOT_TOL
            least = (rhs[eligible] / column[eligible]).min()
            runs[-1].append((self.T[-1, : running[-1]].copy(), col, bool(least <= simplex.DEAD_TOL)))
        honest_pivot(self, row, col, work)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(simplex._Tableau, "run", run)
        patched.setattr(simplex._Tableau, "_pivot", pivot)
        simplex._two_phase(cs, [(obj, "minimize"), (obj, "maximize")])
    return runs


def cycling_lp():
    """Chvátal's (1983, ch. 3) LP over the first four cells of a 2x2 system:
    max 10x1 - 57x2 - 9x3 - 24x4 subject to 0.5x1 - 5.5x2 - 2.5x3 + 9x4 <= 0,
    0.5x1 - 1.5x2 - 0.5x3 + x4 <= 0 and x1 <= 1, whose optimum is 1 at
    x1 = x3 = 1.  Dantzig's rule alone, ratio ties to the smallest basic
    index, reaches a degenerate vertex in phase 2 and cycles there through
    six bases until the iteration limit."""
    A = np.zeros((3, 8))
    A[:, :4] = [[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]]
    objective = np.zeros(8)
    objective[:4] = [10.0, -57.0, -9.0, -24.0]
    return ConstraintSet(pb.Dims(2, 2), A, [0.0, 0.0, 1.0], ["le"] * 3, ["cycle(0)", "cycle(1)", "cycle(2)"]), objective


def test_dantzig_prices_until_the_first_degenerate_pivot_and_bland_after_it():
    # the mtr phase 1 meets no degenerate pivot; the exogeneity rows' zero
    # right-hand sides make the first pivot of that phase 1 degenerate; the
    # cycling LP's rules disagree on the pivot right after its first
    # degenerate one, so Bland's rule must take over at once
    systems = [pinned_instance(3, 4, "exp+obs+mtr", "posterior_effect", 2),
               pinned_instance(4, 3, "obs+exogeneity+prob_mtr", "moment", 1), cycling_lp()]
    differ = {"dantzig": 0, "bland": 0}
    for n, system in enumerate(systems):
        runs = entering_columns(*system)
        assert len(runs) == 3  # phase 1, then phase 2 once per sense
        for pivots in runs:
            first = next((i for i, (_, _, degenerate) in enumerate(pivots) if degenerate), len(pivots))
            for i, (red, col, _) in enumerate(pivots):
                least, lowest = int(red.argmin()), int(np.flatnonzero(red < -simplex.PIVOT_TOL)[0])
                assert col == (least if i <= first else lowest), (n, i, first)
                differ["dantzig" if i <= first else "bland"] += least != lowest
    # the two rules disagree on some pivot under each, so each was put to the test
    assert differ["dantzig"] > 0 and differ["bland"] > 0


def test_an_lp_that_cycles_under_dantzigs_rule_reaches_its_optimum():
    # Bland's rule, from the first degenerate pivot on, leaves the cycle
    cs, objective = cycling_lp()
    sol = pb.solve(pb.LpProblem(objective, cs, "maximize"))
    assert sol.status == "optimal" and sol.iterations < 20
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sol.witness, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_iteration_limit_raises_with_a_detached_state(truth_a, monkeypatch):
    dims = truth_a.dims
    cs = pb.assemble_constraints(dims, exp=truth_a.po_marginals(), obs=truth_a.xy_marginal())
    obj = pb.collapse_to_objective(pb.build_event_query(dims, {0: 0, 1: 0, 2: 1}), dims)
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 3)
    with pytest.raises(pb.SolverFailureError, match="^iteration limit exceeded$") as info:
        pb.solve(pb.LpProblem(obj, cs, "maximize"))
    tableau, basis = info.value.tableau, info.value.basis
    assert type(basis) is list and len(basis) == len(cs)
    assert all(type(col) is int for col in basis)
    # a copy that owns its data, whose basic columns are the unit vectors of the basis
    assert tableau.flags.owndata
    np.testing.assert_array_equal(tableau[np.arange(len(cs)), basis], 1.0)
    assert (tableau[:-1, basis] != 0.0).sum() == len(cs)


def test_bounds_match_highs():
    # the same ConstraintSet arrays handed to HiGHS: an oracle that shares no
    # code with the dense simplex
    optimize = pytest.importorskip("scipy.optimize")
    kinds = ("event", "moment", "posterior_effect")
    for seed in range(40):
        d_x, d_y = (3, 3) if seed % 2 else (4, 3)
        for mix in ("exp+obs+exogeneity", "obs+exogeneity+prob_mtr", "exp+obs+mtr"):
            cs, obj = pinned_instance(d_x, d_y, mix, kinds[seed % 3], 100 + seed)
            phase1, solutions, _ = simplex._two_phase(cs, [(obj, "minimize"), (obj, "maximize")])
            assert phase1.status == "feasible", (seed, mix)
            eq, le = cs.kind == "eq", cs.kind == "le"
            for sign, sol in zip((1.0, -1.0), solutions):
                ref = optimize.linprog(sign * obj, A_ub=cs.A[le], b_ub=cs.rhs[le], A_eq=cs.A[eq], b_eq=cs.rhs[eq],
                                       bounds=(0, None), method="highs")
                assert ref.status == 0, (seed, mix, ref.message)
                assert sol.value == pytest.approx(sign * ref.fun, abs=1e-6), (seed, mix)


def assert_interval_is_sharp(dims, exp, obs, truth, want):
    """``bound()`` of ``P(Y_0=0, Y_1>=1)`` under exogeneity is ``want``, holds
    the truth, and equals HiGHS on the full rows to 1e-9 (through the
    stress sweep's HiGHS, whose presolve is off)."""
    exogenous = pb.AssumptionSet().with_exogeneity(True)
    exp, obs = pb.ExperimentalMarginals(exp), pb.ObservationalJoint(obs)
    query = pb.build_event_query(dims, {0: 0, 1: {"ge": 1}})
    res = pb.bound(dims, query, exp=exp, obs=obs, assumptions=exogenous)
    assert res.status == "ok"
    assert (res.lower, res.upper) == pytest.approx(want, abs=1e-12)
    assert res.lower <= truth <= res.upper
    highs = tool("stress").highs_solver()
    if highs is None:
        pytest.skip("scipy does not import")
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=exogenous)
    ref = highs(cs, pb.collapse_to_objective(query, dims))
    assert None not in ref
    assert abs(res.lower - ref[0]) <= 1e-9 and abs(res.upper - ref[1]) <= 1e-9


def test_a_phase_1_that_ends_above_its_start_raises():
    # a 3x3 exogenous truth with P(X=1) = 2.9e-9: on the full rows phase 1
    # starts at sum|rhs| = 3.66 and, having lost precision, ends at 1.19e6,
    # which no pivot can reach; bound() solves the q-form instead
    dims = pb.Dims(3, 3)
    exp, obs, truth = rare_arm_tables(3, 3, 5, 0.3)
    assert 2e-9 < obs[1].sum() < 4e-9
    assert_interval_is_sharp(dims, exp, obs, truth, (0.0, 0.2661917633992854))
    cs = pb.assemble_constraints(dims, exp=pb.ExperimentalMarginals(exp), obs=pb.ObservationalJoint(obs),
                                 assumptions=pb.AssumptionSet().with_exogeneity(True))
    with pytest.raises(pb.SolverFailureError, match=r"^objective rose to 7\.7\d* at pivot 9, above its start 3\.66\d*$"):
        pb.check_feasible(cs)


def test_the_pinned_4x4_raises_within_a_thousand_pivots():
    # a 4x4 exogenous truth with P(X=0) = 1.4e-4 whose phase 1 on the full
    # rows lifts its own objective at pivot 362 and, unchecked, pivots on to
    # the iteration limit
    dims = pb.Dims(4, 4)
    exp, obs, _ = rare_arm_tables(4, 4, 0, 1.0)
    assert 1e-4 < obs[0].sum() < 2e-4
    cs = pb.assemble_constraints(dims, exp=pb.ExperimentalMarginals(exp), obs=pb.ObservationalJoint(obs),
                                 assumptions=pb.AssumptionSet().with_exogeneity(True))
    rose = r"^objective rose to \S+ at pivot (\d+), above its start \S+$"
    with pytest.raises(pb.SolverFailureError, match=rose) as info:
        pb.check_feasible(cs)
    pivot = int(re.match(rose, str(info.value)).group(1))
    assert pivot <= 1000 < simplex.MAX_ITERATIONS


def test_the_pinned_4x4_bound_is_sharp():
    # bound() solves the q-form of the instance above
    exp, obs, truth = rare_arm_tables(4, 4, 0, 1.0)
    assert_interval_is_sharp(pb.Dims(4, 4), exp, obs, truth, (0.0, 0.22925583204885255))


@pytest.mark.parametrize("phase", [1, 2])
def test_a_pivot_that_raises_the_objective_raises(truth_a, monkeypatch, phase):
    # forge a loss of precision: pivot k of one phase lifts the objective by 100,
    # far above where the run started (both phases start below 10 here)
    dims = truth_a.dims
    cs = pb.assemble_constraints(dims, exp=truth_a.po_marginals(), obs=truth_a.xy_marginal())
    obj = pb.collapse_to_objective(pb.build_event_query(dims, {0: 0, 1: 0, 2: 1}), dims)
    honest = simplex._Tableau._pivot
    pivots = {1: [], 2: []}

    def record(self, row, col, work):
        honest(self, row, col, work)
        # phase 2 runs on a tableau whose artificial columns are gone
        pivots[2 if self.T.shape[1] == self.art0 + 1 else 1].append(self.iterations)

    monkeypatch.setattr(simplex._Tableau, "_pivot", record)
    simplex._two_phase(cs, [(obj, "maximize")])
    assert len(pivots[phase]) >= 3
    k = pivots[phase][2]

    def forged(self, row, col, work):
        record(self, row, col, work)
        if self.iterations == k:
            self.T[-1, -1] -= 100.0  # T[-1, -1] is minus the objective

    monkeypatch.setattr(simplex._Tableau, "_pivot", forged)
    rose = rf"^objective rose to \S+ at pivot {k}, above its start \S+$"
    with pytest.raises(pb.SolverFailureError, match=rose) as info:
        simplex._two_phase(cs, [(obj, "maximize")])
    assert info.value.basis is not None and info.value.tableau.flags.owndata
