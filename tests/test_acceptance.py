"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
Criteria 1-7 route every linear program through a wrapper that also verifies
the returned witnesses (feasible and achieving, within 1e-8); criterion 8
reports that tally.
"""

import time

import numpy as np

import pobounds as pb
from oracles import constraint_residual, tian_pearl_pns_bounds, vertex_enumerate_small
from conftest import bounding_truth, mite_truth, random_mite_truth, random_small_instance

TRUTH_A = bounding_truth()  # ordering holds, exogeneity does not
TRUTH_B = mite_truth()  # unit-increment + exogeneity, point-identified
DIMS = pb.Dims(3, 3)

_sharpness = {"checked": 0}


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def checked_bound(dims, query, exp=None, obs=None, assumptions=None, slack=None):
    """bound() plus automatic sharpness verification of both witnesses."""
    res = pb.bound(dims, query, exp=exp, obs=obs, assumptions=assumptions, slack=slack)
    if res.status == "ok":
        cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=assumptions, slack=slack)
        obj = pb.collapse_to_objective(query, dims)
        if query.condition is not None:
            obj = obj / pb.condition_probability(query, obs)
        for witness, value in ((res.lower_witness, res.lower), (res.upper_witness, res.upper)):
            assert constraint_residual(cs, witness) < 1e-8, "witness violates a constraint"
            assert abs(float(obj @ witness) - value) < 1e-8, "witness does not achieve the bound"
            _sharpness["checked"] += 1
    return res


def test_criterion_01_population_joint_po_bounds():
    t0 = time.perf_counter()
    exp, obs = TRUTH_A.po_marginals(), TRUTH_A.xy_marginal()
    q = pb.build_event_query(DIMS, {0: 0, 1: 0, 2: 1})

    plain = checked_bound(DIMS, q, exp=exp, obs=obs)
    ordered = checked_bound(DIMS, q, exp=exp, obs=obs, assumptions=pb.preset("pairwise(2,1)", DIMS))
    full = checked_bound(DIMS, q, exp=exp, obs=obs, assumptions=pb.preset("mtr", DIMS))
    obs_only = checked_bound(DIMS, q, obs=obs)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(plain.lower) <= 1e-8
        and abs(plain.upper - 0.275) <= 0.01
        and abs(ordered.lower) <= 1e-8
        and abs(ordered.upper - 0.167) <= 0.01
        and abs(full.upper - 0.167) <= 0.01
        and abs(obs_only.upper - 0.350) <= 0.01
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"joint-PO bounds [0,{plain.upper:.3f}] / [0,{ordered.upper:.3f}] / [0,{full.upper:.3f}], "
        f"obs-only UB {obs_only.upper:.3f}, {elapsed:.2f}s",
    )


def test_criterion_02_population_posterior_effect():
    t0 = time.perf_counter()
    exp, obs = TRUTH_A.po_marginals(), TRUTH_A.xy_marginal()
    q = pb.build_posterior_effect_query(DIMS, (1, 0), (2, 2))

    plain = checked_bound(DIMS, q, exp=exp, obs=obs)
    lb_zero = [
        checked_bound(DIMS, q, exp=exp, obs=obs, assumptions=pb.preset(name, DIMS)).lower
        for name in ("pairwise(1,0)", "mtr")
    ]
    elapsed = time.perf_counter() - t0

    ok = (
        abs(plain.lower - (-1.50)) <= 0.02
        and abs(plain.upper - 2.00) <= 0.01
        and all(abs(v) <= 1e-7 for v in lb_zero)
        and elapsed < 1.0
    )
    _report(
        2,
        ok,
        f"posterior effect [{plain.lower:.3f},{plain.upper:.3f}], "
        f"ordered LBs {['%.4f' % v for v in lb_zero]}, {elapsed:.2f}s",
    )


def test_criterion_03_population_second_moment():
    t0 = time.perf_counter()
    exp = TRUTH_A.po_marginals()
    q = pb.build_moment_query(DIMS, 2, (1, 0))

    plain = checked_bound(DIMS, q, exp=exp)
    ordered = checked_bound(DIMS, q, exp=exp, assumptions=pb.preset("pairwise(1,0)", DIMS))
    elapsed = time.perf_counter() - t0

    ok = (
        abs(plain.lower - 0.432) <= 0.01
        and abs(plain.upper - 2.197) <= 0.02
        and abs(ordered.upper - 0.747) <= 0.01
        and elapsed < 1.0
    )
    _report(
        3,
        ok,
        f"second moment [{plain.lower:.3f},{plain.upper:.3f}], ordered UB {ordered.upper:.3f}, {elapsed:.2f}s",
    )


def test_criterion_04_probability_threshold_sweep():
    t0 = time.perf_counter()
    exp, obs = TRUTH_A.po_marginals(), TRUTH_A.xy_marginal()
    q = pb.build_event_query(DIMS, {0: 0, 1: 0, 2: 1})
    levels = [round(l, 2) for l in np.arange(0.85, 1.0001, 0.01)]
    ubs = []
    for level in levels:
        res = checked_bound(DIMS, q, exp=exp, obs=obs, assumptions=pb.preset(f"prob_mtr({level},1.0)", DIMS))
        ubs.append(res.upper)
    elapsed = time.perf_counter() - t0

    non_increasing = all(b <= a + 1e-7 for a, b in zip(ubs, ubs[1:]))
    ok = (
        non_increasing
        and abs(ubs[0] - 0.274) <= 0.01
        and abs(ubs[-1] - 0.165) <= 0.01
        and elapsed < 5.0
    )
    _report(
        4,
        ok,
        f"threshold sweep UB {ubs[0]:.3f} -> {ubs[-1]:.3f}, monotone={non_increasing}, {elapsed:.2f}s",
    )


def test_criterion_05_identification_exactness():
    t0 = time.perf_counter()
    exp, obs = TRUTH_B.po_marginals(), TRUTH_B.xy_marginal()

    v1 = pb.evaluate(pb.identify_experimental(exp), pb.build_event_query(DIMS, {0: 0, 1: 0, 2: 1}))
    jfull = pb.identify_observational(obs)
    v2 = pb.evaluate(jfull, pb.build_posterior_effect_query(DIMS, (1, 0), (2, 2)), obs=obs)
    v3 = pb.evaluate(jfull, pb.build_moment_query(DIMS, 2, (1, 0)), obs=obs)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(v1 - 1 / 7) <= 1e-12
        and abs(v2 - 1 / 3) <= 1e-12
        and abs(v3 - 2 / 7) <= 1e-12
        and elapsed < 0.1
    )
    _report(5, ok, f"identified values {v1:.12f}, {v2:.12f}, {v3:.12f}, {elapsed*1000:.1f}ms")


def test_criterion_06_lp_identification_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_queries = 0
    for d in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        dims = pb.Dims(*d)
        truth = random_mite_truth(dims, rng)
        exp, obs = truth.po_marginals(), truth.xy_marginal()
        mite = pb.preset("mite", dims)
        jpo = pb.identify_experimental(exp)
        jfull = pb.identify_observational(obs)

        po_queries = [
            pb.build_event_query(dims, {0: 0, dims.d_x - 1: {"ge": 1}}),
            pb.build_event_query(dims, {k: {"le": 1} for k in range(dims.d_x)}),
            pb.build_moment_query(dims, 1, (dims.d_x - 1, 0)),
            pb.build_moment_query(dims, 2, (dims.d_x - 1, 0)),
        ]
        xy = obs.table
        l, m = max(((l, m) for l in range(dims.d_x) for m in range(dims.d_y)), key=lambda t: xy[t])
        full_queries = [
            pb.build_posterior_effect_query(dims, (dims.d_x - 1, 0), (l, m)),
            pb.build_conditional_query(dims, {0: {"le": 1}}, given=(l, m)),
        ]
        for q in po_queries:
            want = pb.evaluate(jpo, q)
            res = checked_bound(dims, q, exp=exp, assumptions=mite)
            worst = max(worst, abs(res.lower - want), abs(res.upper - want))
            n_queries += 1
        for q in po_queries + full_queries:
            want = pb.evaluate(jfull, q, obs=obs)
            res = checked_bound(dims, q, obs=obs, assumptions=mite.with_exogeneity())
            worst = max(worst, abs(res.lower - want), abs(res.upper - want))
            n_queries += 1
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-7 and n_queries >= 10 and elapsed < 10.0
    _report(6, ok, f"{n_queries} queries point-identified by LP, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_07_closed_form_grid():
    t0 = time.perf_counter()
    dims = pb.Dims(2, 2)
    q = pb.build_event_query(dims, {0: 0, 1: 1})
    exo = pb.AssumptionSet(exogeneity=True)
    worst = 0.0
    for p1 in np.linspace(0.0, 1.0, 21):
        for p0 in np.linspace(0.0, 1.0, 21):
            obs = pb.ObservationalJoint(
                np.array([[0.5 * (1 - p0), 0.5 * p0], [0.5 * (1 - p1), 0.5 * p1]])
            )
            res = checked_bound(dims, q, obs=obs, assumptions=exo)
            lo, hi = tian_pearl_pns_bounds(p1, p0)
            worst = max(worst, abs(res.lower - lo), abs(res.upper - hi))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-8 and elapsed < 5.0
    _report(7, ok, f"21x21 grid, worst |LP - closed form| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_08_sharpness_witnesses():
    # witness checks are asserted inside checked_bound for every solve in
    # criteria 1-7; run one more here so this criterion also stands alone
    exp, obs = TRUTH_A.po_marginals(), TRUTH_A.xy_marginal()
    checked_bound(DIMS, pb.build_event_query(DIMS, {0: 0, 1: 0, 2: 1}), exp=exp, obs=obs)
    checked = _sharpness["checked"]
    _report(8, checked >= 2, f"{checked} witnesses verified feasible and achieving (within 1e-8)")


def test_criterion_09_finite_sample_behavior():
    t0 = time.perf_counter()
    q_joint = pb.build_event_query(DIMS, {0: 0, 1: 0, 2: 1})
    q_post = pb.build_posterior_effect_query(DIMS, (1, 0), (2, 2))

    # tracked endpoints: (config name, paper 95% CI at N=10000 for the mean)
    tracked = {
        "plain/upper": (None, "bound", "both", TRUTH_A, q_joint, "upper", (0.268, 0.284)),
        "ordered/upper": (pb.preset("pairwise(2,1)", DIMS), "bound", "both", TRUTH_A, q_joint, "upper", (0.161, 0.175)),
        "posterior/lower": (None, "bound", "both", TRUTH_A, q_post, "lower", (-1.582, -1.425)),
        "identify/exp": (None, "identify", "exp", TRUTH_B, q_joint, "estimate", (0.135, 0.150)),
        "identify/obs": (None, "identify", "obs", TRUTH_B, q_joint, "estimate", (0.128, 0.157)),
    }
    widths = {name: [] for name in tracked}
    means_at_largest = {}
    for n in (100, 1000, 10000):
        for name, (assumptions, mode, data_kind, truth, q, endpoint, _ci) in tracked.items():
            res = pb.simulation_study(
                truth, n=n, reps=100, seed=20240809, query=q,
                mode=mode, data_kind=data_kind, assumptions=assumptions,
            )
            summary = res.endpoints[endpoint]
            widths[name].append(summary.width())
            if n == 10000:
                means_at_largest[name] = summary.mean
    elapsed = time.perf_counter() - t0

    narrowing = {name: w[0] > w[1] > w[2] for name, w in widths.items()}
    contained = {
        name: tracked[name][6][0] - 0.01 <= means_at_largest[name] <= tracked[name][6][1] + 0.01
        for name in tracked
    }
    ok = all(narrowing.values()) and all(contained.values()) and elapsed < 300.0
    detail = ", ".join(
        f"{name}: widths {['%.3f' % w for w in widths[name]]} mean {means_at_largest[name]:.3f}"
        for name in tracked
    )
    _report(9, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_10_small_instance_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        cs, obj, _p = random_small_instance(rng)
        verts = vertex_enumerate_small(cs)
        assert verts, "construction guarantees feasibility"
        best_max = max(float(v @ obj) for v in verts)
        best_min = min(float(v @ obj) for v in verts)
        sol_max = pb.solve(pb.LpProblem(obj, cs, "maximize"))
        sol_min = pb.solve(pb.LpProblem(obj, cs, "minimize"))
        worst = max(worst, abs(sol_max.value - best_max), abs(sol_min.value - best_min))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-9 and elapsed < 30.0
    _report(10, ok, f"200 instances, worst |simplex - enumeration| = {worst:.2e}, {elapsed:.1f}s")
