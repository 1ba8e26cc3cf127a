"""The presolve in front of the simplex: almost-sure monotone rows force
columns to zero, the reduced system is solved, and every answer must equal
the full LP's, with full-length witnesses certified against the original rows."""

import re

import numpy as np
import pytest

import pobounds as pb
from pobounds import simplex
from pobounds.model import cell_grid

from oracles import reference_presolve
from test_farkas import tiny

CUSTOM = "custom"  # Y_1 <= Y_0 <= Y_1 + 1 almost surely, written as a term


def term_for(name, dims):
    if name == CUSTOM:
        return pb.MonotoneTerm.from_pairs(dims.d_x, {(1, 0): (-1.0, 0.0)}, 1.0, 1.0)
    return pb.preset(name, dims).terms[0]


def instance(dims, name, exogeneity, kind, seed):
    """Tables of a random exogenous truth that meets the term almost surely,
    the assumption set, and a query of the given kind."""
    rng = np.random.default_rng(seed)
    term = term_for(name, dims)
    mask = pb.indicator_mask(dims, term) > 0.0
    allowed = mask if term.prob_lower == 1.0 else ~mask
    Y, X = cell_grid(dims)
    vec = np.ravel_multi_index(tuple(Y), (dims.d_y,) * dims.d_x)
    py = np.zeros(dims.d_y**dims.d_x)
    support = np.unique(vec[allowed])
    py[support] = rng.dirichlet(np.ones(support.size))
    px = rng.dirichlet(np.ones(dims.d_x))
    p = py[vec] * px[X]
    levels = np.arange(dims.d_y)
    exp = pb.ExperimentalMarginals((Y[:, None, :] == levels[:, None]) @ p)
    factual = Y[X, np.arange(X.size)]
    obs = pb.ObservationalJoint(((X == np.arange(dims.d_x)[:, None, None]) & (factual == levels[:, None])) @ p)
    assumptions = pb.AssumptionSet((term,), exogeneity)
    if kind == "event":
        query = pb.build_event_query(dims, {0: 0, 1: {"ge": 1}})
    elif kind == "moment":
        query = pb.build_moment_query(dims, 2, (1, 0))
    else:
        query = pb.build_posterior_effect_query(dims, (1, 0), (0, 1))
    return exp, obs, assumptions, query


def cases():
    kinds = ("event", "moment", "posterior_effect")
    out = []
    for d_x, d_y in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3)):
        names = ["mtr", "mite", CUSTOM]
        names += ["pairwise(2,1)"] if d_x >= 3 else ["epsilon_harm(0)"]
        for name in names:
            for slack in (None, 0.05):
                seed = len(out)
                out.append((d_x, d_y, name, seed % 3 == 0 and slack is None, slack, kinds[seed % 3], seed))
    return out


def case_id(case):
    d_x, d_y, name, exogeneity, slack, kind, _ = case
    return f"{d_x}x{d_y}-{name}{'+exo' if exogeneity else ''}-slack={slack}-{kind}"


def solved(case):
    d_x, d_y, name, exogeneity, slack, kind, seed = case
    dims = pb.Dims(d_x, d_y)
    exp, obs, assumptions, query = instance(dims, name, exogeneity, kind, seed)
    res = pb.bound(dims, query, exp=exp, obs=obs, assumptions=assumptions, slack=slack)
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=assumptions, slack=slack)
    obj = pb.bind_condition(query, obs) if query.condition else pb.collapse_to_objective(query, dims)
    return res, cs, obj


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_presolved_bound_equals_full_lp(case):
    res, cs, obj = solved(case)
    rows = simplex._presolve(cs)
    keep = rows.keep
    assert keep.sum() < keep.size and len(rows.provenance) < len(cs)
    # each kept row is an original row restricted to the kept columns, in order: a lifted
    # vector, zero elsewhere, meets a kept row exactly when it meets the original one
    originals = iter(range(len(cs)))
    for i, tag in enumerate(rows.provenance):
        assert any(
            (cs.provenance[j], cs.kind[j], cs.rhs[j]) == (tag, rows.kind[i], rows.rhs[i])
            and np.array_equal(cs.A[j, keep], rows.A[i])
            for j in originals
        ), tag
    phase1, (lo, hi), _ = simplex._two_phase(cs, [(obj, "minimize"), (obj, "maximize")])
    assert res.status == "ok" and phase1.status == "feasible"
    assert res.lower == pytest.approx(lo.value, abs=1e-9)
    assert res.upper == pytest.approx(hi.value, abs=1e-9)
    for witness, value in ((res.lower_witness, res.lower), (res.upper_witness, res.upper)):
        # full-length, zero in every forced cell, feasible for the original rows
        assert witness.shape == (cs.A.shape[1],)
        assert not witness[~keep].any()
        assert (cs.residuals(witness) <= simplex.FEAS_TOL).all()
        assert float(obj @ witness) == value


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_presolved_bound_equals_highs(case):
    optimize = pytest.importorskip("scipy.optimize")
    res, cs, obj = solved(case)
    eq, le = cs.kind == "eq", cs.kind == "le"
    for sign, value in ((1.0, res.lower), (-1.0, res.upper)):
        ref = optimize.linprog(sign * obj, A_ub=cs.A[le], b_ub=cs.rhs[le], A_eq=cs.A[eq], b_eq=cs.rhs[eq],
                               bounds=(0, None), method="highs")
        assert ref.status == 0, ref.message
        assert value == pytest.approx(sign * ref.fun, abs=1e-9)


def infeasible_systems():
    dims22, dims33 = pb.Dims(2, 2), pb.Dims(3, 3)
    # Y_0 = 1 and Y_1 = 0 almost surely, against Y_0 <= Y_1 almost surely
    swapped = pb.ExperimentalMarginals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    # a 3x3 truth on decreasing outcome vectors, against mtr
    falling = pb.ExperimentalMarginals(np.array([[0.1, 0.3, 0.6], [0.3, 0.4, 0.3], [0.7, 0.2, 0.1]]))
    # Y_1 >= Y_0 + 1 almost surely leaves no cell with Y_1 = 0, so the
    # experimental row of P(Y_1 = 0) = 0.5 is emptied by the presolve
    rising = pb.AssumptionSet((pb.MonotoneTerm.from_pairs(2, {(1, 0): (1.0, np.inf)}, 1.0, 1.0),))
    halves = pb.ExperimentalMarginals(np.full((2, 2), 0.5))
    return {
        "mtr-swapped-2x2": (dims22, swapped, pb.preset("mtr", dims22), True),
        "mtr-falling-3x3": (dims33, falling, pb.preset("mtr", dims33), True),
        "emptied-data-row": (dims22, halves, rising, False),
    }


@pytest.mark.parametrize("name", list(infeasible_systems()))
def test_infeasible_certificate_is_the_full_lps(name):
    dims, exp, assumptions, reduced = infeasible_systems()[name]
    cs = pb.assemble_constraints(dims, exp=exp, assumptions=assumptions)
    # the first two reduce and then fail in the reduced phase 1; the third leaves
    # an emptied row it cannot meet, so the presolve hands it to the full LP
    assert (simplex._presolve(cs).A is not cs.A) == reduced
    full = simplex._two_phase(cs, [])[0]
    assert full.status == "infeasible" and full.certificate
    res = pb.bound(dims, pb.build_event_query(dims, {0: 0}), exp=exp, assumptions=assumptions)
    assert res.status == "infeasible"
    assert res.diagnostics == full.certificate
    assert pb.check_feasible(cs) == full


def test_rows_below_their_minimum_are_left_to_the_full_lp():
    dims = pb.Dims(2, 2)
    cap = pb.ConstraintSet(dims, np.ones((1, 8)), [0.5], ["le"], ["monotone(0,upper)"])
    cs = pb.compile_base(dims).merge(cap)
    assert simplex._presolve(cs).A is cs.A


def test_satisfied_empty_rows_are_dropped():
    # Y_1 >= Y_0 + 1 almost surely: only Y = (0, 1) is left, and the emptied
    # row P(Y_1 = 0) = 0 is met, so it leaves with the forcing row
    dims = pb.Dims(2, 2)
    rising = pb.AssumptionSet((pb.MonotoneTerm.from_pairs(2, {(1, 0): (1.0, np.inf)}, 1.0, 1.0),))
    exp = pb.ExperimentalMarginals(np.array([[1.0, 0.0], [0.0, 1.0]]))
    cs = pb.assemble_constraints(dims, exp=exp, assumptions=rising)
    rows = simplex._presolve(cs)
    assert rows.provenance == ("base-sum", "experimental(0,0)")
    assert rows.keep.sum() == 2
    res = pb.bound(dims, pb.build_event_query(dims, {0: 0, 1: 1}), exp=exp, assumptions=rising)
    assert (res.lower, res.upper) == (1.0, 1.0)


def same_as_reference(cs):
    """``simplex._presolve`` and the oracle agree bit for bit on ``cs``:
    whether it reduces, the masks, the arrays and the provenance; returns
    both results."""
    got, want = simplex._presolve(cs), reference_presolve(cs)
    assert (got.A is cs.A) == (want.A is cs.A)
    for name in ("A", "rhs", "kind", "rows", "keep"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.provenance == want.provenance
    return got, want


def tiny_systems():
    """The 2x2 systems of test_farkas.py's ray checks."""
    lower = [[(j, -1.0) for j in range(8)]]
    out = [
        tiny(lower, [-1.5], ["le"], ["monotone(0,lower)"]),
        tiny([[(j, 1.0) for j in range(8)]], [0.5], ["le"], ["monotone(0,upper)"]),
        tiny([[(0, 1.0)]], [2.0], ["le"], ["monotone(0,upper)"]),
        tiny([[(j, 1.0) for j in range(4, 8)], [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 2.0)]],
             [0.0, 1.5], ["le", "eq"], ["monotone(0,upper)", "experimental(0,0)"]),
        pb.ConstraintSet(pb.Dims(2, 2), -np.ones((1, 8)), [-1.5], ["le"], ["monotone(0,lower)"]),
        pb.ConstraintSet(pb.Dims(2, 2), np.vstack([-np.ones(8), np.ones(8)]), [-1.5, 1.0], ["le", "le"],
                         ["monotone(0,lower)", "monotone(0,upper)"]),
    ]
    return out + [tiny(lower, [-(1.0 + t)], ["le"], ["monotone(0,lower)"]) for t in (1e-9, 5e-9, 2e-8)]


PLANTS = ("no-le", "no-base", "below-min", "all-equal", "empty-met", "empty-missed", "mixed", "slack=0")


def random_system(rng, plant, i):
    """A seeded system of one of the ``PLANTS``: over the 8 cells of a 2x2
    model, the base row, the planted rows, and rows that neither force nor
    empty (``eq``, every coefficient nonzero); ``mixed`` draws every row at
    random, and ``slack=0`` compiles tables with zeros and ones at slack 0,
    whose data rows force.  ``i`` picks the row a ``no-base`` system has in
    place of the base row."""
    dims = pb.Dims(2, 2)
    if plant == "slack=0":
        exp = pb.ExperimentalMarginals(rng.permuted(np.array([[1.0, 0.0], [0.5, 0.5]]), axis=1))
        obs = pb.ObservationalJoint(rng.permuted(np.array([[0.0, 0.3], [0.7, 0.0]]).ravel()).reshape(2, 2))
        return pb.assemble_constraints(dims, exp=exp, obs=obs, slack=0.0)
    rows = [(np.ones(8), 1.0, "eq")]
    if plant == "no-base":  # nothing, or a row that is almost the base row
        rows = [[], [(np.ones(8), 0.5, "eq")], [(np.ones(8), 1.0, "le")], [(np.full(8, 2.0), 1.0, "eq")]][i % 4]
    zeros_on = rng.permutation(8)[: rng.integers(1, 7)]  # the cells a planted forcing row drops
    forcing = np.zeros(8)
    forcing[zeros_on] = rng.integers(1, 3, size=zeros_on.size)
    if plant in ("no-base", "below-min", "empty-met", "empty-missed"):
        rows.append((forcing, 0.0, "le"))
    if plant == "below-min":
        a = rng.integers(-1, 3, size=8).astype(float)
        rows.append((a, a.min() - 0.5, "le"))
    if plant == "all-equal":
        c = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        rows.append((np.full(8, c), c, "le"))
    if plant in ("empty-met", "empty-missed"):
        a = np.zeros(8)
        a[zeros_on] = rng.integers(1, 3, size=zeros_on.size)
        met = [(a, 0.0, "eq"), (-a, 0.25, "le")]
        missed = [(a, 0.25, "eq"), (a, -0.25, "eq"), (-a, -0.25, "le")]
        emptied = [met[rng.integers(2)]] + ([missed[rng.integers(3)]] if plant == "empty-missed" else [])
        rows += emptied[:: int(rng.choice([-1, 1]))]
    for _ in range(rng.integers(0 if plant != "no-le" else 1, 3)):
        a = rng.choice([-1.0, 1.0, 2.0], size=8)
        rows.append((a, float(a @ rng.dirichlet(np.ones(8))), "eq"))
    if plant == "mixed":
        for _ in range(rng.integers(1, 5)):
            a = rng.integers(-1, 3, size=8).astype(float)
            a[0] += not a.any()
            rows.append((a, float(rng.choice([a.min(), a.min() - 0.5, 0.0, 0.5, 1.0])), str(rng.choice(["eq", "le"]))))
    A, rhs, kind = zip(*rows)
    return pb.ConstraintSet(dims, np.array(A), rhs, kind, [f"row({i})" for i in range(len(rows))])


def suite_systems():
    out = {}
    for case in cases():
        d_x, d_y, name, exogeneity, slack, kind, seed = case
        dims = pb.Dims(d_x, d_y)
        exp, obs, assumptions, _ = instance(dims, name, exogeneity, kind, seed)
        out[case_id(case)] = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=assumptions, slack=slack)
    for name, (dims, exp, assumptions, _) in infeasible_systems().items():
        out[name] = pb.assemble_constraints(dims, exp=exp, assumptions=assumptions)
    for i, cs in enumerate(tiny_systems()):
        out[f"tiny-{i}"] = cs
    return out


def test_the_presolve_equals_the_reference_on_the_suite_systems():
    reduced = 0
    for name, cs in suite_systems().items():
        _, want = same_as_reference(cs)
        reduced += want.A is not cs.A
    assert reduced >= len(cases())


def test_the_presolve_equals_the_reference_on_random_systems():
    rng = np.random.default_rng(20261018)
    seen = {plant: [] for plant in PLANTS}
    for i in range(200):
        plant = PLANTS[i % len(PLANTS)]
        cs = random_system(rng, plant, i // len(PLANTS))
        _, want = same_as_reference(cs)
        seen[plant].append(want.A is cs.A or (int(want.keep.sum()), int(want.rows.sum()), len(cs)))
    for plant in ("no-le", "no-base", "below-min", "empty-missed"):
        assert all(whole is True for whole in seen[plant]), plant
    # an all-equal forcing row drops itself and keeps every column
    assert all(whole is not True and whole[0] == 8 and whole[1] < whole[2] for whole in seen["all-equal"])
    # the emptied row is met, so it leaves with the forcing row
    assert all(whole is not True and whole[0] < 8 and whole[1] <= whole[2] - 2 for whole in seen["empty-met"])
    for plant in ("mixed", "slack=0"):
        assert any(whole is True for whole in seen[plant]) and any(whole is not True for whole in seen[plant]), plant


@pytest.mark.parametrize("call, what", [(0, "phase-1 point"), (2, "maximize witness")])
def test_perturbed_lifted_witness_is_refused(truth_a, monkeypatch, call, what):
    dims = truth_a.dims
    exp, obs, mtr = truth_a.po_marginals(), truth_a.xy_marginal(), pb.preset("mtr", dims)
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=mtr)
    forced = int(np.flatnonzero(~simplex._presolve(cs).keep)[0])
    honest = simplex._lift
    calls = []

    def perturbed(x, keep):
        full = honest(x, keep)
        if len(calls) == call:
            full[forced] += 1e-6
        calls.append(call)
        return full

    monkeypatch.setattr(simplex, "_lift", perturbed)
    with pytest.raises(pb.SolverFailureError) as info:
        pb.bound(dims, pb.build_event_query(dims, {0: 0, 1: 0, 2: 1}), exp=exp, obs=obs, assumptions=mtr)
    found = re.fullmatch(rf"{what} violates row (\S+) by 1e-06 \(tolerance 1e-08\)", str(info.value))
    assert found, str(info.value)
    # the reduced system has no column for the forced cell: only an original row can see it
    assert cs.A[cs.provenance.index(found.group(1)), forced] != 0.0
