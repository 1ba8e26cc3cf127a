"""The q-form: an exogeneity model with no monotone row, every ``P(X=l) > 0``
and no ``slack`` is solved over couplings of the arm marginals, and its
witnesses are lifted back to the cells.  Its endpoints must equal the full
LP's and HiGHS's on the same rows, every witness must meet the original
rows, and every other mix must keep the full LP's bytes."""

import hashlib
import re
import warnings

import numpy as np
import pytest

import pobounds as pb
from oracles import rare_arm_tables, tool
from pobounds import bounds, compile, simplex


def tables(d_x, d_y, seed, px=None):
    """The tables of an exogenous truth with ``px ~ Dirichlet(1)`` unless given."""
    exp, obs, _ = rare_arm_tables(d_x, d_y, seed, 1.0, px)
    return pb.ExperimentalMarginals(exp), pb.ObservationalJoint(obs)


def query(dims, kind):
    if kind == "event":
        return pb.build_event_query(dims, {0: 0, 1: {"ge": 1}})
    if kind == "moment":
        return pb.build_moment_query(dims, 2, (1, 0))
    return pb.build_posterior_effect_query(dims, (1, 0), (0, 1))


def objective(q, dims, obs):
    return pb.bind_condition(q, obs) if q.condition else pb.collapse_to_objective(q, dims)


@pytest.fixture
def coupled(monkeypatch):
    """The objectives of each q-form stated during the test."""
    seen = []
    honest = simplex._couple

    def couple(constraints, objectives, px, m):
        seen.append(len(objectives))
        return honest(constraints, objectives, px, m)

    monkeypatch.setattr(simplex, "_couple", couple)
    return seen


def digest(res):
    """``float.hex`` and witness SHA-256 of each endpoint, or the certificate."""
    if res.status != "ok":
        return res.diagnostics
    return tuple((v.hex(), hashlib.sha256(w.tobytes()).hexdigest())
                 for v, w in ((res.lower, res.lower_witness), (res.upper, res.upper_witness)))


CASES = [(d_x, d_y, mix, kind, seed)
         for seed, (d_x, d_y) in enumerate([(3, 3), (4, 3), (3, 4), (5, 3)])
         for mix in ("exp+obs+exogeneity", "obs+exogeneity")
         for kind in ("event", "moment", "posterior_effect")]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}x{c[1]}-{c[2]}-{c[3]}")
def test_the_q_form_equals_the_full_lp_and_highs(case, coupled):
    d_x, d_y, mix, kind, seed = case
    dims = pb.Dims(d_x, d_y)
    exp, obs = tables(d_x, d_y, 40 + seed)
    exp = exp if mix.startswith("exp") else None
    exogenous = pb.AssumptionSet().with_exogeneity(True)
    q = query(dims, kind)
    res = pb.bound(dims, q, exp=exp, obs=obs, assumptions=exogenous)
    assert coupled == [2] and res.status == "ok"

    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=exogenous)
    c = objective(q, dims, obs)
    phase1, full, _ = simplex._two_phase(cs, [(c, "minimize"), (c, "maximize")])
    assert phase1.status == "feasible"
    for value, witness, want in ((res.lower, res.lower_witness, full[0]), (res.upper, res.upper_witness, full[1])):
        assert abs(value - want.value) <= 1e-9
        assert value == float(c @ witness)
        assert simplex._certified(cs, witness, "witness") is witness

    highs = tool("stress").highs_solver()
    if highs is None:
        pytest.skip("scipy does not import")
    ref = highs(cs, c)
    assert None not in ref
    assert abs(res.lower - ref[0]) <= 1e-9 and abs(res.upper - ref[1]) <= 1e-9


def test_an_objective_per_arm_group_where_it_is_nonzero():
    # an outcome-only objective is one group, and one objective over q; one
    # that depends on the arm is one per group of arms with equal columns
    # where it is nonzero, the zero group taking the phase-1 coupling
    dims = pb.Dims(3, 3)
    exp, obs = tables(3, 3, 7)
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity(True))
    px, m = obs.x_marginal(), obs.table / obs.x_marginal()[:, None]
    event = pb.collapse_to_objective(query(dims, "event"), dims)
    coupled = simplex._couple(cs, [(event, "minimize"), (event, "maximize")], px, m)
    assert len(coupled.objectives) == 2 and [arms.tolist() for arms in coupled.plan] == [[0, 0, 0], [1, 1, 1]]
    per_arm = event.reshape(-1, 3) * np.array([1.0, 0.0, 2.0])
    coupled = simplex._couple(cs, [(per_arm.reshape(-1), "maximize")], px, m)
    assert [arms.tolist() for arms in coupled.plan] == [[0, -1, 1]]
    phase1, solutions = simplex._solve(cs, [(per_arm.reshape(-1), "maximize")], marginals=(px, m))
    q1 = phase1.witness.reshape(-1, 3)[:, 1] / px[1]
    witness = solutions[0].witness.reshape(-1, 3)
    np.testing.assert_allclose(witness[:, 1] / px[1], q1, atol=1e-15)  # the zero arm keeps the phase-1 coupling
    full = simplex._two_phase(cs, [(per_arm.reshape(-1), "maximize")])[1][0]
    assert abs(solutions[0].value - full.value) <= 1e-9


@pytest.mark.parametrize("d_y", [2, 3])
def test_arms_with_one_nonzero_column_share_one_objective(d_y, coupled):
    # a raw query whose arms 0 and 2 carry the same random column and arm 1
    # none: one objective over q per sense, gathered onto arms 0 and 2, and
    # arm 1 keeps the phase-1 coupling
    dims = pb.Dims(3, d_y)
    exp, obs = tables(3, d_y, 80 + d_y)
    column = np.random.default_rng(d_y).normal(size=(d_y,) * 3)
    coeff = np.zeros(dims.full_shape())  # indexed [y_0, y_1, y_2, x, y]
    coeff[..., 0, :] = coeff[..., 2, :] = column[..., None]
    q = pb.QuerySpec(coeff)
    args = dict(exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())
    res = pb.bound(dims, q, **args)
    assert coupled == [2] and res.status == "ok"
    cs = pb.assemble_constraints(dims, **args)
    plan = couplings_of(dims, obs, q, cs)
    assert len(plan.objectives) == 2 and [arms.tolist() for arms in plan.plan] == [[0, -1, 0], [1, -1, 1]]
    np.testing.assert_array_equal(plan.objectives[0][0], column.reshape(-1))
    c = objective(q, dims, obs)
    px, m = obs.x_marginal(), obs.table / obs.x_marginal()[:, None]
    phase1, _ = simplex._solve(cs, [(c, "minimize"), (c, "maximize")], marginals=(px, m))
    for witness in (res.lower_witness, res.upper_witness):
        np.testing.assert_array_equal(witness.reshape(-1, 3)[:, 1], phase1.witness.reshape(-1, 3)[:, 1])
    _, full, _ = simplex._two_phase(cs, [(c, "minimize"), (c, "maximize")])
    assert abs(res.lower - full[0].value) <= 1e-9 and abs(res.upper - full[1].value) <= 1e-9
    highs = tool("stress").highs_solver()
    if highs is None:
        pytest.skip("scipy does not import")
    ref = highs(cs, c)
    assert abs(res.lower - ref[0]) <= 1e-9 and abs(res.upper - ref[1]) <= 1e-9


def test_the_same_inputs_give_the_same_bytes():
    dims = pb.Dims(4, 3)
    exp, obs = tables(4, 3, 3)
    args = dict(exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity(True))
    assert digest(pb.bound(dims, query(dims, "moment"), **args)) == digest(pb.bound(dims, query(dims, "moment"), **args))


def test_the_structure_records_the_marginals_of_its_tables():
    # exp may differ from m = P(Y=.|X=k) by SUM_TOL, and not by more
    dims = pb.Dims(3, 3)
    exp, obs = tables(3, 3, 16)
    exogenous = pb.AssumptionSet().with_exogeneity()
    px, m = bounds._system(dims, exp, obs, exogenous, None)[1]
    assert px.tobytes() == obs.x_marginal().tobytes() and m.tobytes() == (obs.table / px[:, None]).tobytes()
    for gap, kept in ((0.5e-9, True), (2e-9, False)):
        table = m.copy()
        table[0] += [-gap, gap, 0.0]
        close = pb.ExperimentalMarginals(table)
        assert (bounds._system(dims, close, obs, exogenous, None)[1] is not None) == kept
    assert bounds._system(dims, None, obs, exogenous, None)[1] is not None
    assert bounds._system(dims, exp, obs, pb.AssumptionSet(), None)[1] is None


def mismatch():
    dims = pb.Dims(3, 3)
    exp, obs = tables(3, 3, 11)
    table = exp.table.copy()
    table[0] += [-0.01, 0.01, 0.0]
    return dims, dict(exp=pb.ExperimentalMarginals(table), obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())


def zero_arm():
    dims = pb.Dims(3, 3)
    exp, obs = tables(3, 3, 12, px=[0.6, 0.0, 0.4])
    return dims, dict(exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())


def slack():
    dims = pb.Dims(3, 3)
    exp, obs = tables(3, 3, 13)
    return dims, dict(exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity(), slack=0.01)


def prob_mtr():
    dims = pb.Dims(3, 3)
    exp, obs = tables(3, 3, 14)
    return dims, dict(obs=obs, assumptions=pb.preset("prob_mtr(0.1,1.0)", dims).with_exogeneity())


# bound() of the event query on each input set that keeps the full LP: the
# certificate, as before the q-form existed, or the full LP's endpoints under
# the pivot rule of simplex._Tableau.run
FULL_LP = {
    # every exogeneity row but the first two
    mismatch: ("base-sum", "experimental(0,0)", "experimental(0,1)")
              + tuple(f"observational({l},{m})" for l in range(2) for m in range(3))
              + tuple(f"exogeneity({k},{v},{l})" for k in range(3) for v in range(3) for l in range(3))[2:],
    zero_arm: (("0x1.88a8105ee2f04p-3", "269a10c5294b37ffb74f584c56b8b033bd9616e9d1fd7e523bf96e273961890e"),
               ("0x1.9de88830e70cep-2", "10dfe166217e617c32b74a8afff78c1c4610949c3f7ba8519b0845551b655240")),
    slack: (("0x0.0p+0", "474bfc9fef4a7a6344dbee7b1253de6aa9d6899153a80a3dafbe976b9386e35f"),
            ("0x1.442f6207e7a6cp-2", "17b9557bab629e231ff108cb836e31e427ab4c40c7f2406d796896da8553ec1a")),
    prob_mtr: (("0x1.1f504e5819522p-4", "6fd53adb53975c5e227a3df6c8433e0fd8b4ec2dce860ac6b4d35eabe9c93a1b"),
               ("0x1.c2c705784804ap-2", "2f3b6ce05d431d94d65415607e0d5c6a7ae7b18ae44df9a42655cef640200333")),
}


@pytest.mark.parametrize("inputs", list(FULL_LP), ids=lambda f: f.__name__)
def test_other_mixes_keep_the_full_lp(inputs, coupled):
    dims, args = inputs()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = pb.bound(dims, query(dims, "event"), **args)
    assert coupled == []
    assert digest(res) == FULL_LP[inputs]
    degenerate = [str(w.message) for w in caught]
    assert degenerate == (["degenerate treatment arms [1] have zero probability; exogeneity rows skipped"]
                          if inputs is zero_arm else [])


honest_lift, honest_two_phase = simplex._Couplings.lift, simplex._two_phase


def forged_lift(self, phase1, solutions):
    point, lifted = honest_lift(self, phase1, solutions)
    return point, [pb.LpSolution(s.status, None, s.witness + 1e-6, s.iterations) for s in lifted]


def forged_two_phase(system, objectives, start=None):
    if isinstance(system, simplex._Couplings):
        raise pb.SolverFailureError("objective rose to 1 at pivot 1, above its start 0")
    return honest_two_phase(system, objectives, start)


def forged_infeasible(system, objectives, start=None):
    if isinstance(system, simplex._Couplings):
        return pb.LpSolution("infeasible", None, None, 0, ("base-sum",)), [], None
    return honest_two_phase(system, objectives, start)


def forged_unbounded(system, objectives, start=None):
    phase1, solutions, bases = honest_two_phase(system, objectives, start)
    if isinstance(system, simplex._Couplings):
        solutions = [pb.LpSolution("unbounded", None, None, s.iterations) for s in solutions]
    return phase1, solutions, bases


def forged_exogeneity_lift(self, phase1, solutions):
    # 1e-6 moves from (y, 0) to (y', 0) and from (y', 1) to (y, 1), where
    # y = (0, 0, 0) and y' = (0, 0, 1) agree on arms 0 and 1: every base,
    # experimental and observational row holds, and P(Y_2=v, X=l) is off by
    # 1e-6 for v, l in {0, 1}
    point, lifted = honest_lift(self, phase1, solutions)
    forged = []
    for s in lifted:
        w = s.witness.copy()
        w[[0, 4]] -= 1e-6
        w[[3, 1]] += 1e-6
        forged.append(pb.LpSolution(s.status, None, w, s.iterations))
    return point, forged


@pytest.mark.parametrize("owner, name, forged, refused", [
    (simplex._Couplings, "lift", forged_lift, None),
    (simplex._Couplings, "lift", forged_exogeneity_lift,
     r"minimize witness violates row exogeneity\(2,[01],[01]\) by 1e-06"),
    (simplex, "_two_phase", forged_two_phase, None),
    (simplex, "_two_phase", forged_infeasible, None),
    (simplex, "_two_phase", forged_unbounded, None)],
    ids=["witness-off-its-rows", "witness-off-an-exogeneity-row", "lost-precision", "infeasible",
         "phase-2-without-optimum"])
def test_a_failed_q_form_leaves_the_full_lp(monkeypatch, coupled, owner, name, forged, refused):
    # the exogeneity block is compiled once, for the full LP that decides
    dims = pb.Dims(3, 3)
    exp, obs = tables(3, 3, 15)
    args = dict(exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())
    q = query(dims, "event")
    cs = pb.assemble_constraints(dims, **args)
    c = objective(q, dims, obs)
    want = simplex._solve(cs, [(c, "minimize"), (c, "maximize")])[1]
    monkeypatch.setattr(owner, name, forged)
    blocks, refusals = exogeneity_blocks(monkeypatch), []
    honest_certified = simplex._certified

    def certified(constraints, x, what):
        try:
            return honest_certified(constraints, x, what)
        except pb.SolverFailureError as exc:
            refusals.append(str(exc))
            raise

    monkeypatch.setattr(simplex, "_certified", certified)
    res = pb.bound(dims, q, **args)
    assert coupled == [2] and len(blocks) == 1
    assert digest(res) == tuple((s.value.hex(), hashlib.sha256(s.witness.tobytes()).hexdigest()) for s in want)
    if refused is not None:
        assert len(refusals) == 1 and re.fullmatch(refused + r" \(tolerance 1e-08\)", refusals[0]), refusals


def exogeneity_blocks(monkeypatch):
    """The arguments of each ``compile_exogeneity`` call from now on in the test."""
    seen, honest = [], compile.compile_exogeneity

    def block(*args):
        seen.append(args)
        return honest(*args)

    monkeypatch.setattr(compile, "compile_exogeneity", block)
    return seen


@pytest.mark.parametrize("mix", ["exp+obs+exogeneity", "obs+exogeneity"])
def test_a_q_form_bound_compiles_no_exogeneity_block(monkeypatch, coupled, mix):
    dims = pb.Dims(5, 3)
    exp, obs = tables(5, 3, 17)
    blocks = exogeneity_blocks(monkeypatch)
    res = pb.bound(dims, query(dims, "event"), exp=exp if mix.startswith("exp") else None, obs=obs,
                   assumptions=pb.AssumptionSet().with_exogeneity())
    assert res.status == "ok" and coupled == [2] and blocks == []


@pytest.mark.parametrize("d_x, d_y", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (3, 4), (4, 4), (5, 3)])
def test_the_factored_exogeneity_rows_are_the_dense_ones(d_x, d_y):
    # the residuals of every row, in the same order and with the same tags, for
    # random vectors on the simplex and the lifted witnesses of the q-form; with
    # the exogeneity rows before monotone rows and with a zero arm as well
    dims = pb.Dims(d_x, d_y)
    exp, obs = tables(d_x, d_y, 90 + d_x * d_y)
    zero = tables(d_x, d_y, 90, px=np.append(0.0, np.full(d_x - 1, 1 / (d_x - 1))))[1]
    rng = np.random.default_rng(d_x * d_y)
    cases = [(exp, obs, pb.AssumptionSet()), (None, obs, pb.preset("prob_mtr(0.2,0.9)", dims)),
             (None, zero, pb.AssumptionSet())]
    for exp_k, obs_k, assumptions in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the zero arm warns
            full = pb.assemble_constraints(dims, exp=exp_k, obs=obs_k, assumptions=assumptions.with_exogeneity())
            rows = pb.assemble_constraints(dims, exp=exp_k, obs=obs_k, assumptions=assumptions)
            monotone = sum(tag.startswith("monotone") for tag in rows.provenance)
            factored = compile.FactoredExogeneity(rows, len(rows) - monotone, obs_k)
        assert factored.provenance == full.provenance
        vectors = list(rng.dirichlet(np.ones(dims.param_count()), size=4))
        if obs_k is obs and not assumptions.terms:
            res = pb.bound(dims, query(dims, "posterior_effect"), exp=exp_k, obs=obs_k,
                           assumptions=assumptions.with_exogeneity())
            vectors += [res.lower_witness, res.upper_witness]
        for x in vectors:
            got, want = factored.residuals(x), full.residuals(x)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15


START_DIMS = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (3, 4), (4, 4), (5, 3)]


def seeded_marginals(d_x, d_y, seed):
    """Arm marginals from ``default_rng(seed)`` where arm 0 has no mass on
    level ``seed % d_y`` and arm 1 puts arm 0's mass on level 0, so that
    their first breakpoints tie."""
    rng = np.random.default_rng(seed)
    m = rng.dirichlet(np.ones(d_y), size=d_x)
    m[0, seed % d_y] = 0.0
    m[0] /= m[0].sum()
    m[1, 1:] *= (1.0 - m[0, 0]) / m[1, 1:].sum()
    m[1, 0] = m[0, 0]
    return m


@pytest.mark.parametrize("d_x, d_y", START_DIMS)
def test_the_start_is_a_coupling_on_at_most_the_row_count_of_cells(d_x, d_y):
    Y = np.indices((d_y,) * d_x).reshape(d_x, -1)
    for seed in range(6):
        m = seeded_marginals(d_x, d_y, seed)
        cells, masses = simplex._comonotone(m)
        assert cells.size <= 1 + d_x * (d_y - 1)
        assert (masses > 0.0).all()
        for k in range(d_x):
            np.testing.assert_allclose(np.bincount(Y[k, cells], masses, minlength=d_y), m[k], rtol=0, atol=1e-12)


@pytest.fixture
def phase1(monkeypatch):
    """``(pivots before, pivots in)`` each phase-1 run of the test."""
    seen, honest = [], simplex._Tableau.run

    def run(self, allowed):
        before = self.iterations
        try:
            return honest(self, allowed)
        finally:
            if allowed > self.art0:
                seen.append((before, self.iterations - before))

    monkeypatch.setattr(simplex._Tableau, "run", run)
    return seen


@pytest.mark.parametrize("d_x, d_y", START_DIMS)
def test_a_start_with_one_cell_per_row_leaves_phase_1_no_pivot(d_x, d_y, phase1):
    # the event reads arms 0 and 1, so the q-form has a row per level below
    # the top of each of them, and the base row
    dims = pb.Dims(d_x, d_y)
    exp, obs = tables(d_x, d_y, 60 + d_x * d_y)
    rows = 1 + 2 * (d_y - 1)
    assert simplex._comonotone((obs.table / obs.x_marginal()[:, None])[:2])[0].size == rows
    res = pb.bound(dims, query(dims, "event"), exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())
    assert res.status == "ok" and phase1 == [(rows, 0)]


def interval(dims, exp, obs):
    res = pb.bound(dims, query(dims, "moment"), exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())
    return res.lower, res.upper


@pytest.mark.parametrize("d_x, d_y", [(3, 3), (5, 3), (4, 4)])
def test_a_forged_start_falls_back_to_the_plain_start(d_x, d_y, monkeypatch, phase1):
    dims = pb.Dims(d_x, d_y)
    exp, obs = tables(d_x, d_y, 70 + d_x * d_y)
    px = obs.x_marginal()
    m = obs.table / px[:, None]
    read = m[:2]  # the moment of Y_1 - Y_0 reads arms 0 and 1
    honest = simplex._comonotone
    cells = honest(read)[0]
    want = interval(dims, exp, obs)

    def forge(start):
        # the read arms start from ``start``; the other arms keep their glue
        monkeypatch.setattr(simplex, "_comonotone", lambda marginals: (start, np.ones(start.size))
                            if np.array_equal(marginals, read) else honest(marginals))
        del phase1[:]
        return interval(dims, exp, obs)

    plain = forge(np.zeros(0, dtype=np.intp))
    plain_pivots = list(phase1)
    assert plain_pivots[0][0] == 0 and plain_pivots[0][1] > 0
    # a dependent column, the first one again, is skipped, and the others fill every row
    got = forge(np.insert(cells, 1, cells[0]))
    assert phase1 == [(cells.size, 0)]
    # the comonotone coupling of other marginals leaves a basic value negative
    other = honest(np.random.default_rng(0).dirichlet(np.ones(d_y), size=2))[0]
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())
    coupled = simplex._couple(cs, [(pb.collapse_to_objective(query(dims, "moment"), dims), "minimize")], px, m)
    assert coupled.read == (0, 1) and coupled.A.shape == (cells.size, d_y**2)
    assert not simplex._Tableau(coupled).enter(other)
    negative = forge(other)
    assert phase1 == plain_pivots
    for forged in (plain, got, negative):
        assert abs(forged[0] - want[0]) <= 1e-12 and abs(forged[1] - want[1]) <= 1e-12


def couplings_of(dims, obs, q, cs):
    """The q-form ``bound()`` states for ``q``."""
    px = obs.x_marginal()
    c = objective(q, dims, obs)
    return simplex._couple(cs, [(c, "minimize"), (c, "maximize")], px, obs.table / px[:, None])


def test_the_q_form_reads_only_the_arms_its_objective_varies_along():
    dims = pb.Dims(5, 3)
    exp, obs = tables(5, 3, 17)
    exogenous = pb.AssumptionSet().with_exogeneity()
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=exogenous)
    m = obs.table / obs.x_marginal()[:, None]
    for a, b, l in ((0, 1, 4), (3, 1, 3), (4, 2, 0)):
        for q, read in ((pb.build_event_query(dims, {a: 0, b: {"ge": 1}}), {a, b}),
                        (pb.build_moment_query(dims, 1, (a, b)), {a, b}),
                        (pb.build_posterior_effect_query(dims, (a, b), (l, 1)), {a, b, l})):
            coupled = couplings_of(dims, obs, q, cs)
            assert coupled.read == tuple(sorted(read))
            assert coupled.A.shape == (1 + 2 * len(read), 3 ** len(read))
            tags = tuple(f"marginal({k},{j})" for k in sorted(read) for j in (0, 1))
            assert coupled.provenance == ("base-sum",) + tags
            np.testing.assert_array_equal(coupled.rhs, np.append(1.0, m[sorted(read), :-1]))
            assert coupled.other.size == 3 ** (5 - len(read))
    # an event on one arm reads that arm alone, and is identified
    res = pb.bound(dims, pb.build_event_query(dims, {2: 0}), exp=exp, obs=obs, assumptions=exogenous)
    assert couplings_of(dims, obs, pb.build_event_query(dims, {2: 0}), cs).read == (2,)
    assert abs(res.lower - m[2, 0]) <= 1e-12 and abs(res.upper - m[2, 0]) <= 1e-12


def test_a_constant_objective_reads_no_arm_and_keeps_its_one_point_interval(coupled):
    dims = pb.Dims(4, 3)
    exp, obs = tables(4, 3, 18)
    q = pb.build_moment_query(dims, 0, (1, 0))  # (Y_1 - Y_0)**0 is 1 on every cell
    res = pb.bound(dims, q, exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())
    assert coupled == [2] and res.status == "ok"
    assert abs(res.lower - 1.0) <= 1e-12 and abs(res.upper - 1.0) <= 1e-12
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())
    assert simplex._certified(cs, res.lower_witness, "witness") is res.lower_witness
    assert couplings_of(dims, obs, q, cs).read == ()


# bound() of a raw query with a random coefficient on every cell, and the
# SHA-256 of its q-form's arrays, which are as they were before the q-form
# was projected on the arms its objective reads, and of its plan of arm groups
RAW = {
    (4, 3, 21): ("ee030f339b5ffb9532d0cd7b34731b39062f88b2decbffb76738b2e237e22138",
                 (("-0x1.50778994f497ep+0", "948db0be5c7e4a70329c5ab29ab66abaac8f50e0fd36ca05e3cbf45dac478573"),
                  ("0x1.46566cd748506p+0", "3660c82fef3e21ef30e656a1b110e58cdc01dcf1d22e827439b7d9b9df7470d1"))),
    (3, 4, 22): ("84116da3f0e6022540a33f7afd15ec6c5e12652cfbe5236b8c1375d8443d6dad",
                 (("-0x1.465975a3c97eep+0", "b3d8fff28f0652f45bec474d22631d819a902ea654946e07a0a7843cdb7db9dd"),
                  ("0x1.4bc573738951fp+0", "2a21e59f5c24380839a77798e5e90b96069cbcd14e91a5448cb4ef060244203b"))),
}


@pytest.mark.parametrize("case", list(RAW), ids=lambda c: f"{c[0]}x{c[1]}")
def test_a_query_on_every_arm_keeps_the_q_form_over_every_outcome_vector(case):
    d_x, d_y, seed = case
    dims = pb.Dims(d_x, d_y)
    exp, obs = tables(d_x, d_y, seed)
    q = pb.QuerySpec(np.random.default_rng(seed).normal(size=dims.full_shape()))
    args = dict(exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())
    coupled = couplings_of(dims, obs, q, pb.assemble_constraints(dims, **args))
    assert coupled.read == tuple(range(d_x))
    # the glue is the point mass on no arm, in arm order: each coupling lifts as it is
    assert coupled.other.tolist() == [1.0] and coupled.order.tolist() == list(range(d_y**d_x))
    digest_of = hashlib.sha256()
    for arr in (coupled.A, coupled.rhs, coupled.kind, coupled.start) + tuple(c for c, _ in coupled.objectives):
        digest_of.update(np.ascontiguousarray(arr).tobytes())
    digest_of.update(repr(coupled.provenance).encode())
    digest_of.update(repr([arms.tolist() for arms in coupled.plan]).encode())
    assert (digest_of.hexdigest(), digest(pb.bound(dims, q, **args))) == RAW[case]


def projected_query(dims, kind, rng):
    """A query of ``kind`` on two arms drawn from ``rng``, given a third for a posterior effect."""
    a, b = rng.choice(dims.d_x, 2, replace=False).tolist()
    if kind == "event":
        return pb.build_event_query(dims, {a: 0, b: {"ge": 1}})
    if kind == "moment":
        return pb.build_moment_query(dims, 2, (a, b))
    return pb.build_posterior_effect_query(dims, (a, b), (int(rng.integers(dims.d_x)), 1))


@pytest.mark.parametrize("kind", ["event", "moment", "posterior_effect"])
@pytest.mark.parametrize("d_x, d_y", [(3, 3), (4, 3), (3, 4), (4, 4), (5, 3)])
def test_the_projected_q_form_equals_the_full_lp_and_lifts_couplings(d_x, d_y, kind, coupled, monkeypatch):
    glued, honest = [], simplex._Couplings.glued

    def glue(self, coupling):
        glued.append(honest(self, coupling))
        return glued[-1]

    monkeypatch.setattr(simplex._Couplings, "glued", glue)
    dims = pb.Dims(d_x, d_y)
    exogenous = pb.AssumptionSet().with_exogeneity()
    highs = tool("stress").highs_solver()
    Y = np.indices((d_y,) * d_x).reshape(d_x, -1)
    rng = np.random.default_rng(d_x * d_y)
    for seed in range(5):
        exp, obs = tables(d_x, d_y, 80 + seed)
        m = obs.table / obs.x_marginal()[:, None]
        q = projected_query(dims, kind, rng)
        del coupled[:], glued[:]
        res = pb.bound(dims, q, exp=exp, obs=obs, assumptions=exogenous)
        assert coupled == [2] and res.status == "ok" and len(glued) >= 3
        for q_l in glued:
            assert (q_l >= 0.0).all()
            for k in range(d_x):
                np.testing.assert_allclose(np.bincount(Y[k], q_l, minlength=d_y), m[k], rtol=0, atol=1e-12)
        cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=exogenous)
        c = objective(q, dims, obs)
        full = simplex._two_phase(cs, [(c, "minimize"), (c, "maximize")])[1]
        assert abs(res.lower - full[0].value) <= 1e-9 and abs(res.upper - full[1].value) <= 1e-9
        if highs is not None:
            ref = highs(cs, c)
            assert abs(res.lower - ref[0]) <= 1e-9 and abs(res.upper - ref[1]) <= 1e-9
