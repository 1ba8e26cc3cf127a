import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pobounds as pb
from pobounds.compile import ConstraintSet
from pobounds.errors import ConfigError, ValidationError

from oracles import CellIndex, admits, cells, constraint_residual, flatten_index


def uniform_exp(dims):
    return pb.ExperimentalMarginals(np.full((dims.d_x, dims.d_y), 1 / dims.d_y))


def uniform_obs(dims):
    return pb.ObservationalJoint(np.full((dims.d_x, dims.d_y), 1 / (dims.d_x * dims.d_y)))


def test_base_row():
    for d in [(2, 2), (3, 3), (2, 3)]:
        dims = pb.Dims(*d)
        cs = pb.compile_base(dims)
        assert len(cs) == 1
        assert cs.kind[0] == "eq" and cs.rhs[0] == 1.0 and cs.provenance == ("base-sum",)
        assert np.array_equal(cs.A, np.ones((1, dims.param_count())))


@pytest.mark.parametrize("d,expected", [((2, 2), 2), ((3, 3), 6), ((2, 3), 4)])
def test_experimental_row_counts(d, expected):
    dims = pb.Dims(*d)
    cs = pb.compile_experimental(dims, uniform_exp(dims))
    assert len(cs) == expected == dims.d_x * (dims.d_y - 1)


@pytest.mark.parametrize("d,expected", [((2, 2), 3), ((3, 3), 8), ((2, 3), 5)])
def test_observational_row_counts(d, expected):
    dims = pb.Dims(*d)
    cs = pb.compile_observational(dims, uniform_obs(dims))
    assert len(cs) == expected == dims.d_x * dims.d_y - 1


def test_uniform_parameters_satisfy_uniform_data():
    dims = pb.Dims(3, 3)
    p = np.full(dims.param_count(), 1 / dims.param_count())
    cs = pb.compile_base(dims).merge(
        pb.compile_experimental(dims, uniform_exp(dims)),
        pb.compile_observational(dims, uniform_obs(dims)),
        pb.compile_exogeneity(dims, uniform_obs(dims)),
    )
    assert constraint_residual(cs, p) < 1e-12


def test_invalid_distribution_rejected():
    dims = pb.Dims(2, 2)
    bad = pb.ExperimentalMarginals(np.array([[0.7, 0.2], [0.5, 0.5]]))
    with pytest.raises(ValidationError):
        pb.compile_experimental(dims, bad)


def test_point_mass_obs_pins_all_mass():
    # P(X=0, Y=0) = 1 forces every parameter off {x=0, y_0=0} to zero
    dims = pb.Dims(2, 2)
    obs = pb.ObservationalJoint(np.array([[1.0, 0.0], [0.0, 0.0]]))
    cs = pb.compile_base(dims).merge(pb.compile_observational(dims, obs))
    off_event = np.ones(dims.param_count())
    for y_vec, x in cells(dims):
        if x == 0 and y_vec[0] == 0:
            off_event[flatten_index(CellIndex(y_vec, x), dims)] = 0.0
    sol = pb.solve(pb.LpProblem(off_event, cs, "maximize"))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-9)


def test_exogeneity_skips_degenerate_arm():
    dims = pb.Dims(2, 2)
    obs = pb.ObservationalJoint(np.array([[0.6, 0.4], [0.0, 0.0]]))
    with pytest.warns(UserWarning, match="degenerate"):
        cs = pb.compile_exogeneity(dims, obs)
    # only l=0 rows survive, for each of the 2 POs x 2 values
    assert len(cs) == 4
    assert all("exogeneity" in p for p in cs.provenance)


def test_exogeneity_satisfied_by_product_distribution():
    dims = pb.Dims(2, 2)
    rng = np.random.default_rng(5)
    po = rng.dirichlet(np.ones(4))  # joint over (y_0, y_1)
    px = np.array([0.3, 0.7])
    p = np.zeros(dims.param_count())
    for i, y_vec in enumerate(itertools.product(range(2), repeat=2)):
        for x in range(2):
            p[flatten_index(CellIndex(y_vec, x), dims)] = po[i] * px[x]
    obs_table = np.zeros((2, 2))
    for y_vec, x in cells(dims):
        obs_table[x, y_vec[x]] += p[flatten_index(CellIndex(y_vec, x), dims)]
    cs = pb.compile_exogeneity(dims, pb.ObservationalJoint(obs_table))
    assert len(cs) == 8
    assert constraint_residual(cs, p) < 1e-12


def test_indicator_mask_unbounded_all_ones():
    dims = pb.Dims(2, 3)
    term = pb.MonotoneTerm.from_pairs(2, {})
    assert pb.indicator_mask(dims, term).sum() == dims.param_count()


def test_indicator_mask_ordering_pair():
    # Y_0 <= Y_1 at (2,2): admitted pairs enumerated by hand
    dims = pb.Dims(2, 2)
    term = pb.MonotoneTerm.from_pairs(2, {(1, 0): (0.0, np.inf)})
    mask = pb.indicator_mask(dims, term)
    admitted = {
        y_vec
        for y_vec in itertools.product(range(2), repeat=2)
        if mask[flatten_index(CellIndex(y_vec, 0), dims)] == 1.0
    }
    assert admitted == {(0, 0), (0, 1), (1, 1)}


def test_indicator_mask_unit_increment_chains():
    # brute-force oracle: count outcome triples passing the window predicate
    dims = pb.Dims(3, 3)
    term = pb.preset("mite", dims).terms[0]
    expected = {
        y_vec
        for y_vec in itertools.product(range(3), repeat=3)
        if all(0 <= y_vec[s] - y_vec[t] <= 1 for s in range(3) for t in range(s))
    }
    assert len(expected) == 7
    mask = pb.indicator_mask(dims, term)
    got = {
        y_vec
        for y_vec in itertools.product(range(3), repeat=3)
        if mask[flatten_index(CellIndex(y_vec, 1), dims)] == 1.0
    }
    assert got == expected


def test_monotonicity_empty():
    dims = pb.Dims(2, 2)
    assert len(pb.compile_monotonicity(dims, pb.AssumptionSet())) == 0


def test_monotonicity_sure_ordering_is_mask_equality():
    # L = U = 1 emits the binding side only; together with the base row the
    # feasible set equals {mask . p = 1}
    dims = pb.Dims(2, 2)
    assumptions = pb.preset("pairwise(1,0)", dims)
    mono = pb.compile_monotonicity(dims, assumptions)
    assert mono.provenance == ("monotone(0,lower)",)
    cs = pb.compile_base(dims).merge(mono)
    mask = pb.indicator_mask(dims, assumptions.terms[0])
    for sense in ("minimize", "maximize"):
        sol = pb.solve(pb.LpProblem(mask, cs, sense))
        assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_monotonicity_vacuous_window_emits_nothing():
    dims = pb.Dims(2, 2)
    term = pb.MonotoneTerm.from_pairs(2, {(1, 0): (0.0, 1.0)}, prob_lower=0.0, prob_upper=1.0)
    assert len(pb.compile_monotonicity(dims, pb.AssumptionSet((term,)))) == 0


def test_monotonicity_two_sided_window():
    dims = pb.Dims(2, 2)
    term = pb.MonotoneTerm.from_pairs(2, {(1, 0): (0.0, np.inf)}, prob_lower=0.4, prob_upper=0.9)
    cs = pb.compile_monotonicity(dims, pb.AssumptionSet((term,)))
    assert sorted(cs.provenance) == ["monotone(0,lower)", "monotone(0,upper)"]
    assert set(cs.rhs) == {0.9, -0.4}


def test_preset_mtr_windows():
    dims = pb.Dims(3, 3)
    term = pb.preset("mtr", dims).terms[0]
    assert term.prob_lower == term.prob_upper == 1.0
    assert term.d_lower[1, 0] == 0.0 and term.d_lower[2, 1] == 0.0
    assert np.isinf(term.d_upper[1, 0]) and np.isneginf(term.d_lower[2, 0])


def test_preset_mite_windows():
    dims = pb.Dims(3, 4)
    term = pb.preset("mite", dims).terms[0]
    for s in range(3):
        for t in range(s):
            assert term.d_lower[s, t] == 0.0 and term.d_upper[s, t] == 1.0


def test_preset_epsilon_harm():
    dims = pb.Dims(2, 2)
    aset = pb.preset("epsilon_harm(0.05)", dims)
    term = aset.terms[0]
    assert term.prob_lower == 0.0 and term.prob_upper == 0.05
    mask = pb.indicator_mask(dims, term)
    selected = {
        y_vec
        for y_vec in itertools.product(range(2), repeat=2)
        if mask[flatten_index(CellIndex(y_vec, 0), dims)] == 1.0
    }
    assert selected == {(1, 0)}


def test_preset_prob_mtr():
    dims = pb.Dims(3, 3)
    term = pb.preset("prob_mtr(0.9,1.0)", dims).terms[0]
    assert term.prob_lower == 0.9 and term.prob_upper == 1.0


def test_preset_errors():
    dims = pb.Dims(3, 3)
    with pytest.raises(ConfigError):
        pb.preset("nonsense", dims)
    with pytest.raises(ConfigError):
        pb.preset("pairwise(1)", dims)
    with pytest.raises(ConfigError):
        pb.preset("epsilon_harm(0.1)", dims)  # d_x != 2


def test_truth_satisfies_compiled_rows(truth_a):
    # feeding a truth's own marginals back in, the truth satisfies every row
    dims = truth_a.dims
    cs = pb.assemble_constraints(
        dims, exp=truth_a.po_marginals(), obs=truth_a.xy_marginal(), assumptions=pb.preset("mtr", dims)
    )
    assert constraint_residual(cs, truth_a.param_vector()) < 1e-9


def test_exogenous_truth_satisfies_exogeneity_rows(truth_b):
    dims = truth_b.dims
    cs = pb.compile_exogeneity(dims, truth_b.xy_marginal())
    assert constraint_residual(cs, truth_b.param_vector()) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    lo1=st.integers(-3, 1),
    width1=st.integers(0, 4),
    shrink_lo=st.integers(0, 2),
    shrink_hi=st.integers(0, 2),
)
def test_mask_monotone_under_window_shrinking(lo1, width1, shrink_lo, shrink_hi):
    dims = pb.Dims(2, 3)
    hi1 = lo1 + width1
    wide = pb.MonotoneTerm.from_pairs(2, {(1, 0): (lo1, hi1)})
    lo2 = lo1 + shrink_lo
    hi2 = hi1 - shrink_hi
    if lo2 > hi2:
        return
    narrow = pb.MonotoneTerm.from_pairs(2, {(1, 0): (lo2, hi2)})
    m_wide = pb.indicator_mask(dims, wide)
    m_narrow = pb.indicator_mask(dims, narrow)
    assert np.all(m_narrow <= m_wide)


def test_constraint_row_invariants():
    dims = pb.Dims(2, 2)
    row = np.ones((1, 8))
    assert len(ConstraintSet(dims, row, [1.0], ["eq"], ["base-sum"])) == 1
    with pytest.raises(ValidationError):
        ConstraintSet(dims, np.ones((1, 7)), [1.0], ["eq"], ["base-sum"])
    with pytest.raises(ValidationError):
        ConstraintSet(dims, row, [1.0, 0.0], ["eq"], ["base-sum"])
    with pytest.raises(ValidationError):
        ConstraintSet(dims, row, [np.inf], ["eq"], ["base-sum"])
    with pytest.raises(ValidationError):
        ConstraintSet(dims, row, [np.nan], ["eq"], ["base-sum"])
    with pytest.raises(ValidationError):
        ConstraintSet(dims, row, [1.0], ["what"], ["base-sum"])
    with pytest.raises(ValidationError):
        ConstraintSet(dims, np.zeros((1, 8)), [1.0], ["eq"], ["base-sum"])


def reference_rows(dims, exp=None, obs=None, assumptions=pb.AssumptionSet(), slack=None):
    """The per-cell loops the broadcast compile replaced, kept as its reference.

    Returns dense ``(A, rhs, kind, provenance)`` in the order
    :func:`pb.assemble_constraints` emits rows.
    """
    def flat(y_vec, x):
        return flatten_index(CellIndex(y_vec, x), dims)

    rows = [({i: 1.0 for i in range(dims.param_count())}, 1.0, "eq", "base-sum")]
    if exp is not None:
        for k in range(dims.d_x):
            for j in range(dims.d_y - 1):
                coeffs = {flat(y_vec, x): 1.0 for y_vec, x in cells(dims) if y_vec[k] == j}
                rows.append((coeffs, float(exp.table[k, j]), "eq", f"experimental({k},{j})"))
    if obs is not None:
        for l in range(dims.d_x):
            for m in range(dims.d_y):
                if (l, m) == (dims.d_x - 1, dims.d_y - 1):
                    continue
                coeffs = {flat(y_vec, x): 1.0 for y_vec, x in cells(dims) if x == l and y_vec[l] == m}
                rows.append((coeffs, float(obs.table[l, m]), "eq", f"observational({l},{m})"))
    if assumptions.exogeneity:
        px = obs.x_marginal()
        for k in range(dims.d_x):
            for v in range(dims.d_y):
                for l in range(dims.d_x):
                    if px[l] <= 0.0:
                        continue
                    coeffs = {}
                    for y_vec, x in cells(dims):
                        c = (1.0 if x == l else 0.0) - float(px[l])
                        if y_vec[k] == v and c != 0.0:
                            coeffs[flat(y_vec, x)] = c
                    rows.append((coeffs, 0.0, "eq", f"exogeneity({k},{v},{l})"))
    for w, term in enumerate(assumptions.terms):
        admitted = [flat(y_vec, x) for y_vec, x in cells(dims) if admits(term, y_vec)]
        if term.prob_upper < 1.0 and admitted:
            rows.append(({i: 1.0 for i in admitted}, float(term.prob_upper), "le", f"monotone({w},upper)"))
        if term.prob_lower > 0.0:
            rows.append(({i: -1.0 for i in admitted}, -float(term.prob_lower), "le", f"monotone({w},lower)"))
    if slack is not None:
        relaxed = []
        for coeffs, rhs, kind, tag in rows:
            if kind == "eq" and tag.startswith(("experimental(", "observational(")):
                relaxed.append((coeffs, rhs + slack, "le", tag))
                relaxed.append(({i: -c for i, c in coeffs.items()}, -(rhs - slack), "le", tag))
            else:
                relaxed.append((coeffs, rhs, kind, tag))
        rows = relaxed
    A = np.zeros((len(rows), dims.param_count()))
    for r, (coeffs, _, _, _) in enumerate(rows):
        for i, c in coeffs.items():
            A[r, i] = c
    return A, np.array([r[1] for r in rows]), [r[2] for r in rows], [r[3] for r in rows]


@pytest.mark.parametrize("d", [(2, 2), (2, 3), (3, 3), (4, 3)])
def test_compile_matches_per_cell_reference(d):
    # bit for bit, signed zeros included: the tableau, every pivot and every
    # witness depend on these exact floats
    dims = pb.Dims(*d)
    rng = np.random.default_rng(sum(d))
    p = rng.dirichlet(np.ones(dims.param_count()))
    exp_table = np.zeros((dims.d_x, dims.d_y))
    obs_table = np.zeros((dims.d_x, dims.d_y))
    for y_vec, x in cells(dims):
        mass = p[flatten_index(CellIndex(y_vec, x), dims)]
        exp_table[range(dims.d_x), y_vec] += mass
        obs_table[x, y_vec[x]] += mass
    exp = pb.ExperimentalMarginals(exp_table / exp_table.sum(axis=1, keepdims=True))
    obs = pb.ObservationalJoint(obs_table / obs_table.sum())
    degenerate = obs_table.copy()
    degenerate[0] = 0.0
    degenerate_obs = pb.ObservationalJoint(degenerate / degenerate.sum())
    prob_mtr = pb.preset("prob_mtr(0.3,0.9)", dims)
    cases = [
        dict(exp=exp, obs=obs, assumptions=pb.AssumptionSet(exogeneity=True)),
        dict(obs=degenerate_obs, assumptions=pb.AssumptionSet(exogeneity=True)),
        dict(exp=exp, obs=obs, assumptions=prob_mtr.with_exogeneity()),
        dict(exp=exp, assumptions=pb.preset("mite", dims)),
        dict(exp=exp, obs=obs, assumptions=prob_mtr, slack=0.05),
    ]
    for case in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the degenerate arm warns
            cs = pb.assemble_constraints(dims, **case)
        A, rhs, kind, provenance = reference_rows(dims, **case)
        assert cs.A.tobytes() == A.tobytes()
        assert cs.rhs.tobytes() == rhs.tobytes()
        assert list(cs.kind) == kind
        assert list(cs.provenance) == provenance


def test_monotonicity_unsatisfiable_event():
    # windows individually valid but jointly impossible at this outcome range
    dims = pb.Dims(2, 2)
    term_u = pb.MonotoneTerm.from_pairs(2, {(1, 0): (5.0, 9.0)}, prob_lower=0.0, prob_upper=0.3)
    assert len(pb.compile_monotonicity(dims, pb.AssumptionSet((term_u,)))) == 0
    term_l = pb.MonotoneTerm.from_pairs(2, {(1, 0): (5.0, 9.0)}, prob_lower=0.5, prob_upper=1.0)
    with pytest.raises(ValidationError):
        pb.compile_monotonicity(dims, pb.AssumptionSet((term_l,)))
