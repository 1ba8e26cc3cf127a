import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pobounds as pb
from pobounds import bounds, compile
from pobounds.compile import ConstraintSet
from pobounds.errors import ConfigError, ValidationError

from oracles import CellIndex, cells, constraint_residual, flatten_index, reference_rows


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
    # an argument that is not a number is the preset's error, not int()'s or float()'s
    binary = pb.Dims(2, 2)
    for name, text, what in [("pairwise(x,1)", "'x'", "an integer"), ("pairwise(1.5,0)", "'1.5'", "an integer"),
                             ("pairwise(,1)", "''", "an integer"), ("prob_mtr(abc,1)", "'abc'", "a number"),
                             ("prob_mtr(1, y)", "'y'", "a number"), ("epsilon_harm(z)", "'z'", "a number")]:
        with pytest.raises(ConfigError) as info:
            pb.preset(f"  {name} ", binary)
        assert str(info.value) == f"{name}: argument {text} is not {what}"
    # arguments that are numbers but not valid ones give the term's error, after the preset
    for name, message in [("pairwise(3,0)", "pair (3,0) must satisfy 0 <= t < s < d_x"),
                          ("prob_mtr(nan,1)", "probability window [nan, 1.0] invalid"),
                          ("prob_mtr(1e400,1)", "probability window [inf, 1.0] invalid"),
                          ("epsilon_harm(-1)", "probability window [0.0, -1.0] invalid")]:
        with pytest.raises(ConfigError) as info:
            pb.preset(name, binary)
        assert str(info.value) == f"{name}: {message}"


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


def test_with_rhs_shares_the_rows_and_checks_only_rhs():
    dims = pb.Dims(2, 2)
    cs = pb.compile_base(dims).merge(pb.compile_experimental(dims, uniform_exp(dims)))
    moved = cs.with_rhs([1.0, 0.25, 0.75])
    assert moved.A is cs.A and moved.kind is cs.kind and moved.provenance is cs.provenance
    assert moved.rhs.tolist() == [1.0, 0.25, 0.75] and not moved.rhs.flags.writeable
    with pytest.raises(ValidationError, match="non-finite entry in row experimental\\(1,0\\)"):
        cs.with_rhs([1.0, 0.25, np.inf])
    with pytest.raises(ValidationError, match="3 rows need rhs"):
        cs.with_rhs([1.0, 0.25])


def test_merge_checks_its_dims_and_freezes_the_concatenation():
    dims = pb.Dims(2, 2)
    parts = (pb.compile_base(dims), pb.compile_experimental(dims, uniform_exp(dims)),
             pb.compile_observational(dims, uniform_obs(dims)))
    cs = parts[0].merge(*parts[1:])
    for name in ("A", "rhs", "kind"):
        assert getattr(cs, name).tobytes() == np.concatenate([getattr(p, name) for p in parts]).tobytes()
        assert not getattr(cs, name).flags.writeable
    assert cs.provenance == sum((p.provenance for p in parts), ())
    with pytest.raises(ValidationError, match="different dimensions"):
        cs.merge(pb.compile_base(pb.Dims(2, 3)))


@pytest.mark.parametrize("slack", [None, 0.05])
def test_a_bound_checks_each_part_once_and_not_their_merge(truth_a, monkeypatch, slack):
    # the experimental and observational blocks, the empty monotone part and
    # the base row are checked when their shape is first compiled and never
    # again; the exogeneity block once per bound() that solves the full LP,
    # and not at all in a q-form bound(); the merged system and its relaxed
    # copy under slack not at all
    for block in (pb.compile_base, compile._experimental_rows, compile._observational_rows):
        block.cache_clear()
    bounds._STRUCTURES.clear()
    checked, honest = [], ConstraintSet._check

    def check(self):
        honest(self)
        checked.append(self.provenance[:1])

    monkeypatch.setattr(ConstraintSet, "_check", check)
    dims, obs = truth_a.dims, truth_a.xy_marginal()
    exogenous = pb.AssumptionSet().with_exogeneity()
    event = pb.build_event_query(dims, {0: 0})
    for _ in range(2):
        pb.bound(dims, event, exp=truth_a.po_marginals(), obs=obs, assumptions=exogenous, slack=slack)
    assert checked == [("experimental(0,0)",), ("observational(0,0)",), (), ("base-sum",), ("exogeneity(0,0,0)",),
                       ("exogeneity(0,0,0)",)]
    # tables whose experimental marginals are P(Y=.|X=k): the q-form, unless slack is set
    checked.clear()
    exp = pb.ExperimentalMarginals(obs.table / obs.x_marginal()[:, None])
    pb.bound(dims, event, exp=exp, obs=obs, assumptions=exogenous, slack=slack)
    assert checked == ([] if slack is None else [("exogeneity(0,0,0)",)])


@pytest.mark.parametrize("d", [(2, 2), (3, 3), (5, 3)])
def test_the_data_free_blocks_are_built_once_per_dims_and_read_only(d):
    def blocks(dims):
        return (pb.compile_base(dims), compile._experimental_rows(dims), compile._observational_rows(dims))

    dims = pb.Dims(*d)
    for block, again in zip(blocks(dims), blocks(pb.Dims(*d))):
        assert block is again
        for arr in (block.A, block.rhs, block.kind):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block.A[0, 0] = 2.0
    assert compile._exogeneity_groups(dims) is compile._exogeneity_groups(pb.Dims(*d))
    assert not any(arr.flags.writeable for arr in compile._exogeneity_groups(dims))
    # a set with no monotone term has an empty part
    empty = pb.compile_monotonicity(dims, pb.AssumptionSet())
    assert len(empty) == 0 and empty.A.shape == (0, dims.param_count()) and not empty.A.flags.writeable
    # a compiled part shares its block's rows and adds only the table's right-hand side
    for part, block in ((pb.compile_experimental(dims, uniform_exp(dims)), blocks(dims)[1]),
                        (pb.compile_observational(dims, uniform_obs(dims)), blocks(dims)[2])):
        assert part.A is block.A and part.kind is block.kind and part.provenance is block.provenance
        assert not part.rhs.flags.writeable and part.rhs.any()


def reference_cases(dims, seed):
    """Input sets over tables of a random joint: exogeneity with and without a
    degenerate arm, ``prob_mtr``, ``mite`` and ``slack``."""
    rng = np.random.default_rng(seed)
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
    return [
        dict(exp=exp, obs=obs, assumptions=pb.AssumptionSet(exogeneity=True)),
        dict(obs=degenerate_obs, assumptions=pb.AssumptionSet(exogeneity=True)),
        dict(exp=exp, obs=obs, assumptions=prob_mtr.with_exogeneity()),
        dict(exp=exp, assumptions=pb.preset("mite", dims)),
        dict(exp=exp, obs=obs, assumptions=prob_mtr, slack=0.05),
    ]


def assert_matches_reference(cs, dims, case):
    A, rhs, kind, provenance = reference_rows(dims, **case)
    assert cs.A.tobytes() == A.tobytes()
    assert cs.rhs.tobytes() == rhs.tobytes()
    assert list(cs.kind) == kind
    assert list(cs.provenance) == provenance


@pytest.mark.parametrize("d", [(2, 2), (2, 3), (3, 3), (4, 3)])
def test_compile_matches_per_cell_reference(d):
    # bit for bit, signed zeros included: the tableau, every pivot and every
    # witness depend on these exact floats
    dims = pb.Dims(*d)
    for case in reference_cases(dims, sum(d)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the degenerate arm warns
            cs = pb.assemble_constraints(dims, **case)
        assert_matches_reference(cs, dims, case)


@pytest.mark.parametrize("d", [(2, 2), (2, 3), (3, 3), (4, 3)])
def test_structure_filled_with_other_tables_matches_reference(d):
    # the structure of a shape is compiled on its first tables and then only
    # filled in with the right-hand side of others, levels included: bit for
    # bit the rows compiled on the new tables, with the exogeneity rows of
    # their own P(X=l) under exogeneity
    dims = pb.Dims(*d)
    firsts, cases = reference_cases(dims, sum(d)), reference_cases(dims, 100 + sum(d))
    # other levels on the same sides of the same term
    firsts.append(dict(exp=firsts[-1]["exp"], obs=firsts[-1]["obs"], assumptions=pb.preset("prob_mtr(0.3,0.9)", dims)))
    cases.append(dict(exp=cases[-1]["exp"], obs=cases[-1]["obs"], assumptions=pb.preset("prob_mtr(0.6,0.7)", dims)))
    for first, case in zip(firsts, cases):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the degenerate arm warns
            bounds._system(dims, first.get("exp"), first.get("obs"), first["assumptions"], first.get("slack"))
            before = bounds._structure(dims, "exp" in first, "obs" in first, "slack" in first, first["assumptions"])
            count = len(bounds._STRUCTURES)
            system = bounds._system(dims, case.get("exp"), case.get("obs"), case["assumptions"], case.get("slack"))
            cs = system.full() if isinstance(system, compile.FactoredExogeneity) else system
        structure = bounds._structure(dims, "exp" in case, "obs" in case, "slack" in case, case["assumptions"])
        assert structure is before and len(bounds._STRUCTURES) == count
        assert_matches_reference(cs, dims, case)
        if not case["assumptions"].exogeneity:
            assert cs.A is structure.rows.A and cs.kind is structure.rows.kind
    bad = np.full((dims.d_x, dims.d_y), 1 / dims.d_y)
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError, match="invalid experimental table"):
        bounds._system(dims, pb.ExperimentalMarginals(bad), case.get("obs"), case["assumptions"], None)


def test_monotonicity_unsatisfiable_event():
    # windows individually valid but jointly impossible at this outcome range
    dims = pb.Dims(2, 2)
    term_u = pb.MonotoneTerm.from_pairs(2, {(1, 0): (5.0, 9.0)}, prob_lower=0.0, prob_upper=0.3)
    assert len(pb.compile_monotonicity(dims, pb.AssumptionSet((term_u,)))) == 0
    term_l = pb.MonotoneTerm.from_pairs(2, {(1, 0): (5.0, 9.0)}, prob_lower=0.5, prob_upper=1.0)
    with pytest.raises(ValidationError):
        pb.compile_monotonicity(dims, pb.AssumptionSet((term_l,)))
