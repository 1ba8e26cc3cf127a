import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pobounds as pb
from pobounds.errors import ValidationError
from pobounds.model import cell_grid

from oracles import CellIndex, admits, flatten_index, unflatten_index


def test_param_count():
    assert pb.Dims(3, 3).param_count() == 81
    assert pb.Dims(2, 2).param_count() == 8
    assert pb.Dims(2, 3).param_count() == 18


def test_dims_rejects_degenerate():
    with pytest.raises(ValidationError):
        pb.Dims(1, 3)
    with pytest.raises(ValidationError):
        pb.Dims(2, 1)


def test_flatten_first_and_last():
    dims = pb.Dims(2, 2)
    assert flatten_index(CellIndex((0, 0), 0), dims) == 0
    assert flatten_index(CellIndex((1, 1), 1), dims) == 7


def test_flatten_matches_lexicographic_enumeration():
    # independent oracle: enumerate all cells lexicographically and look
    # the tuple up by position
    dims = pb.Dims(3, 3)
    order = [(y_vec, x) for y_vec in itertools.product(range(3), repeat=3) for x in range(3)]
    assert order.index(((0, 0, 1), 2)) == 5
    assert flatten_index(CellIndex((0, 0, 1), 2), dims) == 5
    for i, (y_vec, x) in enumerate(order):
        assert flatten_index(CellIndex(y_vec, x), dims) == i


def test_unflatten_examples():
    dims = pb.Dims(2, 2)
    assert unflatten_index(0, dims) == CellIndex((0, 0), 0)
    assert unflatten_index(7, dims) == CellIndex((1, 1), 1)
    assert unflatten_index(80, pb.Dims(3, 3)) == CellIndex((2, 2, 2), 2)


def test_index_range_errors():
    dims = pb.Dims(2, 2)
    with pytest.raises(ValidationError):
        flatten_index(CellIndex((0, 2), 0), dims)
    with pytest.raises(ValidationError):
        flatten_index(CellIndex((0, 0), 2), dims)
    with pytest.raises(ValidationError):
        unflatten_index(8, dims)
    with pytest.raises(ValidationError):
        unflatten_index(-1, dims)


@pytest.mark.parametrize("d_x", [2, 3, 4])
@pytest.mark.parametrize("d_y", [2, 3, 4])
def test_flatten_roundtrip_exhaustive(d_x, d_y):
    dims = pb.Dims(d_x, d_y)
    for i in range(dims.param_count()):
        assert flatten_index(unflatten_index(i, dims), dims) == i


def test_validate_uniform_obs_ok():
    dims = pb.Dims(3, 3)
    obs = pb.ObservationalJoint(np.full((3, 3), 1 / 9))
    assert pb.validate_distribution(obs, dims) == []


def test_validate_sum_violation():
    dims = pb.Dims(2, 2)
    obs = pb.ObservationalJoint(np.array([[0.24, 0.24], [0.25, 0.25]]))
    report = pb.validate_distribution(obs, dims)
    assert len(report) == 1 and "sums to" in report[0]


def test_validate_negative_entry_located():
    dims = pb.Dims(2, 2)
    exp = pb.ExperimentalMarginals(np.array([[1.01, -0.01], [0.5, 0.5]]))
    report = pb.validate_distribution(exp, dims)
    assert any("(0,1)" in msg for msg in report)


def test_validate_shape_mismatch():
    obs = pb.ObservationalJoint(np.full((2, 2), 0.25))
    with pytest.raises(ValidationError):
        pb.validate_distribution(obs, pb.Dims(3, 3))


def test_monotone_term_invariants():
    with pytest.raises(ValidationError):
        pb.MonotoneTerm.from_pairs(2, {(1, 0): (1.0, 0.0)})
    with pytest.raises(ValidationError):
        pb.MonotoneTerm.from_pairs(2, {(1, 0): (0.0, 1.0)}, prob_lower=0.9, prob_upper=0.5)
    with pytest.raises(ValidationError):
        pb.MonotoneTerm.from_pairs(2, {(0, 1): (0.0, 1.0)})  # needs s > t


def test_monotone_term_unbounded_windows_admit_everything():
    term = pb.MonotoneTerm.from_pairs(3, {})
    for y_vec in itertools.product(range(4), repeat=3):
        assert admits(term, y_vec)


def test_queryspec_condition_mismatch():
    dims = pb.Dims(2, 2)
    coeffs = np.zeros(dims.full_shape())
    coeffs[0, 1, 0, 0] = coeffs[0, 1, 1, 1] = 1.0
    q = pb.QuerySpec(coeffs, condition=(0, 0))
    with pytest.raises(ValidationError, match=r"cell \(y=\(0, 1\), x=1, y_obs=1\) conflicts"):
        q.validate(dims)


def test_queryspec_out_of_range_cell():
    coeffs = np.zeros((2, 6, 2, 2))
    coeffs[0, 5, 0, 0] = 1.0
    q = pb.QuerySpec(coeffs)
    with pytest.raises(ValidationError, match="shape"):
        q.validate(pb.Dims(2, 2))


def test_sparse_joint_clamps_tiny_negative():
    dims = pb.Dims(2, 2)
    j = pb.SparseJointPO(dims, {(0, 0): 1.0 + 5e-10, (1, 1): -5e-10}, "po")
    assert j.mass[1, 1] == 0.0


def test_sparse_joint_rejects_real_negative():
    with pytest.raises(ValidationError):
        pb.SparseJointPO(pb.Dims(2, 2), {(0, 0): 1.01, (1, 1): -0.01}, "po")


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.nan, "mass at {} is not a number"),
        (np.inf, "masses sum to inf, expected 1"),
        (-np.inf, "negative mass -inf at {}"),
    ],
)
def test_sparse_joint_rejects_non_finite_mass(bad, message):
    dims = pb.Dims(2, 2)
    for space, key in (("po", (0, 1)), ("full", ((0, 1), 0, 0))):
        entries = {key: bad, (((1, 1), 1, 1) if space == "full" else (1, 1)): 1.0}
        with pytest.raises(ValidationError, match=re.escape(message.format(key))):
            pb.SparseJointPO(dims, entries, space)


def test_sparse_joint_rejects_bad_total():
    with pytest.raises(ValidationError):
        pb.SparseJointPO(pb.Dims(2, 2), {(0, 0): 0.9}, "po")


def test_sparse_joint_json_roundtrip(truth_b):
    data = truth_b.to_json_dict()
    back = pb.SparseJointPO.from_json_dict(data)
    assert back.space == "full"
    assert back.entries == pytest.approx(truth_b.entries)
    np.testing.assert_allclose(back.param_vector(), truth_b.param_vector())


def test_truths_are_consistent(truth_a, truth_b):
    assert truth_a.consistency_violations() == []
    assert truth_b.consistency_violations() == []
    assert truth_a.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_marginals_of_mite_truth(truth_b):
    exp = truth_b.po_marginals()
    np.testing.assert_allclose(exp.table[0], [3 / 7, 3 / 7, 1 / 7])
    np.testing.assert_allclose(truth_b.xy_marginal().x_marginal(), [1 / 3, 1 / 3, 1 / 3])


@settings(max_examples=60, deadline=None)
@given(
    d_x=st.integers(2, 3),
    d_y=st.integers(2, 4),
    data=st.data(),
)
def test_flatten_bijection_property(d_x, d_y, data):
    dims = pb.Dims(d_x, d_y)
    i = data.draw(st.integers(0, dims.param_count() - 1))
    cell = unflatten_index(i, dims)
    cell.check(dims)
    assert flatten_index(cell, dims) == i


@pytest.mark.parametrize("bad", [1.9, 2.7, "1.5", True])
def test_sparse_joint_json_indices_are_refused_not_truncated(truth_b, bad):
    fields = [("d_x", lambda d: d), ("d_y", lambda d: d), ("y_vec entry", lambda d: d["cells"][0]["y_vec"]),
              ("x", lambda d: d["cells"][0]), ("y", lambda d: d["cells"][0])]
    for what, where in fields:
        data = truth_b.to_json_dict()
        key = 1 if what == "y_vec entry" else what
        where(data)[key] = bad
        with pytest.raises(ValidationError, match=re.escape(f"{what} {bad!r} is not an integer")):
            pb.SparseJointPO.from_json_dict(data)
    data = truth_b.to_json_dict()
    data["d_x"], data["cells"][0]["y"] = np.int64(3), np.uint8(data["cells"][0]["y"])
    assert pb.SparseJointPO.from_json_dict(data).entries == truth_b.entries


@pytest.mark.parametrize("d", [(2, 2), (3, 3), (4, 3), (3, 4), (5, 3)])
def test_marginals_add_cells_in_flattened_order(d):
    # the tables derived from a joint are pinned to a cell-by-cell sum in
    # flattened order (the benchmark generates its data tables that way)
    dims = pb.Dims(*d)
    rng = np.random.default_rng(list(d))
    shape = dims.full_shape()
    p = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)  # inconsistent cells too
    at = np.argwhere(p > 0)
    masses = p[tuple(at.T)]
    joint = pb.SparseJointPO(dims, {(tuple(c[: d[0]]), c[d[0]], c[d[0] + 1]): m
                                    for c, m in zip(at.tolist(), masses.tolist())}, "full")
    exp, obs, vec = np.zeros((d[0], d[1])), np.zeros((d[0], d[1])), np.zeros(dims.param_count())
    arms = np.arange(d[0])
    np.add.at(exp, (np.tile(arms, len(at)), at[:, : d[0]].reshape(-1)), np.repeat(masses, d[0]))
    np.add.at(obs, (at[:, d[0]], at[:, d[0] + 1]), masses)
    np.add.at(vec, np.ravel_multi_index(tuple(at[:, : d[0] + 1].T), shape[:-1]), masses)
    assert joint.po_marginals().table.tobytes() == exp.tobytes()
    assert joint.xy_marginal().table.tobytes() == obs.tobytes()
    assert joint.param_vector().tobytes() == vec.tobytes()


def test_public_names_resolve():
    for name in pb.__all__:
        assert hasattr(pb, name), name
    for moved in ("CellIndex", "flatten_index", "unflatten_index"):
        assert moved not in pb.__all__ and not hasattr(pb, moved)


def test_cell_grid_is_cached_and_read_only():
    dims = pb.Dims(3, 2)
    Y, X = cell_grid(dims)
    assert cell_grid(pb.Dims(3, 2))[0] is Y
    np.testing.assert_array_equal(np.vstack([Y, X]), np.indices((2, 2, 2, 3)).reshape(4, -1))
    for grid in (Y, X):
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 1
