"""Shared fixtures: exact ground-truth joints used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

import pobounds as pb
from oracles import CellIndex, cells, flat_chain, flatten_index, step_chain


def _full_joint(dims: pb.Dims, blocks: dict) -> pb.SparseJointPO:
    cells = {}
    for (x, y), chain_masses in blocks.items():
        for y_vec, mass in chain_masses:
            cells[(y_vec, x, y)] = mass
    return pb.SparseJointPO(dims, cells, "full")


def bounding_truth() -> pb.SparseJointPO:
    """3x3 ground truth for the bounding experiments.

    Satisfies Y_0 <= Y_1 <= Y_2 everywhere (so every ordering assumption in
    the golden tests is true), but not exogeneity.
    """
    blocks = {
        (0, 0): [((0, 0, 0), 1 / 40), ((0, 0, 1), 1 / 40), ((0, 1, 1), 1 / 40),
                 ((0, 0, 2), 1 / 40), ((0, 1, 2), 1 / 40), ((0, 2, 2), 1 / 40)],
        (0, 1): [((1, 1, 1), 1 / 30), ((1, 1, 2), 1 / 30), ((1, 2, 2), 1 / 30)],
        (0, 2): [((2, 2, 2), 1 / 10)],
        (1, 0): [((0, 0, 0), 1 / 30), ((0, 0, 1), 1 / 30), ((0, 0, 2), 1 / 30)],
        (1, 1): [((0, 1, 1), 1 / 20), ((1, 1, 1), 1 / 20), ((0, 1, 2), 1 / 20), ((1, 1, 2), 1 / 20)],
        (1, 2): [((0, 2, 2), 1 / 30), ((1, 2, 2), 1 / 30), ((2, 2, 2), 1 / 30)],
        (2, 0): [((0, 0, 0), 1 / 20)],
        (2, 1): [((0, 0, 1), 1 / 30), ((0, 1, 1), 1 / 30), ((1, 1, 1), 1 / 30)],
        (2, 2): [((0, 0, 2), 1 / 60), ((0, 1, 2), 1 / 60), ((0, 2, 2), 1 / 60),
                 ((1, 1, 2), 1 / 60), ((1, 2, 2), 1 / 60), ((2, 2, 2), 1 / 60)],
    }
    return _full_joint(pb.Dims(3, 3), blocks)


def mite_truth() -> pb.SparseJointPO:
    """3x3 ground truth satisfying exogeneity and 0 <= Y_s - Y_t <= 1.

    21 equal-mass cells; the implied joint over outcome vectors is uniform
    on the 7 admissible chains, and X is independent of them.
    """
    blocks = {
        (0, 0): [(0, 0, 0), (0, 0, 1), (0, 1, 1)],
        (0, 1): [(1, 1, 1), (1, 1, 2), (1, 2, 2)],
        (0, 2): [(2, 2, 2)],
        (1, 0): [(0, 0, 0), (0, 0, 1)],
        (1, 1): [(0, 1, 1), (1, 1, 1), (1, 1, 2)],
        (1, 2): [(1, 2, 2), (2, 2, 2)],
        (2, 0): [(0, 0, 0)],
        (2, 1): [(0, 0, 1), (0, 1, 1), (1, 1, 1)],
        (2, 2): [(1, 1, 2), (1, 2, 2), (2, 2, 2)],
    }
    expanded = {xy: [(ch, 1 / 21) for ch in chains] for xy, chains in blocks.items()}
    return _full_joint(pb.Dims(3, 3), expanded)


def random_mite_truth(dims: pb.Dims, rng: np.random.Generator) -> pb.SparseJointPO:
    """A random exogenous truth supported on the unit-increment chains."""
    chains = [flat_chain(y0, dims.d_x) for y0 in range(dims.d_y)]
    chains += [step_chain(y0, k, dims.d_x) for k in range(dims.d_x - 1) for y0 in range(dims.d_y - 1)]
    w = rng.uniform(0.2, 1.0, len(chains))
    w /= w.sum()
    px = rng.uniform(0.2, 1.0, dims.d_x)
    px /= px.sum()
    cells = {}
    for ch, cw in zip(chains, w):
        for x in range(dims.d_x):
            cells[(ch, x, ch[x])] = cw * px[x]
    return pb.SparseJointPO(dims, cells, "full")


def random_small_instance(rng: np.random.Generator):
    """A random feasible (2, 2) system plus objective, for solver cross-checks.

    Data tables and assumption windows are read off a randomly drawn true
    joint, so the instance always has that joint as a feasible witness.
    """
    dims = pb.Dims(2, 2)
    p = rng.dirichlet(np.ones(dims.param_count()))

    exp_table = np.zeros((2, 2))
    obs_table = np.zeros((2, 2))
    for y_vec, x in cells(dims):
        mass = p[flatten_index(CellIndex(y_vec, x), dims)]
        for k in range(2):
            exp_table[k, y_vec[k]] += mass
        obs_table[x, y_vec[x]] += mass

    exp = pb.ExperimentalMarginals(exp_table) if rng.random() < 0.7 else None
    obs = pb.ObservationalJoint(obs_table) if (rng.random() < 0.7 or exp is None) else None

    terms = []
    for _ in range(int(rng.integers(0, 3))):
        a, b = np.sort(rng.integers(-1, 2, 2))
        term = pb.MonotoneTerm.from_pairs(2, {(1, 0): (float(a), float(b))})
        mask = pb.indicator_mask(dims, term)
        true_mass = float(mask @ p)
        slack_lo, slack_hi = rng.uniform(0.0, 0.4, 2)
        terms.append(
            pb.MonotoneTerm.from_pairs(
                2,
                {(1, 0): (float(a), float(b))},
                max(0.0, true_mass - slack_lo),
                min(1.0, true_mass + slack_hi),
            )
        )
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=pb.AssumptionSet(tuple(terms)))
    objective = rng.uniform(-1.0, 1.0, dims.param_count())
    return cs, objective, p


@pytest.fixture(scope="session")
def truth_a() -> pb.SparseJointPO:
    return bounding_truth()


@pytest.fixture(scope="session")
def truth_b() -> pb.SparseJointPO:
    return mite_truth()


@pytest.fixture(scope="session")
def dims33() -> pb.Dims:
    return pb.Dims(3, 3)
