"""A replicate loop draws the same random streams however its loop
invariants are hoisted: the sampling tables built once must draw what
``Generator.choice`` draws, every replicate's tables must equal an
independent replay of the documented seeding, and the vectorised table
check must report what the entry-by-entry loop reported."""

import numpy as np
import pytest

import pobounds as pb
from pobounds import bounds, estimate

from oracles import bootstrap_tables, reference_draws, reference_validate_distribution, simulation_tables

DIMS = pb.Dims(3, 3)


def skewed_truth(seed):
    """A 3x3 full joint whose arms miss some outcomes entirely and whose
    observed joint has zero cells."""
    rng = np.random.default_rng(seed)
    entries = {}
    for y_vec in [(0, 0, 2), (0, 2, 2), (2, 0, 2), (0, 0, 0)]:
        for x in (0, 2):
            entries[(y_vec, x, y_vec[x])] = float(rng.random())
    total = sum(entries.values())
    return pb.SparseJointPO(DIMS, {k: v / total for k, v in entries.items()}, "full")


@pytest.mark.parametrize("seed", range(20))
def test_hoisted_tables_draw_what_choice_draws(seed):
    rng = np.random.default_rng(seed)
    for p in (rng.dirichlet(np.ones(5)), np.array([0.0, 0.3, 0.0, 0.7, 0.0]), np.array([0.0, 0.0, 1.0]),
              np.array([1.0, 0.0]), rng.dirichlet(np.ones(27))):
        for n in (0, 1, 800):
            want = np.random.default_rng([seed, n]).choice(p.size, size=n, p=p)
            got = estimate._cdf(p).searchsorted(np.random.default_rng([seed, n]).random(n), side="right")
            assert got.dtype == want.dtype and np.array_equal(got, want), (p, n)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("kind", ["experimental", "observational"])
def test_samples_equal_the_choice_replay(seed, kind):
    point = pb.SparseJointPO(DIMS, {((1, 1, 1), 2, 1): 1.0}, "full")
    for truth in (skewed_truth(seed), point):
        got = pb.sample_from_truth(truth, 300, seed, kind)
        want = reference_draws(truth, 300, np.random.default_rng(seed), kind)
        if kind == "experimental":
            assert all(np.array_equal(a, b) for a, b in zip(got.arms, want, strict=True))
        else:
            assert np.array_equal(got.records, want)


@pytest.fixture
def tables(monkeypatch):
    """The tables each replicate's bound is computed on."""
    log = []
    honest = bounds._bound

    def bound(dims, query, exp, obs, assumptions, slack, loop=None):
        log.append((exp, obs))
        return honest(dims, query, exp, obs, assumptions, slack, loop)

    monkeypatch.setattr(bounds, "_bound", bound)
    return log


def same_tables(got, want):
    assert len(got) == len(want)
    for i, ((exp, obs), (exp_want, obs_want)) in enumerate(zip(got, want)):
        for table, reference in ((exp, exp_want), (obs, obs_want)):
            assert (table is None) == (reference is None), i
            if table is not None:
                assert table.table.tobytes() == reference.tobytes(), i


@pytest.mark.parametrize("seed", [3, 8])
def test_bootstrap_tables_equal_the_replay(seed, tables):
    truth = skewed_truth(seed)
    exp_sample = pb.sample_from_truth(truth, 200, seed, "experimental")
    obs_sample = pb.sample_from_truth(truth, 200, seed + 1, "observational")
    query = pb.build_event_query(DIMS, {0: 0, 2: 2})
    pb.bootstrap(DIMS, query, 12, seed, exp_sample=exp_sample, obs_sample=obs_sample,
                 assumptions=pb.preset("prob_mtr(0.2,1.0)", DIMS))
    same_tables(tables, list(bootstrap_tables(DIMS, seed, 12, exp_sample.arms, obs_sample.records)))


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("data_kind", ["both", "exp", "obs"])
def test_simulation_tables_equal_the_replay(seed, data_kind, tables):
    truth = skewed_truth(seed)
    query = pb.build_event_query(DIMS, {0: 0, 2: 2})
    pb.simulation_study(truth, 150, 12, seed, query, data_kind=data_kind,
                        assumptions=pb.preset("prob_mtr(0.2,1.0)", DIMS))
    want = simulation_tables(truth, 150, 12, seed, data_kind != "obs", data_kind != "exp")
    same_tables(tables, list(want))


def bad_tables():
    rng = np.random.default_rng(5)
    yield np.full((3, 3), 1 / 3)
    yield np.array([[np.nan, 0.5, 0.5], [0.2, -0.1, 0.9], [1.5, -0.25, -0.25]])
    yield np.array([[0.3, 0.3, 0.3], [0.5, 0.5, 1e-10], [np.inf, 0.0, 0.0]])
    yield np.array([[np.nan, np.nan, np.nan], [1.0, 0.0, 0.0], [0.0, 1.0, 2e-9]])
    for _ in range(30):
        table = rng.dirichlet(np.ones(3), 3) / rng.choice([1.0, 3.0])
        table[rng.random((3, 3)) < 0.15] = rng.choice([np.nan, -0.5, 1.25, 1e-12 - 1e-9])
        yield table


@pytest.mark.parametrize("kind", [pb.ExperimentalMarginals, pb.ObservationalJoint])
def test_validate_distribution_reports_what_the_entry_loop_reported(kind):
    reports = 0
    for table in bad_tables():
        dist = kind(table)
        want = reference_validate_distribution(dist, DIMS)
        assert pb.validate_distribution(dist, DIMS) == want, table
        reports += bool(want)
    assert reports > 25  # the tables do exercise the failing branches
