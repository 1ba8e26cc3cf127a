import re

import numpy as np
import pytest

import pobounds as pb
from pobounds import bounds, compile
from pobounds.errors import BootstrapFailureError, ConfigError, InsufficientDataError, ValidationError


def test_empirical_experimental_basic():
    dims = pb.Dims(2, 2)
    sample = pb.ExperimentalSample(dims, (np.array([0, 0, 1, 1]), np.array([1, 1, 1, 1])))
    exp = pb.empirical_experimental(sample)
    np.testing.assert_allclose(exp.table[0], [0.5, 0.5])
    np.testing.assert_allclose(exp.table[1], [0.0, 1.0])


def test_empirical_single_observation():
    dims = pb.Dims(2, 3)
    sample = pb.ExperimentalSample(dims, (np.array([2]), np.array([0])))
    np.testing.assert_allclose(pb.empirical_experimental(sample).table[0], [0, 0, 1])


def test_empirical_empty_arm_errors():
    dims = pb.Dims(2, 2)
    sample = pb.ExperimentalSample(dims, (np.array([], dtype=int), np.array([0])))
    with pytest.raises(InsufficientDataError):
        pb.empirical_experimental(sample)


def test_empirical_observational_basic():
    dims = pb.Dims(2, 2)
    obs = pb.empirical_observational(pb.ObservationalSample(dims, [(0, 0), (1, 1)]))
    np.testing.assert_allclose(obs.table, [[0.5, 0.0], [0.0, 0.5]])
    point = pb.empirical_observational(pb.ObservationalSample(dims, [(0, 1)]))
    np.testing.assert_allclose(point.table, [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InsufficientDataError):
        pb.empirical_observational(pb.ObservationalSample(dims, np.zeros((0, 2), dtype=int)))


def test_sample_values_validated():
    dims = pb.Dims(2, 2)
    with pytest.raises(ValidationError):
        pb.ExperimentalSample(dims, (np.array([0, 3]), np.array([0])))
    with pytest.raises(ValidationError):
        pb.ObservationalSample(dims, [(0, 2)])


def test_seeded_experimental_concentration(truth_b):
    sample = pb.sample_from_truth(truth_b, 10000, seed=123, kind="experimental")
    exp = pb.empirical_experimental(sample)
    np.testing.assert_allclose(exp.table[0], [3 / 7, 3 / 7, 1 / 7], atol=0.02)


def test_seeded_observational_concentration(truth_a):
    sample = pb.sample_from_truth(truth_a, 10000, seed=321, kind="observational")
    obs = pb.empirical_observational(sample)
    assert np.max(np.abs(obs.table - truth_a.xy_marginal().table)) < 0.02


def test_sample_from_truth_edge_cases(truth_b):
    empty = pb.sample_from_truth(truth_b, 0, seed=1, kind="experimental")
    assert all(arm.size == 0 for arm in empty.arms)
    point = pb.SparseJointPO(pb.Dims(2, 2), {((0, 1), 1, 1): 1.0}, "full")
    const = pb.sample_from_truth(point, 50, seed=2, kind="observational")
    assert np.all(const.records == [1, 1])
    s1 = pb.sample_from_truth(truth_b, 100, seed=9, kind="experimental")
    s2 = pb.sample_from_truth(truth_b, 100, seed=9, kind="experimental")
    assert all(np.array_equal(a, b) for a, b in zip(s1.arms, s2.arms))
    with pytest.raises(ConfigError):
        pb.sample_from_truth(truth_b, 10, seed=0, kind="interventional")


def test_negative_seeds_and_sizes_are_config_errors(truth_b):
    dims = truth_b.dims
    q = pb.build_event_query(dims, {0: 0})
    sample = pb.sample_from_truth(truth_b, 10, 0, "experimental")
    with pytest.raises(ConfigError, match="^seed must be a nonnegative integer, got -1$"):
        pb.bootstrap(dims, q, replicates=3, seed=-1, exp_sample=sample)
    with pytest.raises(ConfigError, match="^seed must be a nonnegative integer, got -1$"):
        pb.simulation_study(truth_b, n=10, reps=2, seed=-1, query=q)
    for n in (0, -1):
        with pytest.raises(ConfigError, match=f"^need at least one draw per replicate, got n={n}$"):
            pb.simulation_study(truth_b, n=n, reps=2, seed=0, query=q)
    for kind in ("experimental", "observational"):
        with pytest.raises(ConfigError, match="^sample size must be nonnegative, got -1$"):
            pb.sample_from_truth(truth_b, -1, 0, kind)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_seeds_that_are_not_nonnegative_integers_are_config_errors(truth_b, seed):
    dims = truth_b.dims
    q = pb.build_event_query(dims, {0: 0})
    sample = pb.sample_from_truth(truth_b, 10, 0, "experimental")
    message = f"^seed must be a nonnegative integer, got {re.escape(str(seed))}$"
    for kind in ("experimental", "observational"):
        with pytest.raises(ConfigError, match=message):
            pb.sample_from_truth(truth_b, 5, seed, kind)
    with pytest.raises(ConfigError, match=message):
        pb.bootstrap(dims, q, replicates=3, seed=seed, exp_sample=sample)
    with pytest.raises(ConfigError, match=message):
        pb.simulation_study(truth_b, n=10, reps=2, seed=seed, query=q)


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(3.0), True, np.bool_(True), "4", None])
def test_counts_that_are_not_integers_are_config_errors(truth_b, bad):
    dims = truth_b.dims
    q = pb.build_event_query(dims, {0: 0})
    sample = pb.sample_from_truth(truth_b, 10, 0, "experimental")

    def refused(what):
        return pytest.raises(ConfigError, match=f"^{what} must be an integer, got {re.escape(repr(bad))}$")

    with refused("replicates"):
        pb.bootstrap(dims, q, replicates=bad, seed=0, exp_sample=sample)
    with refused("reps"):
        pb.simulation_study(truth_b, n=10, reps=bad, seed=0, query=q)
    with refused("n"):
        pb.simulation_study(truth_b, n=bad, reps=2, seed=0, query=q)
    for kind in ("experimental", "observational"):
        with refused("sample size"):
            pb.sample_from_truth(truth_b, bad, 0, kind)


def test_numpy_integer_counts_are_accepted(truth_b):
    q = pb.build_event_query(truth_b.dims, {0: 0})
    res = pb.simulation_study(truth_b, n=np.int32(10), reps=np.int64(2), seed=0, query=q)
    assert res.used + res.excluded == 2
    assert all(arm.size == 7 for arm in pb.sample_from_truth(truth_b, np.uint8(7), 0, "experimental").arms)


def test_sample_values_that_are_not_integers_are_refused_not_truncated():
    dims = pb.Dims(2, 2)
    with pytest.raises(ValidationError, match="^arm 0 holds 0.7, which is not an integer$"):
        pb.ExperimentalSample(dims, ((0.7, 1.2), (0, 1)))
    with pytest.raises(ValidationError, match="^arm 1 holds nan, which is not an integer$"):
        pb.ExperimentalSample(dims, ((0, 1), np.array([1.0, np.nan])))
    with pytest.raises(ValidationError, match="^records row 0 holds 0.9, which is not an integer$"):
        pb.ObservationalSample(dims, [(0.9, 1.5)])
    with pytest.raises(ValidationError, match="^records row 2 holds inf, which is not an integer$"):
        pb.ObservationalSample(dims, np.array([[0, 1], [1, 0], [1, np.inf]]))
    with pytest.raises(ValidationError, match="^arm 0 holds values that are not numbers$"):
        pb.ExperimentalSample(dims, (["a", "b"], (0, 1)))
    # whole numbers of any type are taken, integer arrays without a copy
    floats = pb.ExperimentalSample(dims, (np.array([0.0, 1.0]), [1, 1]))
    assert [arm.tolist() for arm in floats.arms] == [[0, 1], [1, 1]]
    assert all(arm.dtype == int for arm in floats.arms)
    arm, records = np.array([0, 1, 1]), np.array([[0, 1], [1, 1]])
    assert pb.ExperimentalSample(dims, (arm, arm)).arms[0] is arm
    taken = pb.ObservationalSample(dims, records).records
    assert np.shares_memory(taken, records) and taken.tolist() == [[0, 1], [1, 1]]


def test_integer_and_sequence_seeds_are_accepted(truth_b):
    by_int = pb.sample_from_truth(truth_b, 20, 4, "observational")
    by_numpy_int = pb.sample_from_truth(truth_b, 20, np.int64(4), "observational")
    by_sequence = pb.sample_from_truth(truth_b, 20, np.random.SeedSequence(4), "observational")
    assert np.array_equal(by_int.records, by_numpy_int.records)
    assert np.array_equal(by_int.records, by_sequence.records)
    q = pb.build_event_query(truth_b.dims, {0: 0})
    res = pb.simulation_study(truth_b, n=10, reps=2, seed=np.int64(3), query=q)
    assert res.used + res.excluded == 2


def test_observational_frequencies_match_the_unbuffered_reference():
    # counts by bincount, not np.add.at: the floats must be the same
    dims = pb.Dims(3, 4)
    rng = np.random.default_rng(11)
    for n in (1, 7, 1000):
        records = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 4, n)])
        table = np.zeros((3, 4))
        np.add.at(table, (records[:, 0], records[:, 1]), 1.0)
        got = pb.empirical_observational(pb.ObservationalSample(dims, records)).table
        assert got.tobytes() == (table / n).tobytes()


def test_bootstrap_checks_its_samples_against_dims_once():
    three = pb.ExperimentalSample(pb.Dims(3, 2), (np.array([0, 1]),) * 3)
    dims = pb.Dims(2, 2)
    with pytest.raises(ValidationError, match="expected 2 arms, got 3"):
        pb.bootstrap(dims, pb.build_event_query(dims, {0: 0}), 3, 0, exp_sample=three)


@pytest.mark.parametrize("exogeneity", [False, True])
def test_a_replicate_loop_compiles_its_structure_once(truth_a, monkeypatch, exogeneity):
    # only the right-hand side moves between replicates: the structure of the
    # shape is compiled once and shared by the bootstrap and the simulation,
    # which has the same shape; exogeneity puts P(X=l) into A, so with a
    # monotone row every replicate compiles its own exogeneity block
    bounds._STRUCTURES.clear()
    built, blocks = [], []
    honest_rows, honest_block = bounds.monotone_rows, compile.compile_exogeneity

    def rows(*args):
        built.append(args)
        return honest_rows(*args)

    def block(*args):
        blocks.append(args)
        return honest_block(*args)

    monkeypatch.setattr(bounds, "monotone_rows", rows)
    monkeypatch.setattr(compile, "compile_exogeneity", block)
    dims = truth_a.dims
    assumptions = pb.preset("prob_mtr(0.5,1.0)", dims).with_exogeneity(exogeneity)
    q = pb.build_event_query(dims, {0: 0, 1: 1})
    obs_sample = pb.sample_from_truth(truth_a, 400, 5, "observational")
    exp_sample = None if exogeneity else pb.sample_from_truth(truth_a, 400, 6, "experimental")
    res = pb.bootstrap(dims, q, 8, 2, exp_sample=exp_sample, obs_sample=obs_sample, assumptions=assumptions)
    assert res.used + res.excluded == 8
    assert (len(built), len(blocks)) == (1, 8 if exogeneity else 0)
    built.clear(), blocks.clear()
    res = pb.simulation_study(truth_a, 400, 8, 2, q, data_kind="obs" if exogeneity else "both",
                              assumptions=assumptions)
    assert res.used + res.excluded == 8
    assert (len(built), len(blocks)) == (0, 8 if exogeneity else 0)


def test_bootstrap_single_replicate(truth_b):
    dims = truth_b.dims
    sample = pb.sample_from_truth(truth_b, 200, seed=5, kind="experimental")
    q = pb.build_event_query(dims, {0: 0, 1: 0, 2: 1})
    res = pb.bootstrap(dims, q, replicates=1, seed=0, mode="bound", exp_sample=sample)
    for summary in res.endpoints.values():
        assert summary.ci_low == summary.mean == summary.ci_high


def test_bootstrap_degenerate_data_zero_width():
    dims = pb.Dims(2, 2)
    sample = pb.ObservationalSample(dims, [(0, 0)] * 40)
    q = pb.build_event_query(dims, {0: 0})
    res = pb.bootstrap(dims, q, replicates=25, seed=3, mode="bound", obs_sample=sample)
    assert res.endpoints["lower"].width() == pytest.approx(0.0, abs=1e-12)
    assert res.endpoints["upper"].width() == pytest.approx(0.0, abs=1e-12)


def test_bootstrap_no_excluded_replicates_on_single_source(truth_a):
    # single-source systems are always feasible, so nothing is dropped
    dims = truth_a.dims
    q = pb.build_event_query(dims, {0: 0, 1: 0, 2: 1})
    exp_sample = pb.sample_from_truth(truth_a, 300, seed=8, kind="experimental")
    res = pb.bootstrap(dims, q, replicates=30, seed=1, mode="bound", exp_sample=exp_sample)
    assert res.excluded == 0 and res.used == 30
    obs_sample = pb.sample_from_truth(truth_a, 300, seed=8, kind="observational")
    res2 = pb.bootstrap(dims, q, replicates=30, seed=1, mode="bound", obs_sample=obs_sample)
    assert res2.excluded == 0 and res2.used == 30


def test_bootstrap_all_infeasible_raises():
    dims = pb.Dims(2, 2)
    # deterministic conflict with a sure ordering: every resample is identical
    sample = pb.ExperimentalSample(dims, (np.ones(20, dtype=int), np.zeros(20, dtype=int)))
    q = pb.build_event_query(dims, {0: 0})
    with pytest.raises(BootstrapFailureError):
        pb.bootstrap(
            dims, q, replicates=5, seed=0, mode="bound",
            exp_sample=sample, assumptions=pb.preset("mtr", dims),
        )


def test_bootstrap_identify_mode(truth_b):
    dims = truth_b.dims
    sample = pb.sample_from_truth(truth_b, 2000, seed=17, kind="experimental")
    q = pb.build_event_query(dims, {0: 0, 1: 0, 2: 1})
    res = pb.bootstrap(dims, q, replicates=40, seed=2, mode="identify", exp_sample=sample)
    assert res.endpoints["estimate"].mean == pytest.approx(1 / 7, abs=0.03)
    assert res.endpoints["estimate"].ci_low <= res.endpoints["estimate"].mean <= res.endpoints["estimate"].ci_high


def test_bootstrap_determinism(truth_b):
    dims = truth_b.dims
    sample = pb.sample_from_truth(truth_b, 500, seed=4, kind="observational")
    q = pb.build_posterior_effect_query(dims, (1, 0), (2, 2))
    r1 = pb.bootstrap(dims, q, replicates=20, seed=77, mode="identify", obs_sample=sample)
    r2 = pb.bootstrap(dims, q, replicates=20, seed=77, mode="identify", obs_sample=sample)
    assert r1 == r2


def test_bootstrap_config_errors(truth_b):
    dims = truth_b.dims
    q = pb.build_event_query(dims, {0: 0})
    with pytest.raises(ConfigError):
        pb.bootstrap(dims, q, replicates=0, seed=0, exp_sample=pb.sample_from_truth(truth_b, 10, 0, "experimental"))
    with pytest.raises(ConfigError):
        pb.bootstrap(dims, q, replicates=3, seed=0)
    both_exp = pb.sample_from_truth(truth_b, 10, 0, "experimental")
    both_obs = pb.sample_from_truth(truth_b, 10, 0, "observational")
    with pytest.raises(ConfigError):
        pb.bootstrap(dims, q, replicates=3, seed=0, mode="identify", exp_sample=both_exp, obs_sample=both_obs)


def test_plugin_consistency(truth_a):
    # endpoint error shrinks with sample size; at N=10000 the median absolute
    # error across seeds is below 0.01
    dims = truth_a.dims
    q = pb.build_event_query(dims, {0: 0, 1: 0, 2: 1})
    target = 0.275

    def upper_at(n, seed):
        ss = np.random.SeedSequence(seed).spawn(2)
        exp = pb.empirical_experimental(pb.sample_from_truth(truth_a, n, ss[0], "experimental"))
        obs = pb.empirical_observational(pb.sample_from_truth(truth_a, n, ss[1], "observational"))
        res = pb.bound(dims, q, exp=exp, obs=obs)
        return res.upper if res.status == "ok" else None

    errors_by_n = {}
    for n in (100, 1000, 10000):
        errs = [abs(upper_at(n, seed) - target) for seed in range(20) if upper_at(n, seed) is not None]
        errors_by_n[n] = np.median(errs)
    assert errors_by_n[10000] < 0.01
    assert errors_by_n[10000] < errors_by_n[100]


def test_simulation_study_identify_counts_incompatible(truth_b):
    dims = truth_b.dims
    q = pb.build_event_query(dims, {0: 0, 1: 0, 2: 1})
    res = pb.simulation_study(truth_b, n=40, reps=30, seed=6, query=q, mode="identify", data_kind="exp")
    assert res.used + res.excluded == 30
    assert res.endpoints["estimate"].mean == pytest.approx(1 / 7, abs=0.1)


def test_simulation_study_config_errors(truth_b):
    q = pb.build_event_query(truth_b.dims, {0: 0})
    with pytest.raises(ConfigError):
        pb.simulation_study(truth_b, n=10, reps=2, seed=0, query=q, mode="identify", data_kind="both")
    with pytest.raises(ConfigError):
        pb.simulation_study(truth_b, n=10, reps=2, seed=0, query=q, data_kind="none")
    with pytest.raises(ConfigError):
        pb.simulation_study(truth_b, n=10, reps=0, seed=0, query=q)


def test_bound_mode_excludes_replicates_with_an_undefined_conditional():
    # one record in the conditioning cell: some resamples miss it, and
    # P(X=1, Y=1) = 0 leaves the posterior effect undefined there
    dims = pb.Dims(2, 2)
    q = pb.build_posterior_effect_query(dims, (1, 0), (1, 1))
    records = [(0, 0)] * 40 + [(0, 1)] * 40 + [(1, 0)] * 19 + [(1, 1)]
    res = pb.bootstrap(dims, q, 50, 3, mode="bound", obs_sample=pb.ObservationalSample(dims, records))
    assert res.excluded > 0 and res.used > 0 and res.excluded + res.used == 50
    truth = pb.SparseJointPO(dims, {((0, 0), 0, 0): 0.4, ((1, 1), 0, 1): 0.4, ((0, 0), 1, 0): 0.19,
                                    ((1, 1), 1, 1): 0.01}, "full")
    sim = pb.simulation_study(truth, 100, 50, 3, q, mode="bound", data_kind="obs")
    assert sim.excluded > 0 and sim.used > 0 and sim.excluded + sim.used == 50
    never = pb.ObservationalSample(dims, [(0, 0)] * 40 + [(1, 0)] * 10)
    with pytest.raises(BootstrapFailureError, match="all 5 bootstrap replicates were excluded"):
        pb.bootstrap(dims, q, 5, 3, mode="bound", obs_sample=never)
