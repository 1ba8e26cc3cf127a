import re

import numpy as np
import pytest

import pobounds as pb
from pobounds.errors import MiteIncompatibleError, UndefinedConditionalError, ValidationError
from conftest import random_mite_truth
from oracles import (
    admits,
    reference_chain_masses,
    reference_evaluate,
    reference_identify_experimental,
    reference_identify_observational,
    reference_negatives,
)


def test_joint_po_probability_exact(truth_b):
    jpo = pb.identify_experimental(truth_b.po_marginals())
    assert jpo.space == "po"
    assert jpo.entries[(0, 0, 1)] == pytest.approx(1 / 7, abs=1e-12)
    q = pb.build_event_query(truth_b.dims, {0: 0, 1: 0, 2: 1})
    assert pb.evaluate(jpo, q) == pytest.approx(1 / 7, abs=1e-12)


def test_no_effect_case_concentrates_on_flat_chains():
    dims = pb.Dims(3, 3)
    row = np.array([0.2, 0.5, 0.3])
    exp = pb.ExperimentalMarginals(np.tile(row, (3, 1)))
    jpo = pb.identify_experimental(exp)
    for y0 in range(3):
        assert jpo.entries.get((y0,) * 3, 0.0) == pytest.approx(row[y0])
    assert all(len(set(chain)) == 1 for chain in jpo.entries)


def test_deterministic_step_up():
    exp = pb.ExperimentalMarginals(np.array([[1.0, 0.0], [0.0, 1.0]]))
    jpo = pb.identify_experimental(exp)
    assert jpo.entries == {(0, 1): pytest.approx(1.0)}


def test_incompatible_marginals_raise():
    exp = pb.ExperimentalMarginals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(MiteIncompatibleError) as err:
        pb.identify_experimental(exp)
    assert any(mass == pytest.approx(-1.0) for _, mass in err.value.violations)


def test_observational_posterior_effect(truth_b):
    obs = truth_b.xy_marginal()
    jfull = pb.identify_observational(obs)
    assert jfull.space == "full"
    q = pb.build_posterior_effect_query(truth_b.dims, (1, 0), (2, 2))
    assert pb.evaluate(jfull, q, obs=obs) == pytest.approx(1 / 3, abs=1e-12)


def test_observational_second_moment(truth_b):
    obs = truth_b.xy_marginal()
    jfull = pb.identify_observational(obs)
    q = pb.build_moment_query(truth_b.dims, 2, (1, 0))
    assert pb.evaluate(jfull, q, obs=obs) == pytest.approx(2 / 7, abs=1e-12)


def test_observational_recovers_the_truth(truth_b):
    jfull = pb.identify_observational(truth_b.xy_marginal())
    for key, mass in truth_b.entries.items():
        assert jfull.entries.get(key, 0.0) == pytest.approx(mass, abs=1e-12)


def test_observational_no_effect_case():
    dims = pb.Dims(2, 2)
    px = np.array([0.4, 0.6])
    cond = np.array([0.3, 0.7])
    obs = pb.ObservationalJoint(np.outer(px, cond))
    jfull = pb.identify_observational(obs)
    for (chain, x, y), mass in jfull.entries.items():
        assert len(set(chain)) == 1  # flat chains only
        assert mass == pytest.approx(cond[chain[0]] * px[x])


def test_observational_zero_arm_errors():
    obs = pb.ObservationalJoint(np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(UndefinedConditionalError):
        pb.identify_observational(obs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tables_rejected(bad):
    exp = pb.ExperimentalMarginals(np.array([[bad, 0.5], [0.5, 0.5]]))
    obs = pb.ObservationalJoint(np.array([[bad, 0.25], [0.25, 0.25]]))
    with pytest.raises(ValidationError, match="experimental table"):
        pb.identify_experimental(exp)
    with pytest.raises(ValidationError, match="observational table"):
        pb.identify_observational(obs)


def test_compatibility_report(truth_b):
    assert pb.mite_compatibility_report(exp=truth_b.po_marginals(), obs=truth_b.xy_marginal()) == []
    bad = pb.ExperimentalMarginals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    report = pb.mite_compatibility_report(exp=bad)
    assert report and report[0][1] == pytest.approx(-1.0)
    uniform = pb.ExperimentalMarginals(np.full((2, 3), 1 / 3))
    assert pb.mite_compatibility_report(exp=uniform) == []
    with pytest.raises(ValidationError):
        pb.mite_compatibility_report()


@pytest.mark.parametrize("d", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_marginal_roundtrip(d):
    rng = np.random.default_rng(sum(d))
    dims = pb.Dims(*d)
    truth = random_mite_truth(dims, rng)
    exp = truth.po_marginals()
    jpo = pb.identify_experimental(exp)
    np.testing.assert_allclose(jpo.po_marginals().table, exp.table, atol=1e-9)


@pytest.mark.parametrize("d", [(2, 2), (3, 3), (3, 4)])
def test_support_restriction(d):
    rng = np.random.default_rng(7 + sum(d))
    dims = pb.Dims(*d)
    truth = random_mite_truth(dims, rng)
    jpo = pb.identify_experimental(truth.po_marginals())
    term = pb.preset("mite", dims).terms[0]
    for chain, mass in jpo.entries.items():
        if mass > 0:
            assert admits(term, chain)


def test_mass_normalization(truth_b):
    jpo = pb.identify_experimental(truth_b.po_marginals())
    assert jpo.total_mass() == pytest.approx(1.0, abs=1e-8)
    jfull = pb.identify_observational(truth_b.xy_marginal())
    assert jfull.total_mass() == pytest.approx(1.0, abs=1e-8)


def test_evaluate_constant_query(truth_b):
    jpo = pb.identify_experimental(truth_b.po_marginals())
    q = pb.build_event_query(truth_b.dims, {})
    assert pb.evaluate(jpo, q) == pytest.approx(1.0)


def test_evaluate_zero_condition_errors(truth_b):
    q = pb.build_conditional_query(truth_b.dims, {0: 0}, given=(0, 1))
    with pytest.raises(UndefinedConditionalError):
        pb.evaluate(truth_b, q, obs=pb.ObservationalJoint(np.eye(3) / 3))


def test_evaluate_treatment_dependent_query_needs_full_joint(truth_b):
    jpo = pb.identify_experimental(truth_b.po_marginals())
    q = pb.build_event_query(truth_b.dims, {0: 1}, x=2)
    with pytest.raises(ValidationError):
        pb.evaluate(jpo, q)


def test_lp_equivalence_over_query_suite(truth_b):
    # the unit-increment polytope collapses to the identified point
    dims = truth_b.dims
    exp, obs = truth_b.po_marginals(), truth_b.xy_marginal()
    mite = pb.preset("mite", dims)
    jpo = pb.identify_experimental(exp)
    jfull = pb.identify_observational(obs)
    po_queries = [
        pb.build_event_query(dims, {0: 0, 1: 0, 2: 1}),
        pb.build_event_query(dims, {0: {"le": 1}}),
        pb.build_moment_query(dims, 1, (2, 0)),
        pb.build_moment_query(dims, 2, (1, 0)),
    ]
    for q in po_queries:
        want = pb.evaluate(jpo, q)
        res = pb.bound(dims, q, exp=exp, assumptions=mite)
        assert res.lower == pytest.approx(want, abs=1e-7)
        assert res.upper == pytest.approx(want, abs=1e-7)
    full_queries = po_queries + [
        pb.build_posterior_effect_query(dims, (1, 0), (2, 2)),
        pb.build_conditional_query(dims, {0: 1}, given=(2, 2)),
    ]
    for q in full_queries:
        want = pb.evaluate(jfull, q, obs=obs)
        res = pb.bound(dims, q, obs=obs, assumptions=mite.with_exogeneity())
        assert res.lower == pytest.approx(want, abs=1e-7)
        assert res.upper == pytest.approx(want, abs=1e-7)


def sweep_queries(dims, rng, obs):
    """Event, treatment-dependent event, conditional, moment and posterior-effect queries."""
    given_cells = np.argwhere(obs.table > 0.0)
    out = []
    for _ in range(3):
        arms = tuple(int(v) for v in rng.choice(dims.d_x, size=2, replace=False))
        po = {a: int(rng.integers(dims.d_y)) for a in arms[: int(rng.integers(1, 3))]}
        given = tuple(int(v) for v in given_cells[rng.integers(len(given_cells))])
        out += [
            pb.build_event_query(dims, po),
            pb.build_event_query(dims, po, x=int(rng.integers(dims.d_x))),
            pb.build_conditional_query(dims, po, given),
            pb.build_moment_query(dims, int(rng.integers(1, 3)), arms),
            pb.build_posterior_effect_query(dims, arms, given),
        ]
    return out


@pytest.mark.parametrize("d", [(2, 2), (3, 3), (4, 3), (3, 4), (5, 3)])
def test_identification_matches_dict_reference(d):
    # the per-chain dict loops the tensor identification replaced, kept as its reference
    dims = pb.Dims(*d)
    rng = np.random.default_rng([29, *d])
    truth = random_mite_truth(dims, rng)
    exp, obs = truth.po_marginals(), truth.xy_marginal()
    jpo, jfull = pb.identify_experimental(exp), pb.identify_observational(obs)
    ref_po, ref_full = reference_identify_experimental(exp), reference_identify_observational(obs)
    for joint, ref in ((jpo, ref_po), (jfull, ref_full)):
        assert set(joint.entries) == set(ref)
        for key, mass in ref.items():
            assert joint.entries[key] == pytest.approx(mass, abs=1e-12)

    cases = [(jpo, ref_po, None), (jpo, ref_po, obs), (jfull, ref_full, None), (jfull, ref_full, obs),
             (truth, dict(truth.entries), None)]
    for q in sweep_queries(dims, rng, obs):
        for joint, ref, data in cases:
            try:
                want = reference_evaluate(dims, joint.space, ref, q, data)
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=re.escape(str(exc))):
                    pb.evaluate(joint, q, obs=data)
            else:
                assert pb.evaluate(joint, q, obs=data) == pytest.approx(want, abs=1e-12)

    # reversing the arms turns every step up into a step down: incompatible data
    bad_exp = pb.ExperimentalMarginals(exp.table[::-1])
    bad_obs = pb.ObservationalJoint(obs.table[::-1])
    cond = bad_obs.table / bad_obs.x_marginal()[:, None]
    expected = [("experimental " + n, m) for n, m in reference_negatives(reference_chain_masses(bad_exp.table))]
    expected += [("observational " + n, m) for n, m in reference_negatives(reference_chain_masses(cond))]
    report = pb.mite_compatibility_report(exp=bad_exp, obs=bad_obs)
    assert expected and [n for n, _ in report] == [n for n, _ in expected]
    np.testing.assert_allclose([m for _, m in report], [m for _, m in expected], rtol=0, atol=1e-12)
    for identify, reference, data in ((pb.identify_experimental, reference_identify_experimental, bad_exp),
                                      (pb.identify_observational, reference_identify_observational, bad_obs)):
        with pytest.raises(MiteIncompatibleError) as want:
            reference(data)
        with pytest.raises(MiteIncompatibleError, match=re.escape(str(want.value))):
            identify(data)


def test_evaluate_validates_the_query_once(truth_b, monkeypatch):
    calls = []
    honest = pb.QuerySpec.validate
    monkeypatch.setattr(pb.QuerySpec, "validate", lambda self, dims: calls.append(dims) or honest(self, dims))
    dims = truth_b.dims
    jfull = pb.identify_observational(truth_b.xy_marginal())
    jpo = pb.identify_experimental(truth_b.po_marginals())
    posterior = pb.build_posterior_effect_query(dims, (1, 0), (2, 2))
    for joint, query, obs in ((jfull, posterior, truth_b.xy_marginal()), (jfull, posterior, None),
                              (jfull, pb.build_moment_query(dims, 2, (1, 0)), truth_b.xy_marginal()),
                              (jpo, pb.build_event_query(dims, {0: 0, 1: 0, 2: 1}), None)):
        calls.clear()
        pb.evaluate(joint, query, obs=obs)
        assert calls == [dims]


def test_evaluate_refuses_an_observational_table_of_other_dims(truth_b):
    jfull = pb.identify_observational(truth_b.xy_marginal())
    q = pb.build_posterior_effect_query(truth_b.dims, (1, 0), (1, 1))
    with pytest.raises(ValidationError, match="do not match"):
        pb.evaluate(jfull, q, obs=pb.ObservationalJoint(np.full((2, 2), 0.25)))
