"""``tools/stress.py``: what it prints of hand-made outcomes, and a short
rare-arm sweep in which no instance may raise or answer wrongly."""

import numpy as np
import pytest

import pobounds as pb
from oracles import rare_arm_tables, tool
from pobounds import simplex

stress = tool("stress")
Outcome = stress.Outcome


def test_dims_parse_as_pairs():
    assert stress.parse_dims("3x3,4x3,5x3") == [(3, 3), (4, 3), (5, 3)]
    args = stress.parse_args(["--dims", "4x4", "--seeds", "40", "--alpha", "0.3"])
    assert (args.dims, args.seeds, args.alpha, args.query, args.mix) == ([(4, 4)], 40, 0.3, "event", "q-form")
    assert stress.parse_args(["--dims", "4x4", "--seeds", "1", "--alpha", "1", "--query", "posterior_effect"]).query \
        == "posterior_effect"
    assert stress.parse_args(["--dims", "4x4", "--seeds", "1", "--alpha", "1", "--mix", "full"]).mix == "full"
    for bad in (["--dims", "3by3"], ["--dims", "3x3x3"], ["--dims", "1x3"], ["--seeds", "0"], ["--alpha", "0"],
                ["--alpha", "nan"], ["--query", "moment"], ["--mix", "q"]):
        argv = dict(zip(["--dims", "--seeds", "--alpha"], ["3x3", "1", "0.3"]))
        argv.update(dict(zip(bad[::2], bad[1::2])))
        with pytest.raises(SystemExit):
            stress.parse_args([part for pair in argv.items() for part in pair])


def test_the_sweep_draws_the_tables_of_the_pinned_rare_arm_tests():
    # the sweep's SparseJointPO tables and the tests' rare_arm_tables agree to the bit
    for d_x, d_y, seed, alpha in ((3, 3, 5, 0.3), (4, 4, 0, 1.0), (5, 3, 1000, 0.3)):
        dims, query, exp, obs, px, value = stress.instance(d_x, d_y, seed, alpha)
        want = rare_arm_tables(d_x, d_y, seed, alpha)
        np.testing.assert_array_equal(exp.table, want[0])
        np.testing.assert_array_equal(obs.table, want[1])
        assert value == want[2]
        np.testing.assert_array_equal(obs.x_marginal() > 0.0, px > 0.0)


def test_a_failure_is_grouped_by_the_first_three_words_of_its_message():
    assert stress.prefix("objective rose to 7.72943 at pivot 9, above its start 3.66288") == "objective rose to"
    assert stress.prefix("phase-1 point violates row experimental(0,1) by 1.48e-07") == "phase-1 point violates"


def test_the_report_counts_each_verdict_per_dims():
    outcomes = [
        Outcome((3, 3), 1000, "ok", 0.2, 0.001, checked=True),
        Outcome((3, 3), 1001, "raised", 2.9e-9, 0.003, "objective rose to 7.7 at pivot 9, above its start 3.66"),
        Outcome((3, 3), 1002, "raised", 1.7e-5, 0.004, "objective rose to 0.44 at pivot 76, above its start 0.43"),
        Outcome((3, 3), 1003, "raised", 2.1e-6, 0.002, "phase-1 point violates row experimental(0,1) by 1.5e-07"),
        Outcome((4, 3), 1000, "ok", 0.1, 0.002),
        Outcome((4, 3), 1001, "wrong", 3e-11, 0.002, "upper 0.5, HiGHS 0.25"),
    ]
    lines = stress.summarize(outcomes, highs=True)
    assert lines[0] == ("3x3  ok 1  raised 3 (objective rose to: 2, phase-1 point violates: 1)  wrong 0  "
                        "unchecked 0")
    assert lines[1] == ("  seed 1001  raised  min P(X=l) 2.9e-09  after 0.003 s: "
                        "objective rose to 7.7 at pivot 9, above its start 3.66")
    assert lines[4] == "4x3  ok 1  raised 0  wrong 1  unchecked 1"
    assert lines[5] == "  seed 1001  wrong  min P(X=l) 3e-11  after 0.002 s: upper 0.5, HiGHS 0.25"
    assert len(lines) == 6
    assert stress.summarize(outcomes[4:5], highs=False) == ["4x3  ok 1  raised 0  wrong 0"]


def test_a_rare_arm_sweep_neither_raises_nor_answers_wrongly():
    # exp+obs+exogeneity with P(X=l) ~ Dirichlet(0.3): before the q-form the
    # full LP raised on 3, 7, 11 and 11 of seeds 1000-1039 at these dims
    outcomes = stress.sweep([(3, 3), (4, 3), (4, 4), (5, 3)], range(stress.FIRST_SEED, stress.FIRST_SEED + 10), 0.3, stress.highs_solver())
    assert len(outcomes) == 40
    assert [o for o in outcomes if o.verdict != "ok"] == []
    assert min(o.min_px for o in outcomes) < 1e-9  # the sweep reaches the rarest arms


def test_a_rare_arm_sweep_of_a_three_arm_posterior_effect_neither_raises_nor_answers_wrongly():
    # E[Y_0 - Y_1 | X=d_x-1, Y=0] reads arms 0, 1 and d_x-1, and divides by
    # the mass of the last arm, which the sweep makes rare; HiGHS checks it
    # on the coupling rows, which hold no P(X=l)
    highs = stress.highs_solver()
    outcomes = stress.sweep([(3, 3), (4, 3), (4, 4), (5, 3)], range(stress.FIRST_SEED, stress.FIRST_SEED + 5), 0.3,
                            highs, "posterior_effect")
    assert len(outcomes) == 20
    assert [o for o in outcomes if o.verdict != "ok"] == []
    if highs is not None:
        assert all(o.checked for o in outcomes)


def test_the_posterior_effect_of_the_sweep_is_its_truths_value():
    # the truth's value lies inside the bound, and HiGHS over the couplings
    # gives the bound's endpoints; a single arm with a nonzero objective
    # contributes P(X=l) times its extremes
    dims, spec, exp, obs, px, value = stress.instance(3, 3, 1001, 1.0, "posterior_effect")
    assert spec.condition == (2, 0)
    Y = np.indices((3,) * 3).reshape(3, -1)
    py = np.random.default_rng(1001).dirichlet(np.ones(27))
    assert abs(value - (py * (Y[0] - Y[1]))[Y[2] == 0].sum() / py[Y[2] == 0].sum()) <= 1e-15
    highs = stress.highs_solver()
    if highs is None:
        pytest.skip("scipy does not import")
    res = pb.bound(dims, spec, exp=exp, obs=obs, assumptions=pb.AssumptionSet().with_exogeneity())
    lower, upper = stress.coupled_extremes(highs, dims, obs, pb.bind_condition(spec, obs))
    assert lower <= value <= upper
    assert abs(res.lower - lower) <= 1e-9 and abs(res.upper - upper) <= 1e-9


def test_the_full_mix_bounds_the_same_polytope_on_the_full_lp(monkeypatch):
    # the full mix solves the dense rows and never states a q-form; where
    # the full LP answers, it answers as bound() does
    coupled, honest = [], simplex._couple

    def couple(*args):
        coupled.append(args)
        return honest(*args)

    monkeypatch.setattr(simplex, "_couple", couple)
    seeds, exogenous = range(stress.FIRST_SEED, stress.FIRST_SEED + 3), pb.AssumptionSet().with_exogeneity()
    pairs = []
    for query in stress.QUERIES:
        full = stress.sweep([(3, 3), (4, 3)], seeds, 1.0, None, query, "full")
        assert [o.verdict for o in full] == ["ok"] * 6
        for o in full:
            dims, spec, exp, obs, _, _ = stress.instance(*o.dims, o.seed, 1.0, query)
            pairs.append((stress.full_lp(dims, spec, exp, obs, exogenous), (dims, spec, exp, obs)))
    assert coupled == []
    for got, (dims, spec, exp, obs) in pairs:
        want = pb.bound(dims, spec, exp=exp, obs=obs, assumptions=exogenous)
        assert abs(got.lower - want.lower) <= 1e-9 and abs(got.upper - want.upper) <= 1e-9
    assert len(coupled) == len(pairs)
