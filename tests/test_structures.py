"""One structure per shape: the rows that hold no table entry are compiled
once for each dims, set of tables present, ``slack`` setting and monotone
term windows and sides, and every ``bound()`` and replicate of that shape
fills in only their right-hand side.  Results must not depend on what was
compiled before them."""

import hashlib
import json

import numpy as np
import pytest

import pobounds as pb
from conftest import bounding_truth, mite_truth
from oracles import reference_rows
from pobounds import bounds, simplex

DIMS = pb.Dims(3, 3)


def tables(truth):
    """The experimental and observational tables of a 3x3 truth that meets MTR."""
    return truth.po_marginals(), truth.xy_marginal()


def digest(res):
    if res.status != "ok":
        return res.diagnostics
    return tuple((v.hex(), hashlib.sha256(w.tobytes()).hexdigest())
                 for v, w in ((res.lower, res.lower_witness), (res.upper, res.upper_witness)))


# two inputs of one shape each: other tables and other levels on the same sides
PAIRS = {
    "prob_mtr": (dict(assumptions=pb.preset("prob_mtr(0.2,1)", DIMS)),
                 dict(assumptions=pb.preset("prob_mtr(0.4,1)", DIMS))),
    "mtr": (dict(assumptions=pb.preset("mtr", DIMS)), dict(assumptions=pb.preset("mtr", DIMS))),
    "slack": (dict(assumptions=pb.preset("prob_mtr(0.3,0.9)", DIMS), slack=0.02),
              dict(assumptions=pb.preset("prob_mtr(0.5,0.8)", DIMS), slack=0.05)),
}


@pytest.mark.parametrize("name", list(PAIRS))
def test_bound_bytes_do_not_depend_on_call_order(name):
    q = pb.build_event_query(DIMS, {0: 0, 1: {"ge": 1}})
    (exp_a, obs_a), (exp_b, obs_b) = tables(bounding_truth()), tables(mite_truth())
    a, b = PAIRS[name]

    def run(order):
        bounds._STRUCTURES.clear()
        calls = {"a": lambda: pb.bound(DIMS, q, exp=exp_a, obs=obs_a, **a),
                 "b": lambda: pb.bound(DIMS, q, exp=exp_b, obs=obs_b, **b)}
        return {key: digest(calls[key]()) for key in order}

    first, second = run("ab"), run("ba")
    assert first == second
    assert len(bounds._STRUCTURES) == 1
    bounds._STRUCTURES.clear()
    assert run("a")["a"] == first["a"] and run("b")["b"] == first["b"]


def test_a_level_sweep_shares_one_structure():
    q = pb.build_event_query(DIMS, {0: 0, 2: {"ge": 1}})
    exp, obs = tables(bounding_truth())
    bounds._STRUCTURES.clear()
    swept = [pb.bound(DIMS, q, exp=exp, obs=obs, assumptions=pb.preset(f"prob_mtr({level!r},1)", DIMS))
             for level in np.linspace(0.05, 1.0, 20).round(4).tolist()]
    assert len(bounds._STRUCTURES) == 1
    for level, res in zip(np.linspace(0.05, 1.0, 20).round(4).tolist(), swept):
        bounds._STRUCTURES.clear()
        cold = pb.bound(DIMS, q, exp=exp, obs=obs, assumptions=pb.preset(f"prob_mtr({level!r},1)", DIMS))
        assert digest(res) == digest(cold)


def test_a_side_that_compiles_or_not_is_another_shape():
    # L > 0 compiles a lower row and U < 1 an upper row: each mix of sides
    # has its own structure, whatever was compiled before it
    exp, obs = tables(bounding_truth())
    bounds._STRUCTURES.clear()
    for n, levels in enumerate(["0.3,1", "0,1", "0,0.8", "0.3,0.8", "0.3,1", "0.5,0.9"], start=1):
        assumptions = pb.preset(f"prob_mtr({levels})", DIMS)
        cs = pb.assemble_constraints(DIMS, exp=exp, obs=obs, assumptions=assumptions)
        A, rhs, kind, provenance = reference_rows(DIMS, exp=exp, obs=obs, assumptions=assumptions)
        assert cs.A.tobytes() == A.tobytes() and cs.rhs.tobytes() == rhs.tobytes()
        assert list(cs.kind) == kind and list(cs.provenance) == provenance
        assert len(bounds._STRUCTURES) == min(n, 4)


def test_cached_structures_are_read_only_and_shared():
    exp, obs = tables(bounding_truth())
    bounds._STRUCTURES.clear()
    mtr = pb.preset("mtr", DIMS)
    cs = bounds._system(DIMS, exp, obs, mtr, None)
    structure = bounds._structure(DIMS, True, True, False, mtr)
    other = bounds._system(DIMS, *tables(mite_truth()), mtr, None)
    assert list(bounds._STRUCTURES.values()) == [structure]
    assert cs.A is other.A is structure.rows.A and cs.kind is other.kind is structure.rows.kind
    for arr in (structure.rows.A, structure.rows.rhs, structure.rows.kind, cs.rhs):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        structure.rows.A[0, 0] = 2.0


# json.dumps of each summary's report: the bootstrap under mtr as it was when
# every replicate loop compiled its structure on its own, before the
# structures were shared, and the other three, whose cold solves pivot
# differently, under the pivot rule of simplex._Tableau.run
SUMMARIES = {
    ("bootstrap", "mtr"): "128ac7bc059b28708bfd48653e6647512ee15d436d38fe3a6a51bb5fd9ac9320",
    ("simulation", "mtr"): "af9cc1551028f7eef0fbd2e7ba70dced346794f0f27894a3f8536bf3c9494e6e",
    ("bootstrap", "prob_mtr(0.5,1.0)"): "40c26a1a4a501f61bfa9a20173dba28992b16683ba058ba70bdbbb6dd8a0f51e",
    ("simulation", "prob_mtr(0.5,1.0)"): "84bd2c65456c043206cbb31c98a16f401385b15ed51c247900d38f45f362b345",
}


@pytest.mark.parametrize("call, preset", list(SUMMARIES), ids=lambda v: v)
def test_replicates_keep_their_bytes_and_share_one_coefficient_matrix(call, preset, monkeypatch):
    seen, honest = [], simplex._WarmStart.fits

    def fits(self, constraints, system, count):
        seen.append((constraints.A, honest(self, constraints, system, count)))
        return seen[-1][1]

    monkeypatch.setattr(simplex._WarmStart, "fits", fits)
    truth = bounding_truth()
    q = pb.build_event_query(DIMS, {0: 0, 2: {"ge": 1}})
    assumptions = pb.preset(preset, DIMS)
    if call == "bootstrap":
        res = pb.bootstrap(DIMS, q, 12, 5, exp_sample=pb.sample_from_truth(truth, 300, 4, "experimental"),
                           obs_sample=pb.sample_from_truth(truth, 300, 3, "observational"), assumptions=assumptions)
    else:
        res = pb.simulation_study(truth, 300, 12, 5, q, data_kind="both", assumptions=assumptions)
    assert hashlib.sha256(json.dumps(res.to_json_dict()).encode()).hexdigest() == SUMMARIES[call, preset]
    # every replicate after the first solves the same A, which the stored bases fit
    assert len(seen) >= 11 and all(A is seen[0][0] for A, _ in seen)
    assert sum(fit for _, fit in seen) >= len(seen) - 2
