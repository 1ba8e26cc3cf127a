"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench`` from
the root of a checkout."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pobounds as pb  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def _same(a, b) -> bool:
    """Deep equality of generated inputs, arrays compared element by element."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(_same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return a == b


@pytest.mark.parametrize("make", [gen.grid_instance, gen.replicate_op, gen.cli_op])
def test_generator_is_deterministic(make):
    for i in range(gen.GRID_CYCLE + 3):
        assert _same(make(7, i), make(7, i))


@pytest.mark.parametrize("make", [gen.grid_instance, gen.replicate_op, gen.cli_op])
def test_seed_changes_inputs(make):
    i = len(gen.GRID_DIMS) + 1  # outside the skewed round, whose instances are fixed
    assert not _same(make(7, i), make(8, i))


def test_skewed_round_is_fixed_and_pins_the_documented_recipes():
    for d in range(len(gen.GRID_DIMS)):
        a, b = gen.grid_instance(1, d), gen.grid_instance(2, gen.GRID_CYCLE + d)
        assert a.skewed and _same(a.truth, b.truth) and _same(a.obs, b.obs)
    roadmap = gen.grid_instance(1, gen.GRID_DIMS.index((4, 4)))
    assert roadmap.obs.sum(axis=1).min() == pytest.approx(1.4e-4, rel=0.01)


def test_tables_sum_like_the_package():
    """The benchmark's tables carry the rounding of SparseJointPO's marginals."""
    inst = gen.grid_instance(3, gen.GRID_CYCLE + 3)
    dims = pb.Dims(*inst.dims)
    entries = workloads._full_joint(inst.truth, inst.dims[0])
    joint = pb.SparseJointPO(dims, entries, "full")
    exp, obs = gen.tables_from_truth(inst.truth, *inst.dims)
    assert np.array_equal(exp, joint.po_marginals().table)
    assert np.array_equal(obs, joint.xy_marginal().table)


def test_oracle_objective_matches_package_collapse():
    for i in range(5, 20):
        inst = gen.grid_instance(4, i)
        dims = pb.Dims(*inst.dims)
        query = workloads.pb_query(dims, inst.query)
        obs = pb.ObservationalJoint(inst.obs)
        ours = oracle.objective(inst.dims, inst.query, inst.obs)
        assert np.allclose(ours, workloads._objective(query, dims, obs), rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def solved():
    """A well-conditioned 3x3 instance with a wide interval, and the package's answer."""
    grid = workloads.BoundGrid(5, "")
    for i in range(gen.GRID_CYCLE + 5, 2 * gen.GRID_CYCLE, len(gen.GRID_DIMS)):
        inst = gen.grid_instance(5, i)
        res = grid.run(grid.prepare(i), None)
        rows = oracle.build_rows(inst.dims, inst.exp, inst.obs, inst.exogeneity, inst.monotone)
        c = oracle.objective(inst.dims, inst.query, inst.obs)
        if res.status == "ok" and float(c @ inst.truth.reshape(-1)) < res.upper - 1e-3:
            return inst, res, rows, c
    pytest.fail("no 3x3 instance with the truth below its upper bound")


def _check(solved, lower=None, upper=None, witnesses=None, highs=None):
    inst, res, rows, c = solved
    return oracle.check_interval(
        rows, c, "ok", res.lower if lower is None else lower, res.upper if upper is None else upper,
        (res.lower_witness, res.upper_witness) if witnesses is None else witnesses,
        truth=inst.truth.reshape(-1), highs=highs)[0]


def test_oracle_accepts_the_package_answer(solved):
    assert _check(solved, highs=oracle.highs_solver()) is None


def test_oracle_rejects_planted_wrong_endpoint(solved):
    inst, res, rows, c = solved
    # the witness no longer attains the endpoint
    assert _check(solved, upper=res.upper - 1e-3) == "wrong_answer"
    # feasible witnesses that attain a narrower interval leaving out the truth
    w = res.upper_witness
    assert _check(solved, lower=res.upper, witnesses=(w, w)) == "wrong_answer"


def test_highs_rejects_planted_endpoint_the_truth_cannot():
    """A narrower interval that still holds the truth, with feasible witnesses
    attaining it: only the HiGHS comparison can reject it."""
    highs = oracle.highs_solver()
    if highs is None:
        pytest.skip("scipy is not importable")
    for i in range(gen.GRID_CYCLE + 5, 2 * gen.GRID_CYCLE):
        inst = gen.grid_instance(5, i)
        res = workloads.BoundGrid(5, "").run(workloads.BoundGrid(5, "").prepare(i), None)
        rows = oracle.build_rows(inst.dims, inst.exp, inst.obs, inst.exogeneity, inst.monotone)
        c = oracle.objective(inst.dims, inst.query, inst.obs)
        truth = inst.truth.reshape(-1)
        value = float(c @ truth)
        if value > res.lower + 1e-3:
            args = (rows, c, "ok", value, res.upper, (truth, res.upper_witness))
            assert oracle.check_interval(*args, truth=truth)[0] is None
            assert oracle.check_interval(*args, truth=truth, highs=highs)[0] == "wrong_answer"
            return
    pytest.fail("no instance with the truth strictly inside its interval")


def test_oracle_rejects_planted_infeasible_witness(solved):
    inst, res, rows, c = solved
    bad = res.lower_witness.copy()
    j = int(np.flatnonzero(c == 0)[0])  # keeps the objective value, breaks the rows
    bad[j] += 1e-3
    assert _check(solved, witnesses=(bad, res.upper_witness)) == "wrong_answer"


def test_oracle_flags_false_infeasible(solved):
    inst, res, rows, c = solved
    assert oracle.check_interval(rows, c, "infeasible", truth=inst.truth.reshape(-1))[0] == "false_infeasible"


def test_replication_check_rejects_a_shifted_mean():
    result = {"used": 2, "excluded": 1,
              "endpoints": {"estimate": {"mean": 0.5, "ci": [0.4, 0.6]}}}
    solved = [(0.4,), None, (0.6,)]
    good = {"estimate": {"mean": 0.5, "ci": list(np.percentile([0.4, 0.6], [2.5, 97.5]))}}
    assert oracle.check_replication({**result, "endpoints": good}, solved, ("estimate",)) is None
    shifted = {"estimate": {"mean": 0.51, "ci": good["estimate"]["ci"]}}
    assert oracle.check_replication({**result, "endpoints": shifted}, solved, ("estimate",)) == "wrong_answer"
    assert oracle.check_replication({**result, "used": 3, "excluded": 0}, solved, ("estimate",)) == "wrong_answer"


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec


@pytest.mark.parametrize("workload", ["bound-grid", "replicates", "cli-records"])
def test_end_to_end_metrics_named_with_units(workload):
    proc = _run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[0].split(":", 1)[1])
    assert {"nproc", "cpu", "python", "numpy", "scipy", "highs_check"} <= machine.keys()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert name in proc.stdout.split(lines[-1])[0]


def test_traced_run_reports_every_layer_metric():
    proc = _run_bench("--workload", "bound-grid", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bound-grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
