"""Benchmark for pobounds: the bound-grid, replicates and cli-records workloads.

Run from the root of a checkout; the program is imported from ``./src``:

    python3 perfbench/run.py --workload bound-grid --seed 1 --seconds 20 --trace 0

Inputs depend only on ``--seed``. ``--workload all`` runs every workload in
turn, each in a process of its own, so that no workload's peak RSS holds
another's. ``--trace 0`` measures the end-to-end metrics of the workload:
``setup_s`` (a fresh interpreter importing pobounds, median of five),
``op_ms_p50`` and ``op_ms_p90`` (Harrell-Davis quantiles of op latency, a
failed op counting as its whole deadline), ``ops_per_s`` (ops that passed
per second of op time), ``ok_frac`` (ops that passed over ops attempted)
and ``peak_rss_mb`` (of this process, or of the ``pobounds`` processes in
cli-records). Times are scaled to the host's nominal speed by a reference
timed before every op (see ``workloads.REFERENCE_S``); the raw wall times
are printed beside them. ``--trace 1`` profiles every workload with spans,
so that one run prints every per-layer metric and the tracing overhead;
spans are written to ``.perfbench-out/``. Per-layer times are raw wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every op that times
out, raises, reports "infeasible" on a feasible input, or returns an answer
the oracle rejects counts as ``failed``, with its reason in ``fail.*``.
``correct`` is false when any op returns an answer the oracle rejects.
Timeouts, errors and false "infeasible" reports, such as the documented
solver breakdowns in the skewed round of bound-grid, count only in
``failed``, ``ok_frac`` and ``fail.*``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
from statistics import median
from time import perf_counter

WORKLOADS = ("bound-grid", "replicates", "cli-records")
FAIL_REASONS = ("timeout", "solver_error", "false_infeasible", "wrong_answer")
SETUP_RUNS = 5
# Share of --seconds each workload gets in the traced profile.
TRACE_SHARE = {"bound-grid": 0.6, "replicates": 0.2, "cli-records": 0.2}
# Of a workload's share, the part its traced ops may spend; probes and the
# untraced replay of the same ops take the rest.
TRACED_OP_SHARE = 0.3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def locate_source(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pobounds", "__init__.py")):
        sys.exit(f"error: no pobounds sources under {src}; run from the root of a checkout")
    return src


def machine_block() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy, "highs_check": scipy is not None}


def measure_setup(src: str) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing pobounds, after one
    untimed import that writes the bytecode cache: scaled to the host's
    nominal speed, and raw."""
    from workloads import SPAWN_REFERENCE_S, spawn_reference

    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", "import pobounds"]
    raw, scaled = [], []
    for k in range(SETUP_RUNS + 1):
        ref = spawn_reference()
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        if k:
            raw.append(perf_counter() - t0)
            scaled.append(raw[-1] * SPAWN_REFERENCE_S / ref)
    return median(scaled), median(raw)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def quantile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of
    all order statistics. Op latencies form clusters, one per dims and mix;
    a single order statistic jumps between clusters from run to run where
    they meet, the weighted mean does not. Nearest rank below 20 samples."""
    import numpy as np

    n = len(sorted_values)
    if n < 20:
        return nearest_rank(sorted_values, q)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    x = np.linspace(0.0, 1.0, 20001)[1:-1]
    pdf = np.exp((a - 1) * np.log(x) + (b - 1) * np.log1p(-x) - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b))
    cdf = np.concatenate([[0.0], np.cumsum(pdf)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, cdf.size), cdf))
    return float(weights @ np.asarray(sorted_values))


def make_workload(name: str, seed: int, workdir: str, src: str):
    import workloads

    if name == "bound-grid":
        return workloads.BoundGrid(seed, workdir)
    if name == "replicates":
        return workloads.Replicates(seed, workdir)
    return workloads.CliRecords(seed, workdir, src)


def fail_counts(records) -> dict[str, int]:
    return {reason: sum(r.reason == reason for r in records) for reason in FAIL_REASONS}


def end_to_end(name: str, seed: int, seconds: float, src: str, workdir: str, setup_s, highs_factory):
    import workloads

    w = make_workload(name, seed, workdir, src)
    records, busy = workloads.run_ops(w, seconds)
    if name == "cli-records":
        peak_kb = w.peak_kb
    else:
        # read before the oracle imports scipy into this process; the
        # process runs this one workload
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = perf_counter()
    workloads.check_all(w, records, highs_factory())
    checked_s = perf_counter() - t0
    # a failed op misses every limit: it counts as taking the whole deadline
    lat = sorted(r.scaled if r.reason is None else w.deadline_s for r in records)
    raw = sorted(r.elapsed if r.reason is None else w.deadline_s for r in records)

    ok = sum(r.reason is None for r in records)
    metrics = {
        "setup_s": (setup_s[0], "s"),
        "op_ms_p50": (1e3 * quantile(lat, 0.5), "ms"),
        "op_ms_p90": (1e3 * quantile(lat, 0.9), "ms"),
        "ops_per_s": (ok / sum(r.scaled for r in records), "1/s"),
        "ok_frac": (ok / len(records), "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    beyond = sum(1 for v in lat if v > nearest_rank(lat, 0.9))
    print(f"\n== {name}: {len(records)} ops in {busy:.2f} s of op time, {beyond} beyond p90; "
          f"oracle took {checked_s:.1f} s")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<14} {value:>12.6g} {unit}")
    print(f"  raw wall time: setup_s {setup_s[1]:.6g} s, op_ms_p50 {1e3 * quantile(raw, 0.5):.6g} ms, "
          f"op_ms_p90 {1e3 * quantile(raw, 0.9):.6g} ms, ops_per_s {ok / busy:.6g} 1/s; "
          f"reference median {1e3 * median(r.reference for r in records):.4g} ms "
          f"(nominal {1e3 * w.reference_s:.4g} ms)")
    print("  fail.*         " + ", ".join(f"{k}={v}" for k, v in fail_counts(records).items()))
    for r in records:
        if r.reason is not None:
            print(f"    op {r.index} [{r.label}] {r.reason} {r.extra.get('error', '')}".rstrip())
    return metrics, records


def profile(name: str, seed: int, seconds: float, src: str, workdir: str, outdir: str, highs):
    """Traced ops with per-layer probes, then the same ops untraced."""
    import workloads
    from spans import Tracer

    tracer = Tracer()
    w = make_workload(name, seed, workdir, src)
    traced, _ = workloads.run_ops(w, TRACED_OP_SHARE * TRACE_SHARE[name] * seconds, tracer=tracer)
    replay, _ = workloads.run_ops(make_workload(name, seed, workdir, src), 0.0, count=len(traced))
    workloads.check_all(w, traced, highs)
    tracer.write(os.path.join(outdir, f"trace-{name}-seed{seed}.jsonl"))

    metrics = w.layer_metrics(tracer, traced)
    for reason, n in fail_counts(traced).items():
        metrics[f"fail.{reason}.{name}"] = (n, "count")
    pairs = [(t.elapsed, u.elapsed) for t, u in zip(traced, replay)
             if t.reason in (None, "false_infeasible", "wrong_answer") and u.reason is None]
    on, off = median(p[0] for p in pairs), median(p[1] for p in pairs)
    metrics[f"trace.overhead_ms.{name}"] = (1e3 * (on - off), "ms")
    metrics[f"trace.overhead_frac.{name}"] = ((on - off) / off, "ratio")
    print(f"\n== {name} (traced): {len(traced)} ops traced, {len(pairs)} paired with an untraced replay")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>12.6g} {unit}")
    return metrics, traced


def run_each(args) -> dict:
    """``--workload all`` untraced: one child process per workload, their
    outputs passed through and their results merged under workload prefixes."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            print("\n".join(lines))
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all" and not args.trace:
        result = run_each(args)
        print(json.dumps(result))
        return 0
    root = os.getcwd()
    src = locate_source(root)
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import pobounds

    if not os.path.abspath(pobounds.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"error: imported pobounds from {pobounds.__file__}, not from {src}")
    import oracle

    machine = machine_block()
    print("machine: " + json.dumps(machine, sort_keys=True))
    all_metrics, all_records = {}, []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        if args.trace:
            outdir = os.path.join(root, ".perfbench-out")
            os.makedirs(outdir, exist_ok=True)
            highs = oracle.highs_solver()
            for name in WORKLOADS:
                metrics, records = profile(name, args.seed, args.seconds, src, workdir, outdir, highs)
                all_metrics.update(metrics)
                all_records += records
        else:
            all_metrics, all_records = end_to_end(args.workload, args.seed, args.seconds, src, workdir,
                                                  measure_setup(src), oracle.highs_solver)
    result = {
        "correct": not any(r.reason == "wrong_answer" for r in all_records),
        "attempted": len(all_records),
        "failed": sum(r.reason is not None for r in all_records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in all_metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
