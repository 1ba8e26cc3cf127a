"""Paired benchmark runs: a base revision against the working tree.

    python3 tools/pairs.py --base HEAD~1 --workload replicates --pairs 10 --seed 9

Each pair runs ``perfbench/run.py`` once on a checkout of ``--base`` and
once on the working tree, alternating which of the two goes first so that
a drift of the host's speed over the run falls on both sides alike.
The base checkout is a ``git archive`` of ``--base`` unpacked into a
temporary directory and removed after the run.  Each side runs its own
``perfbench/``, as a comparison between two commits would.

Printed per metric: the median and quartiles of the base's runs and of
the working tree's, the change of the medians, and in how many pairs the
working tree was better, by the direction ``BENCHMARK.json`` declares (a
metric it does not declare counts lower as better).  Each end-to-end
metric also gets a verdict (:func:`verdict`).  The ops each run attempted
and failed are printed as two undeclared rows, ``attempted`` and
``failed``, without a verdict.  Each run's ``correct`` flag is printed as
it finishes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def declared() -> dict[str, dict]:
    """Every metric ``BENCHMARK.json`` declares, by name: its ``better`` and,
    for an end-to-end metric, its ``bound``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run(checkout: str, args) -> dict:
    """One run of the checkout's own benchmark; its metrics and ``correct`` flag."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    proc = subprocess.run(argv, cwd=checkout, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} in {checkout} exited with {proc.returncode}")
    return outcome(proc.stdout)


def outcome(stdout: str) -> dict:
    """The ``correct`` flag and metrics of the JSON object on the last line of
    a run's standard output, with its ``attempted`` and ``failed`` op counts
    among the metrics (summed over the workloads under ``--workload all``):
    the bench keeps every op, so ``peak_rss_mb`` reads against them."""
    result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update(attempted=result["attempted"], failed=result["failed"])
    return {"correct": result["correct"], "metrics": metrics}


def metric(name: str, metrics: dict[str, dict]) -> dict:
    """The declaration of ``name``; under --workload all a metric is named "<workload>.<metric>"."""
    return metrics.get(name, metrics.get(name.split(".", 1)[-1], {}))


def better(way: str, head: float, base: float) -> bool:
    return head > base if way == "higher" else head < base


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(quantiles(values, n=4, method="inclusive")) if len(values) > 1 else (values[0],) * 3


def verdict(base: list[float], head: list[float], way: str, bound: float) -> str:
    """What paired runs show of one end-to-end metric, ``base[i]`` and
    ``head[i]`` being pair ``i``:

    * ``worse``: the head's median is worse than the base's by more than
      ``bound``, a fraction of the base's median;
    * ``unresolved``: the base's interquartile range is wider than that
      bound, and not every head run beats every base run;
    * ``gain``: the head wins at least 9 in 10 pairs, and its median beats
      the base's by more than the base's interquartile range;
    * ``same`` otherwise.
    """
    q1, mid, q3 = quartiles(base)
    allowed = bound * abs(mid)
    gap = median(head) - mid if way == "higher" else mid - median(head)
    if gap < -allowed:
        return "worse"
    if q3 - q1 > allowed and not all(better(way, h, b) for h in head for b in base):
        return "unresolved"
    if sum(better(way, h, b) for h, b in zip(head, base)) >= 0.9 * len(head) and gap > q3 - q1:
        return "gain"
    return "same"


def spread(values: list[float]) -> str:
    q1, mid, q3 = quartiles(values)
    return f"{mid:.4g} [{q1:.4g}, {q3:.4g}]"


def report(runs: dict[str, list[dict]], metrics: dict[str, dict]) -> None:
    names = sorted(set.intersection(*(set(r["metrics"]) for r in runs["base"] + runs["head"])))
    print(f"{'metric':44s} {'base median [q1, q3]':28s} {'head median [q1, q3]':28s} {'change':>8s}  wins  verdict")
    for name in names:
        base = [r["metrics"][name] for r in runs["base"]]
        head = [r["metrics"][name] for r in runs["head"]]
        spec = metric(name, metrics)
        way = spec.get("better", "lower")
        wins = sum(better(way, h, b) for h, b in zip(head, base))
        change = f"{100 * (median(head) / median(base) - 1):+.1f}%" if median(base) else "n/a"
        judged = verdict(base, head, way, spec["bound"]) if "bound" in spec else ""
        print(f"{name:44s} {spread(base):28s} {spread(head):28s} {change:>8s}  {wins}/{len(head)}  {judged}")


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = declared()
    archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
    base_dir = tempfile.mkdtemp(prefix="pairs-base-")
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    try:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_dir, filter="data")
        for i in range(args.pairs):
            order = [("base", base_dir), ("head", ROOT)]
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run(checkout, args))
                print(f"pair {i + 1}/{args.pairs} {side}: correct={runs[side][-1]['correct']}", flush=True)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    report(runs, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
