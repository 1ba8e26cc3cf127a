"""Paired benchmark runs: a base revision against the working tree.

    python3 tools/pairs.py --base HEAD~1 --workload replicates --pairs 10 --seed 9

Each pair runs ``perfbench/run.py`` once on a checkout of ``--base`` and
once on the working tree, alternating which of the two goes first so that
a drift of the host's speed over the run falls on both sides alike.
The base checkout is a ``git worktree`` made for the run and removed after
it.  Each side runs its own ``perfbench/``, as a comparison between two
commits would.

Printed per metric: the median and quartiles of the base's runs and of
the working tree's, the change of the medians, and in how many pairs the
working tree was better, by the direction ``BENCHMARK.json`` declares (a
metric it does not declare counts lower as better).  Each run's
``correct`` flag is printed as it finishes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
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


def directions() -> dict[str, str]:
    """``better`` of every metric ``BENCHMARK.json`` declares, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run(checkout: str, args) -> dict:
    """One run of the checkout's own benchmark; its metrics and ``correct`` flag."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    proc = subprocess.run(argv, cwd=checkout, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} in {checkout} exited with {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return {"correct": result["correct"], "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def better(name: str, head: float, base: float, declared: dict[str, str]) -> bool:
    # under --workload all a metric is named "<workload>.<metric>"
    way = declared.get(name, declared.get(name.split(".", 1)[-1], "lower"))
    return head > base if way == "higher" else head < base


def spread(values: list[float]) -> str:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return f"{median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def report(runs: dict[str, list[dict]], declared: dict[str, str]) -> None:
    names = sorted(set.intersection(*(set(r["metrics"]) for r in runs["base"] + runs["head"])))
    print(f"{'metric':44s} {'base median [q1, q3]':28s} {'head median [q1, q3]':28s} {'change':>8s}  wins")
    for name in names:
        base = [r["metrics"][name] for r in runs["base"]]
        head = [r["metrics"][name] for r in runs["head"]]
        wins = sum(better(name, h, b, declared) for h, b in zip(head, base))
        change = f"{100 * (median(head) / median(base) - 1):+.1f}%" if median(base) else "n/a"
        print(f"{name:44s} {spread(base):28s} {spread(head):28s} {change:>8s}  {wins}/{len(head)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = directions()
    base_dir = tempfile.mkdtemp(prefix="pairs-base-")
    os.rmdir(base_dir)
    subprocess.run(["git", "worktree", "add", "--detach", base_dir, args.base], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    try:
        for i in range(args.pairs):
            order = [("base", base_dir), ("head", ROOT)]
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run(checkout, args))
                print(f"pair {i + 1}/{args.pairs} {side}: correct={runs[side][-1]['correct']}", flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_dir], cwd=ROOT, check=False)
        shutil.rmtree(base_dir, ignore_errors=True)
    report(runs, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
