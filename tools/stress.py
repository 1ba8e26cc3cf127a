"""A rare-arm stress sweep of ``bound()`` under exogeneity.

    python3 tools/stress.py --dims 3x3,4x3,4x4,5x3 --seeds 40 --alpha 0.3
    python3 tools/stress.py --dims 3x3,4x3,4x4,5x3 --seeds 40 --alpha 0.3 --query posterior_effect
    python3 tools/stress.py --dims 3x3,4x3,4x4,5x3 --seeds 40 --alpha 0.3 --mix full

Each instance is a truth with exogenous treatment: outcome vectors
``py ~ Dirichlet(1)`` and, independently, treatment ``px ~ Dirichlet(alpha)``,
both drawn from ``default_rng(seed)`` in that order, for the seeds
``FIRST_SEED`` (1000) up to ``FIRST_SEED + --seeds - 1``.  A small
``alpha`` makes some arm rare, with ``P(X=l)`` down to 1e-9 and below.  The
tables are the experimental and observational marginals of the truth as a
``SparseJointPO``, and the query, bounded under exogeneity with both
tables, is ``--query``: the event ``P(Y_0=0, Y_1>=1)`` (the default), or
the posterior effect ``E[Y_0 - Y_1 | X=d_x-1, Y=0]``, which reads three
arms and divides by the mass of the last arm.  ``--mix q-form`` (the
default) bounds them with ``bound()``, which solves them over couplings
of the arm marginals; ``--mix full`` solves the dense rows of
``assemble_constraints`` with the public ``solve``, once per sense: the
full LP that ``bound()`` falls back to, on the same polytope.

Printed per dims: how many instances returned an interval (``ok``); how
many raised, grouped by the first three words of the message (``raised``);
and how many answered wrongly (``wrong``): "infeasible", though the truth
meets the rows, an interval that misses the truth's value by more than
1e-9, or, when scipy imports, an endpoint more than 1e-9 away from HiGHS.
HiGHS solves the event on the same rows as ``bound()``, and the posterior
effect over couplings ``q`` of the arm marginals ``m = P(Y=.|X=k)``, as
``sum_l P(X=l) * extreme of c_l . q``: those rows hold no ``P(X=l)``,
while on the full rows of a rare arm HiGHS misses by up to 0.2.
``unchecked`` counts the ok instances HiGHS did not solve.  Each failure
is then listed with its seed, its least ``P(X=l)``, the seconds it took
and its message.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pobounds as pb  # noqa: E402

TOL = 1e-9
FIRST_SEED = 1000
QUERIES = ("event", "posterior_effect")


@dataclass(frozen=True)
class Outcome:
    """One instance of the sweep: ``verdict`` is ``ok``, ``raised`` or
    ``wrong``; ``message`` says what was raised or what is wrong."""

    dims: tuple[int, int]
    seed: int
    verdict: str
    min_px: float
    seconds: float
    message: str = ""
    checked: bool = False  # HiGHS solved the rows and agreed


def parse_dims(text: str) -> list[tuple[int, int]]:
    """``"3x3,4x3"`` as ``[(3, 3), (4, 3)]``: ``d_x`` then ``d_y``."""
    try:
        out = [tuple(int(v) for v in part.split("x")) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims {text!r} are not pairs such as 3x3,4x3") from None
    if not all(len(d) == 2 and min(d) >= 2 for d in out):
        raise argparse.ArgumentTypeError(f"dims {text!r} are not pairs of integers >= 2 such as 3x3,4x3")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", type=parse_dims, required=True, help="e.g. 3x3,4x3,4x4,5x3")
    parser.add_argument("--seeds", type=int, required=True, help="instances per dims")
    parser.add_argument("--alpha", type=float, required=True, help="Dirichlet concentration of P(X=l)")
    parser.add_argument("--query", choices=QUERIES, default="event", help="the query bounded (default: event)")
    parser.add_argument("--mix", choices=("q-form", "full"), default="q-form",
                        help="q-form: bound() (default); full: solve() on the dense rows, the full LP")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if not (np.isfinite(args.alpha) and args.alpha > 0.0):
        parser.error("--alpha must be a positive number")
    return args


def instance(d_x: int, d_y: int, seed: int, alpha: float, query: str = "event"):
    """The dims, the query, the truth's experimental and observational
    tables, its ``P(X=l)`` and its value of the query."""
    rng = np.random.default_rng(seed)
    py = rng.dirichlet(np.ones(d_y**d_x))
    px = rng.dirichlet(np.full(d_x, alpha))
    dims = pb.Dims(d_x, d_y)
    Y = np.indices((d_y,) * d_x).reshape(d_x, -1)
    mass = np.outer(py, px)
    entries = {(tuple(Y[:, i].tolist()), x, int(Y[x, i])): float(mass[i, x])
               for i in range(py.size) for x in range(d_x) if mass[i, x] > 0.0}
    truth = pb.SparseJointPO(dims, entries, "full")
    if query == "event":
        spec = pb.build_event_query(dims, {0: 0, 1: {"ge": 1}})
        value = float(py[(Y[0] == 0) & (Y[1] >= 1)].sum())
    else:
        # under exogeneity X=d_x-1 tells nothing of Y beyond Y_{d_x-1}
        spec = pb.build_posterior_effect_query(dims, (0, 1), (d_x - 1, 0))
        given = Y[d_x - 1] == 0
        value = float(py[given] @ (Y[0] - Y[1])[given] / py[given].sum())
    return dims, spec, truth.po_marginals(), truth.xy_marginal(), px, value


def highs_solver():
    """``(constraints, objective) -> (min, max)`` through HiGHS, each ``None``
    where HiGHS reports no optimum; ``None`` when scipy does not import.
    HiGHS's presolve is off: on the rarest arms it calls feasible rows
    infeasible."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None

    def extremes(cs, objective):
        eq, le = cs.kind == "eq", cs.kind == "le"
        out = []
        for sign in (1.0, -1.0):
            res = linprog(sign * objective, A_ub=cs.A[le] if le.any() else None, b_ub=cs.rhs[le] if le.any() else None,
                          A_eq=cs.A[eq], b_eq=cs.rhs[eq], bounds=(0, None), method="highs-ds",
                          options={"presolve": False})
            out.append(sign * float(res.fun) if res.status == 0 else None)
        return tuple(out)

    return extremes


def coupled_extremes(highs, dims, obs, objective) -> tuple[float | None, float | None]:
    """The extremes of ``objective`` over ``p(y, l) = P(X=l)·q_l(y)``, each
    ``q_l`` a coupling of the arm marginals of ``obs``, solved by HiGHS
    one arm at a time on the coupling rows; ``None`` where HiGHS reports
    no optimum."""
    px = obs.x_marginal()
    m = obs.table / px[:, None]
    Y = np.indices((dims.d_y,) * dims.d_x).reshape(dims.d_x, -1)
    levels = np.arange(dims.d_y - 1)
    rows = np.vstack([np.ones(Y.shape[1]), (Y[:, None, :] == levels[:, None]).reshape(-1, Y.shape[1])])
    couplings = SimpleNamespace(A=rows, rhs=np.append(1.0, m[:, :-1]), kind=np.full(len(rows), "eq"))
    per_arm = objective.reshape(-1, dims.d_x).T
    ends = [highs(couplings, c) if c.any() else (0.0, 0.0) for c in per_arm]
    return tuple(None if None in side else float(px @ np.array(side)) for side in zip(*ends))


def full_lp(dims, spec, exp, obs, assumptions) -> pb.BoundResult:
    """What ``bound()`` returns, from the full LP: the dense rows of
    ``assemble_constraints`` solved by the public ``solve`` once per sense,
    never over couplings."""
    cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=assumptions)
    objective = pb.bind_condition(spec, obs) if spec.condition is not None else pb.collapse_to_objective(spec, dims)
    lo, hi = (pb.solve(pb.LpProblem(objective, cs, sense)) for sense in ("minimize", "maximize"))
    if lo.status == "infeasible":
        return pb.BoundResult("infeasible", diagnostics=lo.certificate)
    if lo.status != "optimal" or hi.status != "optimal":
        raise pb.PoboundsError(f"unexpected solver status: min={lo.status}, max={hi.status}")
    return pb.BoundResult("ok", lo.value, hi.value, lo.witness, hi.witness)


def run_one(d_x: int, d_y: int, seed: int, alpha: float, highs, query: str = "event", mix: str = "q-form") -> Outcome:
    dims, spec, exp, obs, px, value = instance(d_x, d_y, seed, alpha, query)
    exogenous = pb.AssumptionSet().with_exogeneity(True)
    head = ((d_x, d_y), seed)
    start = time.perf_counter()
    try:
        res = (full_lp if mix == "full" else pb.bound)(dims, spec, exp=exp, obs=obs, assumptions=exogenous)
    except pb.PoboundsError as exc:
        return Outcome(*head, "raised", float(px.min()), time.perf_counter() - start, str(exc))
    seconds = time.perf_counter() - start
    problem, checked = "", False
    if res.status != "ok":
        problem = f"infeasible {list(res.diagnostics)}"
    elif not res.lower - TOL <= value <= res.upper + TOL:
        problem = f"[{res.lower!r}, {res.upper!r}] misses the truth's {value!r}"
    elif highs is not None:
        if query == "event":
            cs = pb.assemble_constraints(dims, exp=exp, obs=obs, assumptions=exogenous)
            ref = highs(cs, pb.collapse_to_objective(spec, dims))
        else:
            ref = coupled_extremes(highs, dims, obs, pb.bind_condition(spec, obs))
        off = [f"{name} {got!r}, HiGHS {want!r}"
               for name, got, want in zip(("lower", "upper"), (res.lower, res.upper), ref)
               if want is not None and abs(got - want) > TOL]
        problem, checked = "; ".join(off), None not in ref
    return Outcome(*head, "wrong" if problem else "ok", float(px.min()), seconds, problem, checked)


def prefix(message: str) -> str:
    """The first three words of a message: what kind of failure it names."""
    return " ".join(message.split()[:3])


def summarize(outcomes: list[Outcome], highs: bool) -> list[str]:
    """The report's lines: one per dims, in order of first appearance, then one per failure."""
    lines = []
    for dims in dict.fromkeys(o.dims for o in outcomes):
        mine = [o for o in outcomes if o.dims == dims]
        count = Counter(o.verdict for o in mine)
        kinds = Counter(prefix(o.message) for o in mine if o.verdict == "raised")
        raised = ", ".join(f"{kind}: {n}" for kind, n in sorted(kinds.items()))
        line = f"{dims[0]}x{dims[1]}  ok {count['ok']}  raised {count['raised']}" + (f" ({raised})" if raised else "")
        line += f"  wrong {count['wrong']}"
        if highs:
            line += f"  unchecked {sum(o.verdict == 'ok' and not o.checked for o in mine)}"
        lines.append(line)
        lines += [f"  seed {o.seed}  {o.verdict}  min P(X=l) {o.min_px:.3g}  after {o.seconds:.3f} s: {o.message}"
                  for o in mine if o.verdict != "ok"]
    return lines


def sweep(dims: list[tuple[int, int]], seeds: range, alpha: float, highs, query: str = "event",
          mix: str = "q-form") -> list[Outcome]:
    return [run_one(d_x, d_y, seed, alpha, highs, query, mix) for d_x, d_y in dims for seed in seeds]


def main(argv=None) -> int:
    args = parse_args(argv)
    highs = highs_solver()
    if highs is None:
        print("scipy does not import: endpoints are checked against the truth only")
    outcomes = sweep(args.dims, range(FIRST_SEED, FIRST_SEED + args.seeds), args.alpha, highs, args.query, args.mix)
    print("\n".join(summarize(outcomes, highs is not None)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
