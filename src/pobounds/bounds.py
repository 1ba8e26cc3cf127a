"""Orchestration: compile a problem, solve both directions, report the interval."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import simplex
from .compile import (
    ConstraintSet,
    compile_base,
    compile_exogeneity,
    compile_experimental,
    compile_monotonicity,
    compile_observational,
)
from .errors import ConfigError, PoboundsError
from .model import AssumptionSet, Dims, ExperimentalMarginals, ObservationalJoint, QuerySpec
from .queries import bind_condition, collapse_to_objective


@dataclass(frozen=True)
class BoundResult:
    """A sharp interval with achieving parameter vectors, or an infeasibility
    certificate naming the conflicting constraint provenance tags."""

    status: str  # "ok" | "infeasible"
    lower: float | None = None
    upper: float | None = None
    lower_witness: np.ndarray | None = None
    upper_witness: np.ndarray | None = None
    diagnostics: tuple[str, ...] = ()

    def width(self) -> float:
        if self.status != "ok":
            raise PoboundsError("no interval on an infeasible problem")
        return self.upper - self.lower

    def to_json_dict(self, include_witnesses: bool = False) -> dict:
        out: dict = {"status": self.status}
        if self.status == "ok":
            out["lower"] = self.lower
            out["upper"] = self.upper
            if include_witnesses:
                out["witnesses"] = {
                    "lower": list(map(float, self.lower_witness)),
                    "upper": list(map(float, self.upper_witness)),
                }
        else:
            out["diagnostics"] = list(self.diagnostics)
        return out


def _relax_data_rows(cs: ConstraintSet, eps: float) -> ConstraintSet:
    """Replace each data-equality row by |row - rhs| <= eps.

    Opt-in escape hatch for sampling noise: relaxation applies to rows
    sourced from the experimental/observational tables only and is recorded
    in the provenance, never silent.  Each relaxed row becomes the pair
    ``row <= rhs + eps`` and ``-row <= -(rhs - eps)`` in its place.
    """
    if not np.isfinite(eps) or eps < 0:
        raise ConfigError(f"slack must be a finite nonnegative number, got {eps}")
    data = (cs.kind == "eq") & np.array([tag.startswith(("experimental(", "observational(")) for tag in cs.provenance])
    rows = np.repeat(np.arange(len(cs)), np.where(data, 2, 1))
    lower = np.concatenate(([False], rows[1:] == rows[:-1]))  # second copy of a relaxed row
    upper = data[rows] & ~lower
    A, rhs, kind = cs.A[rows], cs.rhs[rows], cs.kind[rows]
    A[lower] = 0.0 - A[lower]
    rhs[upper] = rhs[upper] + eps
    rhs[lower] = -(rhs[lower] - eps)
    kind[data[rows]] = "le"
    return ConstraintSet(cs.dims, A, rhs, kind, [cs.provenance[i] for i in rows])


def assemble_constraints(
    dims: Dims,
    exp: ExperimentalMarginals | None = None,
    obs: ObservationalJoint | None = None,
    assumptions: AssumptionSet | None = None,
    slack: float | None = None,
) -> ConstraintSet:
    """Base + whatever data is available + exogeneity + monotone rows."""
    assumptions = assumptions or AssumptionSet()
    if exp is None and obs is None:
        raise ConfigError("need at least one of experimental or observational data")
    if assumptions.exogeneity and obs is None:
        raise ConfigError("exogeneity constraints need the observational table for P(X=l)")
    parts = []
    if exp is not None:
        parts.append(compile_experimental(dims, exp))
    if obs is not None:
        parts.append(compile_observational(dims, obs))
    if assumptions.exogeneity:
        parts.append(compile_exogeneity(dims, obs))
    parts.append(compile_monotonicity(dims, assumptions))
    cs = compile_base(dims).merge(*parts)
    if slack is not None:
        cs = _relax_data_rows(cs, slack)
    return cs


def bound(
    dims: Dims,
    query: QuerySpec,
    exp: ExperimentalMarginals | None = None,
    obs: ObservationalJoint | None = None,
    assumptions: AssumptionSet | None = None,
    slack: float | None = None,
) -> BoundResult:
    """Sharp bounds on the query under the given data and assumptions.

    Infeasibility is reported with a certificate, never auto-relaxed; pass
    ``slack`` explicitly to soften data equalities.
    """
    return _bound(dims, query, exp, obs, assumptions, slack)


def _bound(
    dims: Dims,
    query: QuerySpec,
    exp: ExperimentalMarginals | None,
    obs: ObservationalJoint | None,
    assumptions: AssumptionSet | None,
    slack: float | None,
    warm: simplex._WarmStart | None = None,
) -> BoundResult:
    """:func:`bound`, solved from the bases in ``warm`` where they apply
    (see :func:`simplex._solve`); a replicate loop passes the same ``warm``
    to each of its replicates."""
    if query.condition is not None and obs is None:
        raise ConfigError("conditional queries need the observational table to bind the divisor")
    cs = assemble_constraints(dims, exp=exp, obs=obs, assumptions=assumptions, slack=slack)
    if query.condition is not None:
        objective = bind_condition(query, obs)
    else:
        objective = collapse_to_objective(query, dims)

    phase1, solutions = simplex._solve(cs, [(objective, "minimize"), (objective, "maximize")], warm)
    if phase1.status == "infeasible":
        return BoundResult("infeasible", diagnostics=phase1.certificate)
    lo, hi = solutions
    if lo.status != "optimal" or hi.status != "optimal":
        # the feasible region sits inside the simplex, so this cannot be
        # unboundedness of a well-posed problem
        raise PoboundsError(f"unexpected solver status: min={lo.status}, max={hi.status}")
    return BoundResult(
        "ok",
        lower=lo.value,
        upper=hi.value,
        lower_witness=lo.witness,
        upper_witness=hi.witness,
    )


@dataclass(frozen=True)
class SweepPoint:
    assumptions: AssumptionSet
    result: BoundResult | None
    error: str | None = None


def bound_sweep(
    dims: Dims,
    query: QuerySpec,
    assumption_grid: Sequence[AssumptionSet],
    exp: ExperimentalMarginals | None = None,
    obs: ObservationalJoint | None = None,
    slack: float | None = None,
) -> list[SweepPoint]:
    """One bound per grid point, in input order; per-point failures are
    recorded and do not stop the sweep."""
    out = []
    for assumptions in assumption_grid:
        try:
            res = bound(dims, query, exp=exp, obs=obs, assumptions=assumptions, slack=slack)
            out.append(SweepPoint(assumptions, res))
        except PoboundsError as exc:
            out.append(SweepPoint(assumptions, None, error=str(exc)))
    return out
