"""Closed-form identification under unit-increment monotonicity.

When raising the treatment level can only keep the outcome or push it up by
exactly one step, the joint distribution of all potential outcomes is
supported on "chains": constant vectors and vectors with a single step up.
Telescoping the per-arm cumulative distributions then pins down every chain
mass, from experimental marginals directly, or from observational data under
exogeneity.
"""

from __future__ import annotations

import numpy as np

from .errors import MiteIncompatibleError, UndefinedConditionalError, ValidationError
from .model import (
    Dims,
    ExperimentalMarginals,
    ObservationalJoint,
    QuerySpec,
    SparseJointPO,
    require_valid,
)
from .queries import collapse_to_objective, condition_probability

NEG_TOL = 1e-8


def _flat_chain(y0: int, d_x: int) -> tuple[int, ...]:
    return (y0,) * d_x


def _step_chain(y0: int, k: int, d_x: int) -> tuple[int, ...]:
    return (y0,) * (k + 1) + (y0 + 1,) * (d_x - 1 - k)


def _chain_masses(arm_table: np.ndarray) -> dict[tuple[int, ...], float]:
    """Chain masses from per-arm outcome distributions by telescoping.

    ``arm_table[k, j]`` is the outcome distribution of arm ``k`` (marginal or
    conditional on X=k; the formulas are the same).  Flat chains take
    ``F_last(y0) - F_first(y0 - 1)``; a step up after arm ``k`` takes
    ``F_k(y0) - F_{k+1}(y0)``.
    """
    d_x, d_y = arm_table.shape
    cum = np.cumsum(arm_table, axis=1)
    masses: dict[tuple[int, ...], float] = {}
    for y0 in range(d_y):
        below = float(cum[0, y0 - 1]) if y0 > 0 else 0.0
        masses[_flat_chain(y0, d_x)] = float(cum[d_x - 1, y0]) - below
    for k in range(d_x - 1):
        for y0 in range(d_y - 1):
            masses[_step_chain(y0, k, d_x)] = float(cum[k, y0] - cum[k + 1, y0])
    return masses


def _screen_negatives(masses: dict[tuple[int, ...], float]) -> list[tuple[str, float]]:
    return [
        (f"chain{chain}", mass)
        for chain, mass in sorted(masses.items())
        if mass < -NEG_TOL
    ]


def _clamp_and_normalize(entries: dict) -> dict:
    cleaned = {k: max(v, 0.0) for k, v in entries.items() if v > 0.0}
    total = sum(cleaned.values())
    if total <= 0:
        raise ValidationError("identified distribution carries no mass")
    if abs(total - 1.0) > 1e-12:
        cleaned = {k: v / total for k, v in cleaned.items()}
    return cleaned


def _conditionals(obs: ObservationalJoint) -> tuple[np.ndarray, np.ndarray]:
    """The treatment marginal P(X=l) and the conditionals P(Y=m | X=l)."""
    require_valid(obs, obs.dims)
    px = obs.x_marginal()
    if np.any(px <= 0.0):
        bad = [int(l) for l in np.flatnonzero(px <= 0.0)]
        raise UndefinedConditionalError(f"P(X=l) = 0 for arms {bad}; conditionals undefined")
    return px, obs.table / px[:, None]


def identify_experimental(exp: ExperimentalMarginals) -> SparseJointPO:
    """Point-identify the joint potential-outcome distribution from per-arm
    marginals.  Raises when any chain mass comes out below -1e-8, which means
    the data contradict the unit-increment assumption."""
    dims = exp.dims
    require_valid(exp, dims)
    masses = _chain_masses(exp.table)
    violations = _screen_negatives(masses)
    if violations:
        raise MiteIncompatibleError(violations)
    return SparseJointPO(dims, _clamp_and_normalize(masses), "po")


def identify_observational(obs: ObservationalJoint) -> SparseJointPO:
    """Point-identify the joint distribution of potential outcomes together
    with the factual pair (X, Y) from the observational table.

    Valid under exogeneity (the caller asserts it): conditional outcome
    distributions stand in for the per-arm marginals, and each chain mass
    splits across treatment levels proportionally to P(X=x), with the
    factual outcome read off the chain at the received treatment.
    """
    dims = obs.dims
    px, cond = _conditionals(obs)
    masses = _chain_masses(cond)
    violations = _screen_negatives(masses)
    if violations:
        raise MiteIncompatibleError(violations)

    entries: dict[tuple, float] = {}
    for y0 in range(dims.d_y):
        chain = _flat_chain(y0, dims.d_x)
        base = masses[chain]
        for x in range(dims.d_x):
            entries[(chain, x, y0)] = base * float(px[x])
    for k in range(dims.d_x - 1):
        for y0 in range(dims.d_y - 1):
            chain = _step_chain(y0, k, dims.d_x)
            base = masses[chain]
            for x in range(dims.d_x):
                y = y0 if x <= k else y0 + 1
                entries[(chain, x, y)] = base * float(px[x])
    return SparseJointPO(dims, _clamp_and_normalize(entries), "full")


def mite_compatibility_report(
    exp: ExperimentalMarginals | None = None,
    obs: ObservationalJoint | None = None,
) -> list[tuple[str, float]]:
    """Run the identification formulas and list every negative-mass cell.

    Empty list = compatible.  With observational data the conditional
    distributions are screened, matching :func:`identify_observational`.
    """
    if exp is None and obs is None:
        raise ValidationError("need at least one data source")
    report: list[tuple[str, float]] = []
    if exp is not None:
        require_valid(exp, exp.dims)
        report.extend(("experimental " + name, mass) for name, mass in _screen_negatives(_chain_masses(exp.table)))
    if obs is not None:
        _, cond = _conditionals(obs)
        report.extend(("observational " + name, mass) for name, mass in _screen_negatives(_chain_masses(cond)))
    return report


def evaluate(
    joint: SparseJointPO,
    query: QuerySpec,
    obs: ObservationalJoint | None = None,
) -> float:
    """Evaluate a linear functional on a point-identified joint.

    Conditional queries divide by P(X=l, Y=m), taken from ``obs`` when given
    and otherwise from the joint's own factual marginal.  Queries that
    depend on (X, Y) require a full-space joint.
    """
    dims = joint.dims
    query.validate(dims)

    divisor = 1.0
    if query.condition is not None:
        if obs is not None:
            divisor = condition_probability(query, obs)
        elif joint.space == "full":
            divisor = condition_probability(query, joint.xy_marginal())
        else:
            raise ValidationError("conditional query on an outcomes-only joint needs the observational table")

    total = 0.0
    if joint.space == "full":
        for (y_vec, x, y), mass in joint.entries.items():
            total += mass * float(query.coeffs[y_vec + (x, y)])
        return total / divisor

    # outcomes-only joint: the collapsed objective must not depend on the
    # treatment column, otherwise the query needs factual information
    per_x = collapse_to_objective(query, dims).reshape(dims.full_shape()[:-1])
    for y_vec, mass in joint.entries.items():
        row = per_x[y_vec]
        if row.max() - row.min() > 1e-12:
            raise ValidationError("query depends on treatment assignment; evaluate it on a full-space joint")
        total += mass * float(row[0])
    return total / divisor
