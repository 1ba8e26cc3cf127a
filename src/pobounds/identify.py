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
    factual_mask,
    require_valid,
)
from .queries import _divisor

NEG_TOL = 1e-8


def _chain_masses(arm_table: np.ndarray) -> tuple[np.ndarray, list[tuple[str, float]]]:
    """Chain masses from per-arm outcome distributions by telescoping, and
    every chain whose mass is below ``-NEG_TOL``, in flattened order.

    ``arm_table[k, j]`` is the outcome distribution of arm ``k`` (marginal or
    conditional on X=k; the formulas are the same).  The masses sit on a
    ``(d_y,)*d_x`` tensor that is zero off the chains.  The flat chain at
    ``y0`` takes ``F_last(y0) - F_first(y0 - 1)``; the chain stepping up from
    ``y0`` after arm ``k`` (``y_j = y0 + (j > k)``) takes ``F_k(y0) - F_{k+1}(y0)``.
    """
    d_x, d_y = arm_table.shape
    cum = np.cumsum(arm_table, axis=1)
    masses = np.zeros((d_y,) * d_x)
    levels = np.arange(d_y)
    masses[(levels,) * d_x] = cum[-1] - np.concatenate(([0.0], cum[0, :-1]))
    steps = levels[:-1] + (np.arange(d_x)[:, None, None] > np.arange(d_x - 1)[:, None])
    masses[tuple(steps)] = cum[:-1, :-1] - cum[1:, :-1]
    negative = [(f"chain{tuple(c)}", float(masses[tuple(c)])) for c in np.argwhere(masses < -NEG_TOL).tolist()]
    return masses, negative


def _identified(dims: Dims, mass: np.ndarray, space: str) -> SparseJointPO:
    """The joint of the clamped masses, renormalised when clamping moved their total."""
    mass = np.maximum(mass, 0.0)
    total = mass.sum()
    if abs(total - 1.0) > 1e-12:
        mass = mass / total
    return SparseJointPO._from_mass(dims, mass, space)


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
    masses, negative = _chain_masses(exp.table)
    if negative:
        raise MiteIncompatibleError(negative)
    return _identified(dims, masses, "po")


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
    masses, negative = _chain_masses(cond)
    if negative:
        raise MiteIncompatibleError(negative)
    return _identified(dims, np.where(factual_mask(dims), masses[..., None, None] * px[:, None], 0.0), "full")


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
        report.extend(("experimental " + name, mass) for name, mass in _chain_masses(exp.table)[1])
    if obs is not None:
        _, cond = _conditionals(obs)
        report.extend(("observational " + name, mass) for name, mass in _chain_masses(cond)[1])
    return report


def evaluate(
    joint: SparseJointPO,
    query: QuerySpec,
    obs: ObservationalJoint | None = None,
) -> float:
    """Evaluate a linear functional on a point-identified joint.

    Conditional queries divide by P(X=l, Y=m), taken from ``obs`` when given
    and otherwise from the joint's own factual marginal.  Queries that
    depend on (X, Y) require a full-space joint; on an outcomes-only joint
    the collapsed objective must not depend on the treatment at any cell
    that carries mass.
    """
    dims = joint.dims
    query.validate(dims)

    divisor = 1.0
    if query.condition is not None:
        if obs is not None:
            if obs.dims != dims:
                raise ValidationError(f"observational table dims {obs.dims} do not match the joint's {dims}")
            divisor = _divisor(query, obs)
        elif joint.space == "full":
            divisor = _divisor(query, joint.xy_marginal())
        else:
            raise ValidationError("conditional query on an outcomes-only joint needs the observational table")

    if joint.space == "full":
        coeffs = query.coeffs
    else:
        per_x = query.coeffs[factual_mask(dims)].reshape(joint.mass.shape + (dims.d_x,))
        if (np.ptp(per_x, axis=-1)[joint.mass > 0] > 1e-12).any():
            raise ValidationError("query depends on treatment assignment; evaluate it on a full-space joint")
        coeffs = per_x[..., 0]
    # added one cell at a time in flattened order, the rounding of a per-cell
    # sum on every platform; np.vdot adds in blocks and differs in the last bits
    return float(np.cumsum(joint.mass * coeffs)[-1]) / divisor
