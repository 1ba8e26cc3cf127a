"""Builders for causal-quantity objectives and their collapse onto parameters.

A query is a linear functional over the full (Y_0..Y_{d_x-1}, X, Y) space: a
coefficient tensor over the cell grid of :mod:`pobounds.model` plus the
factual outcome, which each builder fills with one broadcast.  Consistency
(X = x implies Y = Y_x) collapses it onto the parameter vector.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import ContradictionError, UndefinedConditionalError, ValidationError
from .model import Dims, ObservationalJoint, QuerySpec, as_integer, cell_grid, factual_mask

ValueConstraint = int | Iterable[int] | Mapping[str, int]
Event = Mapping[int, ValueConstraint] | None
_COMPARE = {"eq": np.equal, "le": np.less_equal, "ge": np.greater_equal}


def _level(value) -> int:
    return as_integer(value, "value constraint")


def expand_values(dims: Dims, constraint: ValueConstraint) -> np.ndarray:
    """The outcome levels a value constraint admits, as a boolean mask over ``range(d_y)``.

    The constraint is one level, an iterable of levels, or a mapping with any of ``eq``,
    ``in``, ``le``, ``ge`` (intersected).  Levels must be integers, never bools or floats.
    """
    levels = np.arange(dims.d_y)
    if isinstance(constraint, Mapping):
        admitted = np.ones(dims.d_y, dtype=bool)
        for op, v in constraint.items():
            if op == "in":
                admitted &= np.isin(levels, [_level(u) for u in v])
            elif op in _COMPARE:
                admitted &= _COMPARE[op](levels, _level(v))
            else:
                raise ValidationError(f"unknown value constraint operator {op!r}")
    else:
        listed = [_level(v) for v in constraint] if isinstance(constraint, Iterable) else [_level(constraint)]
        if not all(0 <= v < dims.d_y for v in listed):
            raise ValidationError(f"outcome levels {sorted(set(listed))} out of range for d_y={dims.d_y}")
        admitted = np.isin(levels, listed)
    if not admitted.any():
        raise ContradictionError("value constraint admits no outcome level")
    return admitted


def _index(value, bound: int, what: str) -> int:
    """An integer ``value``, refused outside ``[0, bound)``: numpy would wrap -1 around."""
    v = as_integer(value, what)
    if not 0 <= v < bound:
        raise ValidationError(f"{what} {v} out of range")
    return v


def _event_cells(dims: Dims, po: Event) -> np.ndarray:
    """Whether each cell's outcome vector meets every arm's value constraint."""
    admitted = np.ones((dims.d_x, dims.d_y), dtype=bool)
    for k, constraint in (po or {}).items():
        admitted[_index(k, dims.d_x, "potential-outcome index")] = expand_values(dims, constraint)
    Y, _ = cell_grid(dims)
    return np.take_along_axis(admitted, Y, axis=1).all(axis=0)


def _query(dims: Dims, values: np.ndarray, x, y, condition) -> QuerySpec:
    """``values`` (one per cell) at each factual pair that ``x``, ``y`` allow (None: all)."""
    pairs = np.zeros((dims.d_x, dims.d_y), dtype=bool)
    pairs[slice(None) if x is None else _index(x, dims.d_x, "treatment value"),
          slice(None) if y is None else _index(y, dims.d_y, "observed outcome")] = True
    _, X = cell_grid(dims)
    return QuerySpec(np.where(pairs[X], values[:, None], 0.0).reshape(dims.full_shape()), condition)


def build_event_query(dims: Dims, po: Event = None, x: int | None = None, y: int | None = None) -> QuerySpec:
    """Indicator functional of a conjunction event over POs and optionally (X, Y).

    ``po`` maps PO indices to value constraints; unmentioned POs are free, so an
    empty event is the constant-one functional."""
    return _query(dims, _event_cells(dims, po), x, y, None)


def build_conditional_query(
    dims: Dims, po: Event, given: tuple[int, int], x: int | None = None, y: int | None = None
) -> QuerySpec:
    """Event probability conditional on the factual pair (X=l, Y=m)."""
    l, m = _index(given[0], dims.d_x, "treatment value"), _index(given[1], dims.d_y, "observed outcome")
    if x is not None and _index(x, dims.d_x, "treatment value") != l:
        raise ContradictionError(f"event fixes X={x} but condition fixes X={l}")
    if y is not None and _index(y, dims.d_y, "observed outcome") != m:
        raise ContradictionError(f"event fixes Y={y} but condition fixes Y={m}")
    return _query(dims, _event_cells(dims, po), l, m, (l, m))


def build_moment_query(dims: Dims, order: int, arms: tuple[int, int]) -> QuerySpec:
    """The m-th moment of the outcome contrast between two arms."""
    i, j = (_index(a, dims.d_x, "arm") for a in arms)
    order = as_integer(order, "moment order")
    if order < 0:
        raise ValidationError(f"moment order {order} is negative")
    Y, _ = cell_grid(dims)
    # a huge order overflows to inf without a warning; QuerySpec.validate refuses it
    with np.errstate(over="ignore"):
        contrast = (Y[i] - Y[j]).astype(float) ** order
    return _query(dims, contrast, None, None, None)


def build_posterior_effect_query(dims: Dims, arms: tuple[int, int], given: tuple[int, int]) -> QuerySpec:
    """Expected contrast between two arms, conditional on factual (X=l, Y=m)."""
    i, j = (_index(a, dims.d_x, "arm") for a in arms)
    l, m = _index(given[0], dims.d_x, "treatment value"), _index(given[1], dims.d_y, "observed outcome")
    Y, _ = cell_grid(dims)
    return _query(dims, (Y[l] == m) * (Y[i] - Y[j]), l, m, (l, m))


def collapse_to_objective(query: QuerySpec, dims: Dims) -> np.ndarray:
    """Dense objective over parameters: the coefficient of p[y_vec, x] is the one at
    the consistent factual cell (y_vec, x, y_x).  Any conditional divisor is left
    to :func:`bind_condition`."""
    query.validate(dims)
    return query.coeffs[factual_mask(dims)]


def condition_probability(query: QuerySpec, obs: ObservationalJoint) -> float:
    """The data constant P(X=l, Y=m) dividing a conditional functional."""
    if query.condition is not None:
        query.validate(obs.dims)
    return _divisor(query, obs)


def _divisor(query: QuerySpec, obs: ObservationalJoint) -> float:
    """:func:`condition_probability` of a query already validated against ``obs.dims``."""
    if query.condition is None:
        raise ValidationError("query has no condition to bind")
    l, m = query.condition
    p = float(obs.table[l, m])
    if p <= 0.0:
        raise UndefinedConditionalError(f"P(X={l}, Y={m}) = {p:.6g}; conditional functional undefined")
    return p


def bind_condition(query: QuerySpec, obs: ObservationalJoint) -> np.ndarray:
    """Collapsed objective divided by the condition probability, a known scalar,
    so the conditional functional stays linear in the parameters."""
    query.validate(obs.dims)
    return query.coeffs[factual_mask(obs.dims)] / _divisor(query, obs)
