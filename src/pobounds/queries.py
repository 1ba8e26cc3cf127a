"""Builders for causal-quantity objectives and their collapse onto parameters.

A query is a linear functional over the full (Y_0..Y_{d_x-1}, X, Y) space.
Consistency (X = x implies Y = Y_x) lets every such functional collapse onto
the parameter vector: cells whose factual outcome disagrees with the
potential outcome of the received treatment carry no probability.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Mapping

import numpy as np

from .errors import ContradictionError, UndefinedConditionalError, ValidationError
from .model import CellIndex, Dims, FullCell, ObservationalJoint, QuerySpec, flatten_index

ValueConstraint = int | Iterable[int] | Mapping[str, int]


def expand_values(dims: Dims, constraint: ValueConstraint) -> frozenset[int]:
    """Expand a value constraint into the set of admitted outcome levels.

    Accepts a single level, an iterable of levels, or a mapping with any of
    the keys ``eq``, ``in``, ``le``, ``ge`` (intersected).
    """
    full = range(dims.d_y)
    if isinstance(constraint, Mapping):
        values = set(full)
        for op, v in constraint.items():
            if op == "eq":
                values &= {int(v)}
            elif op == "in":
                values &= {int(u) for u in v}
            elif op == "le":
                values &= {u for u in full if u <= int(v)}
            elif op == "ge":
                values &= {u for u in full if u >= int(v)}
            else:
                raise ValidationError(f"unknown value constraint operator {op!r}")
    elif isinstance(constraint, (bool, np.bool_)):
        raise ValidationError(f"value constraint {constraint!r} is a boolean, not an outcome level")
    elif isinstance(constraint, numbers.Integral):
        values = {int(constraint)}
    else:
        values = {int(v) for v in constraint}
    if not values:
        raise ContradictionError("value constraint admits no outcome level")
    if not all(0 <= v < dims.d_y for v in values):
        raise ValidationError(f"outcome levels {sorted(values)} out of range for d_y={dims.d_y}")
    return frozenset(values)


def _resolve_event(
    dims: Dims, po: Mapping[int, ValueConstraint] | None
) -> list[frozenset[int]]:
    sets = [frozenset(range(dims.d_y))] * dims.d_x
    for k, constraint in (po or {}).items():
        k = int(k)
        if not 0 <= k < dims.d_x:
            raise ValidationError(f"potential-outcome index {k} out of range")
        sets = [expand_values(dims, constraint) if i == k else s for i, s in enumerate(sets)]
    return sets


def build_event_query(
    dims: Dims,
    po: Mapping[int, ValueConstraint] | None = None,
    x: int | None = None,
    y: int | None = None,
    label: str = "",
) -> QuerySpec:
    """Indicator functional of a conjunction event over POs and optionally (X, Y).

    ``po`` maps PO indices to value constraints; unmentioned POs are free.
    An empty event is the constant-one functional.
    """
    sets = _resolve_event(dims, po)
    xs = range(dims.d_x) if x is None else [int(x)]
    ys = range(dims.d_y) if y is None else [int(y)]
    coeffs: dict[FullCell, float] = {}
    for y_vec in dims.outcome_vectors():
        if not all(y_vec[k] in sets[k] for k in range(dims.d_x)):
            continue
        for xv in xs:
            for yv in ys:
                coeffs[(y_vec, xv, yv)] = 1.0
    q = QuerySpec(coeffs, None, label=label)
    q.validate(dims)
    return q


def build_conditional_query(
    dims: Dims,
    po: Mapping[int, ValueConstraint] | None,
    given: tuple[int, int],
    x: int | None = None,
    y: int | None = None,
    label: str = "",
) -> QuerySpec:
    """Event probability conditional on the factual pair (X=l, Y=m)."""
    l, m = int(given[0]), int(given[1])
    if x is not None and int(x) != l:
        raise ContradictionError(f"event fixes X={x} but condition fixes X={l}")
    if y is not None and int(y) != m:
        raise ContradictionError(f"event fixes Y={y} but condition fixes Y={m}")
    sets = _resolve_event(dims, po)
    coeffs: dict[FullCell, float] = {}
    for y_vec in dims.outcome_vectors():
        if all(y_vec[k] in sets[k] for k in range(dims.d_x)):
            coeffs[(y_vec, l, m)] = 1.0
    q = QuerySpec(coeffs, (l, m), label=label)
    q.validate(dims)
    return q


def build_moment_query(dims: Dims, order: int, arms: tuple[int, int], label: str = "") -> QuerySpec:
    """The m-th moment of the outcome contrast between two arms."""
    i, j = arms
    if not (0 <= i < dims.d_x and 0 <= j < dims.d_x):
        raise ValidationError(f"arms {arms} out of range")
    coeffs: dict[FullCell, float] = {}
    for y_vec in dims.outcome_vectors():
        c = float(y_vec[i] - y_vec[j]) ** order
        if c == 0.0:
            continue
        for x in range(dims.d_x):
            for y in range(dims.d_y):
                coeffs[(y_vec, x, y)] = c
    q = QuerySpec(coeffs, None, label=label or f"moment{order}({i}-{j})")
    q.validate(dims)
    return q


def build_posterior_effect_query(
    dims: Dims, arms: tuple[int, int], given: tuple[int, int], label: str = ""
) -> QuerySpec:
    """Expected contrast between two arms, conditional on factual (X=l, Y=m)."""
    i, j = arms
    l, m = int(given[0]), int(given[1])
    if not (0 <= i < dims.d_x and 0 <= j < dims.d_x):
        raise ValidationError(f"arms {arms} out of range")
    coeffs: dict[FullCell, float] = {}
    for y_vec in dims.outcome_vectors():
        if y_vec[l] != m:
            continue
        c = float(y_vec[i] - y_vec[j])
        if c != 0.0:
            coeffs[(y_vec, l, m)] = c
    q = QuerySpec(coeffs, (l, m), label=label or f"effect({i}-{j}|X={l},Y={m})")
    q.validate(dims)
    return q


def collapse_to_objective(query: QuerySpec, dims: Dims) -> np.ndarray:
    """Dense objective over parameter indices via counterfactual consistency.

    The coefficient of p[y_vec, x] is the query coefficient at the single
    consistent factual cell (y_vec, x, y_x); inconsistent cells contribute
    nothing.  Any conditional divisor is left to :func:`bind_condition`.
    """
    query.validate(dims)
    obj = np.zeros(dims.param_count())
    for (y_vec, x, y), c in query.coeffs.items():
        if y_vec[x] == y and c != 0.0:
            obj[flatten_index(CellIndex(y_vec, x), dims)] += c
    return obj


def condition_probability(query: QuerySpec, obs: ObservationalJoint) -> float:
    """The data constant P(X=l, Y=m) dividing a conditional functional."""
    if query.condition is None:
        raise ValidationError("query has no condition to bind")
    l, m = query.condition
    p = float(obs.table[l, m])
    if p <= 0.0:
        raise UndefinedConditionalError(f"P(X={l}, Y={m}) = {p:.6g}; conditional functional undefined")
    return p


def bind_condition(query: QuerySpec, obs: ObservationalJoint) -> np.ndarray:
    """Collapsed objective divided by the condition probability.

    The divisor is a known scalar, so the conditional functional stays linear
    in the parameters.
    """
    dims = obs.dims
    return collapse_to_objective(query, dims) / condition_probability(query, obs)
