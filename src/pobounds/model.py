"""Domain types and index arithmetic for the joint potential-outcome space.

The decision variables of every linear program in this package are the
probabilities ``p[y_vec, x]`` of observing the vector of potential outcomes
``y_vec = (y_0, ..., y_{d_x-1})`` together with treatment ``x``.  Cells are
flattened lexicographically with ``y_0`` as the most significant digit and
``x`` as the least significant one: the C order of a tensor indexed
``[y_0, ..., y_{d_x-1}, x]``.  :func:`cell_grid` is the one array definition
of that layout, :func:`flatten_index` its scalar counterpart.  A query's
coefficients add the factual outcome as a last axis, ``[y_0, ..., x, y]``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import NotAnIntegerError, ValidationError

# Tolerances: far below sampling noise, above double rounding.
SUM_TOL = 1e-9
MASS_SUM_TOL = 1e-8
MASS_NEG_TOL = 1e-9

UNBOUNDED = math.inf


def as_integer(value, what: str) -> int:
    """``value`` as an ``int`` if it is an integer, numpy's included; a bool,
    float or string is refused, never truncated, with an error naming ``what``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise NotAnIntegerError(f"{what} {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class Dims:
    """Problem dimensions: number of treatment arms and outcome levels."""

    d_x: int
    d_y: int

    def __post_init__(self):
        if self.d_x < 2 or self.d_y < 2:
            raise ValidationError(f"need at least 2 treatment and outcome levels, got ({self.d_x}, {self.d_y})")

    def param_count(self) -> int:
        """Number of decision variables, d_y ** d_x * d_x."""
        return self.d_y**self.d_x * self.d_x

    def full_shape(self) -> tuple[int, ...]:
        """Shape of a query's coefficient tensor, indexed ``[y_0, ..., y_{d_x-1}, x, y]``."""
        return (self.d_y,) * self.d_x + (self.d_x, self.d_y)

    def outcome_vectors(self) -> Iterator[tuple[int, ...]]:
        """All potential-outcome vectors in lexicographic order."""
        return itertools.product(range(self.d_y), repeat=self.d_x)

    def cells(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """All (y_vec, x) cells in flattened order."""
        for y_vec in self.outcome_vectors():
            for x in range(self.d_x):
                yield y_vec, x


@dataclass(frozen=True)
class CellIndex:
    """A single cell of the parameter space: outcome vector plus treatment."""

    y_vec: tuple[int, ...]
    x: int

    def check(self, dims: Dims) -> None:
        if len(self.y_vec) != dims.d_x:
            raise ValidationError(f"outcome vector has length {len(self.y_vec)}, expected {dims.d_x}")
        if not all(0 <= y < dims.d_y for y in self.y_vec):
            raise ValidationError(f"outcome value out of range in {self.y_vec}")
        if not 0 <= self.x < dims.d_x:
            raise ValidationError(f"treatment value {self.x} out of range")


def cell_grid(dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """Outcome vectors ``Y`` (d_x by n, ``Y[k]`` = y_k of each cell) and
    treatments ``X`` (length n) of the cells in flattened order."""
    grid = np.indices((dims.d_y,) * dims.d_x + (dims.d_x,)).reshape(dims.d_x + 1, -1)
    return grid[:-1], grid[-1]


def flatten_index(cell: CellIndex, dims: Dims) -> int:
    """Map a cell to its position in the flattened parameter vector."""
    cell.check(dims)
    idx = 0
    for y in cell.y_vec:
        idx = idx * dims.d_y + y
    return idx * dims.d_x + cell.x


def unflatten_index(i: int, dims: Dims) -> CellIndex:
    """Inverse of :func:`flatten_index`."""
    if not 0 <= i < dims.param_count():
        raise ValidationError(f"index {i} out of range for {dims.param_count()} parameters")
    i, x = divmod(i, dims.d_x)
    ys = []
    for _ in range(dims.d_x):
        i, y = divmod(i, dims.d_y)
        ys.append(y)
    return CellIndex(tuple(reversed(ys)), x)


def _frozen_table(table) -> np.ndarray:
    arr = np.asarray(table, dtype=float).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ExperimentalMarginals:
    """Per-arm outcome distributions: ``table[k, j] = P(Y_k = j)``."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _frozen_table(self.table))
        if self.table.ndim != 2:
            raise ValidationError("experimental table must be a d_x by d_y matrix")

    @property
    def dims(self) -> Dims:
        return Dims(*self.table.shape)


@dataclass(frozen=True)
class ObservationalJoint:
    """Factual joint distribution: ``table[l, m] = P(X = l, Y = m)``."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _frozen_table(self.table))
        if self.table.ndim != 2:
            raise ValidationError("observational table must be a d_x by d_y matrix")

    @property
    def dims(self) -> Dims:
        return Dims(*self.table.shape)

    def x_marginal(self) -> np.ndarray:
        return self.table.sum(axis=1)


def validate_distribution(dist: ExperimentalMarginals | ObservationalJoint, dims: Dims) -> list[str]:
    """Check every distribution invariant; return one message per violation.

    An empty list means the distribution is valid.  Shape mismatches raise
    immediately since no further check is meaningful.
    """
    table = dist.table
    if table.shape != (dims.d_x, dims.d_y):
        raise ValidationError(f"table shape {table.shape} does not match dims ({dims.d_x}, {dims.d_y})")
    report = []
    for (i, j), v in np.ndenumerate(table):
        if not 0 <= v <= 1:  # also catches nan
            report.append(f"entry ({i},{j}) = {v:.6g} outside [0, 1]")
    if isinstance(dist, ExperimentalMarginals):
        for k in range(dims.d_x):
            s = float(table[k].sum())
            if abs(s - 1.0) > SUM_TOL:
                report.append(f"arm {k} sums to {s:.12g}, expected 1")
    else:
        s = float(table.sum())
        if abs(s - 1.0) > SUM_TOL:
            report.append(f"table sums to {s:.12g}, expected 1")
    return report


def require_valid(dist: ExperimentalMarginals | ObservationalJoint, dims: Dims) -> None:
    report = validate_distribution(dist, dims)
    if report:
        name = "experimental" if isinstance(dist, ExperimentalMarginals) else "observational"
        raise ValidationError(f"invalid {name} table: " + "; ".join(report), violations=report)


@dataclass(frozen=True)
class MonotoneTerm:
    """One probability-limited window over pairwise outcome increments.

    ``d_lower[s, t] <= y_s - y_t <= d_upper[s, t]`` must hold jointly for all
    ``s > t`` (entries with ``s <= t`` are ignored); the probability of that
    joint event is restricted to ``[prob_lower, prob_upper]``.  Unbounded
    window ends are ``+-inf``, under which the comparison always passes.
    """

    d_lower: np.ndarray
    d_upper: np.ndarray
    prob_lower: float
    prob_upper: float

    def __post_init__(self):
        lo = _frozen_table(self.d_lower)
        hi = _frozen_table(self.d_upper)
        object.__setattr__(self, "d_lower", lo)
        object.__setattr__(self, "d_upper", hi)
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[0] != lo.shape[1]:
            raise ValidationError("increment windows must be square matrices of equal shape")
        d = lo.shape[0]
        for s in range(d):
            for t in range(s):
                if lo[s, t] > hi[s, t]:
                    raise ValidationError(f"window for pair ({s},{t}) is empty: [{lo[s, t]}, {hi[s, t]}]")
        if not 0 <= self.prob_lower <= self.prob_upper <= 1:
            raise ValidationError(f"probability window [{self.prob_lower}, {self.prob_upper}] invalid")

    @classmethod
    def from_pairs(
        cls,
        d_x: int,
        pairs: Mapping[tuple[int, int], tuple[float, float]],
        prob_lower: float = 1.0,
        prob_upper: float = 1.0,
    ) -> "MonotoneTerm":
        """Build a term from explicit (s, t) -> (lower, upper) windows.

        Pairs not mentioned are left unbounded.
        """
        lo = np.full((d_x, d_x), -UNBOUNDED)
        hi = np.full((d_x, d_x), UNBOUNDED)
        for (s, t), (a, b) in pairs.items():
            if not (0 <= t < s < d_x):
                raise ValidationError(f"pair ({s},{t}) must satisfy 0 <= t < s < d_x")
            lo[s, t] = a
            hi[s, t] = b
        return cls(lo, hi, prob_lower, prob_upper)

    def admits(self, y_vec: tuple[int, ...]) -> bool:
        """Whether an outcome vector satisfies every pairwise window."""
        for s in range(len(y_vec)):
            for t in range(s):
                diff = y_vec[s] - y_vec[t]
                if not (self.d_lower[s, t] <= diff <= self.d_upper[s, t]):
                    return False
        return True


@dataclass(frozen=True)
class AssumptionSet:
    """Zero or more monotone terms plus the treatment-exogeneity flag."""

    terms: tuple[MonotoneTerm, ...] = ()
    exogeneity: bool = False

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def with_exogeneity(self, flag: bool = True) -> "AssumptionSet":
        return AssumptionSet(self.terms, flag)

    def to_json_dict(self) -> dict:
        def end(v: float):
            return None if math.isinf(v) else v

        terms = []
        for term in self.terms:
            d = term.d_lower.shape[0]
            pairs = []
            for s in range(d):
                for t in range(s):
                    lo, hi = term.d_lower[s, t], term.d_upper[s, t]
                    if math.isinf(lo) and math.isinf(hi):
                        continue
                    pairs.append({"s": s, "t": t, "lower": end(lo), "upper": end(hi)})
            terms.append(
                {
                    "prob_lower": term.prob_lower,
                    "prob_upper": term.prob_upper,
                    "pairs": pairs,
                }
            )
        return {"exogeneity": self.exogeneity, "terms": terms}


@dataclass(frozen=True)
class QuerySpec:
    """A linear functional over the full (Y_0..Y_{d_x-1}, X, Y) space.

    ``coeffs`` is a float tensor of shape ``dims.full_shape()``, indexed
    ``[y_0, ..., y_{d_x-1}, x, y]`` and copied read-only; reshaped in C order
    to ``(param_count, d_y)``, its rows line up with the parameter vector.
    When ``condition`` is set the functional is the stated linear combination
    divided by ``P(X=l, Y=m)``, and every nonzero coefficient must sit at
    ``[..., l, m]``.
    """

    coeffs: np.ndarray
    condition: tuple[int, int] | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_table(self.coeffs))

    def validate(self, dims: Dims) -> None:
        if self.coeffs.shape != dims.full_shape():
            raise ValidationError(f"coefficient tensor has shape {self.coeffs.shape}, expected {dims.full_shape()}")
        if not np.isfinite(self.coeffs).all():
            raise ValidationError("query has a non-finite coefficient")
        if self.condition is None:
            return
        l, m = self.condition
        if not (0 <= l < dims.d_x and 0 <= m < dims.d_y):
            raise ValidationError(f"condition {self.condition} out of range")
        off_condition = np.ones((dims.d_x, dims.d_y), dtype=bool)
        off_condition[l, m] = False
        bad = np.argwhere((self.coeffs != 0.0) & off_condition)
        if bad.size:
            *y_vec, x, y = bad[0].tolist()
            raise ValidationError(
                f"cell (y={tuple(y_vec)}, x={x}, y_obs={y}) conflicts with condition {self.condition}"
            )


@dataclass(frozen=True)
class SparseJointPO:
    """A sparse joint distribution over outcome vectors, optionally with (X, Y).

    ``space`` is ``"po"`` when keys are plain outcome vectors and ``"full"``
    when keys are ``(y_vec, x, y)`` triples.  Masses in ``(-1e-9, 0)`` are
    clamped to zero at construction; anything more negative is rejected.
    """

    dims: Dims
    entries: Mapping[tuple, float]
    space: str = "po"

    def __post_init__(self):
        if self.space not in ("po", "full"):
            raise ValidationError(f"unknown joint space {self.space!r}")
        cleaned = {}
        for key, mass in self.entries.items():
            if mass < -MASS_NEG_TOL:
                raise ValidationError(f"negative mass {mass:.6g} at {key}")
            cleaned[key] = max(float(mass), 0.0)
        object.__setattr__(self, "entries", cleaned)
        total = self.total_mass()
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValidationError(f"masses sum to {total:.12g}, expected 1")
        for key in cleaned:
            self._check_key(key)

    def _check_key(self, key) -> None:
        if self.space == "po":
            CellIndex(tuple(key), 0).check(self.dims)
        else:
            y_vec, x, y = key
            CellIndex(tuple(y_vec), x).check(self.dims)
            if not 0 <= y < self.dims.d_y:
                raise ValidationError(f"observed outcome {y} out of range in {key}")

    def total_mass(self) -> float:
        return float(sum(self.entries.values()))

    def consistency_violations(self) -> list[str]:
        """Full-space cells carrying mass where the factual outcome disagrees
        with the potential outcome of the received treatment."""
        if self.space == "po":
            return []
        bad = []
        for (y_vec, x, y), mass in self.entries.items():
            if mass > 0 and y_vec[x] != y:
                bad.append(f"mass {mass:.6g} at y_vec={y_vec}, x={x}, y={y}")
        return bad

    def po_marginals(self) -> ExperimentalMarginals:
        """Arm-wise outcome distributions implied by the joint."""
        table = np.zeros((self.dims.d_x, self.dims.d_y))
        for key, mass in self.entries.items():
            y_vec = key if self.space == "po" else key[0]
            for k, y in enumerate(y_vec):
                table[k, y] += mass
        return ExperimentalMarginals(table)

    def xy_marginal(self) -> ObservationalJoint:
        if self.space != "full":
            raise ValidationError("observed-variable marginal requires a full-space joint")
        table = np.zeros((self.dims.d_x, self.dims.d_y))
        for (_, x, y), mass in self.entries.items():
            table[x, y] += mass
        return ObservationalJoint(table)

    def param_vector(self) -> np.ndarray:
        """The flattened p[y_vec, x] vector (full-space joints only)."""
        if self.space != "full":
            raise ValidationError("parameter vector requires a full-space joint")
        vec = np.zeros(self.dims.param_count())
        for (y_vec, x, _), mass in self.entries.items():
            vec[flatten_index(CellIndex(tuple(y_vec), x), self.dims)] += mass
        return vec

    def to_json_dict(self) -> dict:
        cells = []
        for key in sorted(self.entries, key=repr):
            mass = self.entries[key]
            if self.space == "po":
                cells.append({"y_vec": list(key), "mass": mass})
            else:
                y_vec, x, y = key
                cells.append({"y_vec": list(y_vec), "x": x, "y": y, "mass": mass})
        return {"d_x": self.dims.d_x, "d_y": self.dims.d_y, "space": self.space, "cells": cells}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SparseJointPO":
        dims = Dims(as_integer(data["d_x"], "d_x"), as_integer(data["d_y"], "d_y"))
        space = data.get("space", "full")
        entries: dict[tuple, float] = {}
        for cell in data["cells"]:
            y_vec = tuple(as_integer(v, "y_vec entry") for v in cell["y_vec"])
            if space == "po":
                key: tuple = y_vec
            else:
                key = (y_vec, as_integer(cell["x"], "x"), as_integer(cell["y"], "y"))
            entries[key] = entries.get(key, 0.0) + float(cell["mass"])
        return cls(dims, entries, space)
