"""Domain types and index arithmetic for the joint potential-outcome space.

The decision variables of every linear program in this package are the
probabilities ``p[y_vec, x]`` of observing the vector of potential outcomes
``y_vec = (y_0, ..., y_{d_x-1})`` together with treatment ``x``.  Cells are
flattened lexicographically with ``y_0`` as the most significant digit and
``x`` as the least significant one: the C order of a tensor indexed
``[y_0, ..., y_{d_x-1}, x]``.  :func:`cell_grid` is the one array definition
of that layout.  A query's coefficients and a full joint's masses add the
factual outcome as a last axis, ``[y_0, ..., x, y]``; an outcomes-only
joint's masses are indexed ``[y_0, ..., y_{d_x-1}]``.  :func:`scatter_cells`
turns a list of cells, as input files spell them, into such a tensor.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import MalformedValueError, NotAnIntegerError, ValidationError

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


def as_number(value, what: str) -> float:
    """``value`` as a finite ``float`` if it is a real number, numpy's
    included; a bool, a string (even one that spells a number), NaN, an
    infinity and an int too large for a float are refused with an error
    naming ``what``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise MalformedValueError(f"{what} {value!r} is not a number")
    if not abs(value) <= sys.float_info.max:  # NaN compares false
        raise MalformedValueError(f"{what} {value!r} is not a finite number")
    return float(value)


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
        """Shape of a query's coefficients and a full joint's masses, indexed ``[y_0, ..., y_{d_x-1}, x, y]``."""
        return (self.d_y,) * self.d_x + (self.d_x, self.d_y)


@cache
def cell_grid(dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """Outcome vectors ``Y`` (d_x by n, ``Y[k]`` = y_k of each cell) and
    treatments ``X`` (length n) of the cells in flattened order.  Read-only,
    since every caller shares them."""
    grid = np.indices((dims.d_y,) * dims.d_x + (dims.d_x,)).reshape(dims.d_x + 1, -1)
    grid.setflags(write=False)
    return grid[:-1], grid[-1]


@cache
def factual_mask(dims: Dims) -> np.ndarray:
    """Whether each cell of a ``dims.full_shape()`` tensor is consistent: its
    factual outcome ``y`` is ``y_x``, the potential outcome of the received
    treatment ``x``.  Read-only, since every caller shares it."""
    Y, X = cell_grid(dims)
    mask = (Y[X, np.arange(X.size)][:, None] == np.arange(dims.d_y)).reshape(dims.full_shape())
    mask.setflags(write=False)
    return mask


def scatter_cells(dims: Dims, y_vecs: Sequence, values, xy: Sequence | None = None) -> np.ndarray:
    """``values[i]`` added, in list order, at cell ``y_vecs[i]`` of a ``(d_y,)*d_x``
    tensor or, given ``xy``, at ``y_vecs[i] + xy[i]`` of a ``dims.full_shape()`` one.

    Indices are range-checked before they index (numpy would wrap -1 around):
    lengths, levels, treatments, then factual outcomes, naming the first bad cell.
    """
    wrong = [len(v) for v in y_vecs if len(v) != dims.d_x]
    if wrong:
        raise ValidationError(f"outcome vector has length {wrong[0]}, expected {dims.d_x}")
    # object entries compare as the Python integers they are, however large
    index = np.array(y_vecs, dtype=object).reshape(len(y_vecs), dims.d_x)
    bad = np.flatnonzero(((index < 0) | (index >= dims.d_y)).any(axis=1))
    if bad.size:
        raise ValidationError(f"outcome value out of range in {tuple(index[bad[0]])}")
    shape = (dims.d_y,) * dims.d_x
    if xy is not None:
        pairs = np.array(xy, dtype=object).reshape(len(xy), 2)
        for col, bound, what in ((0, dims.d_x, "treatment value"), (1, dims.d_y, "observed outcome")):
            bad = np.flatnonzero((pairs[:, col] < 0) | (pairs[:, col] >= bound))
            if bad.size:
                raise ValidationError(f"{what} {pairs[bad[0], col]} out of range")
        index = np.hstack([index, pairs])
        shape += (dims.d_x, dims.d_y)
    tensor = np.zeros(shape)
    np.add.at(tensor, tuple(index.astype(np.intp).T), values)
    return tensor


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
    if not (table.min() >= 0.0 and table.max() <= 1.0):  # NaN fails both
        outside = np.argwhere(~((table >= 0.0) & (table <= 1.0))).tolist()  # row-major order
        report += [f"entry ({i},{j}) = {table[i, j]:.6g} outside [0, 1]" for i, j in outside]
    if isinstance(dist, ExperimentalMarginals):
        sums = table.sum(axis=1)
        off = np.abs(sums - 1.0) > SUM_TOL
        if off.any():
            report += [f"arm {k} sums to {sums[k]:.12g}, expected 1" for k in np.flatnonzero(off)]
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


@dataclass(frozen=True, init=False, eq=False)
class SparseJointPO:
    """A joint distribution over outcome vectors, optionally with (X, Y).

    ``mass`` is a read-only tensor indexed ``[y_0, ..., y_{d_x-1}]`` when
    ``space`` is ``"po"`` and ``[y_0, ..., y_{d_x-1}, x, y]`` when it is
    ``"full"``.  ``entries`` maps cells to masses, keyed by outcome vectors or
    ``(y_vec, x, y)`` triples.  Masses in ``(-1e-9, 0)`` are clamped to zero;
    NaN and more negative masses are rejected.  The marginals and the
    parameter vector add cells one at a time in flattened order (weighted
    ``bincount``, never a pre-reduced axis), a rounding that tables derived
    from the same cells elsewhere can reproduce bit for bit.
    """

    dims: Dims
    space: str
    mass: np.ndarray

    def __init__(self, dims: Dims, entries: Mapping[tuple, float], space: str = "po"):
        if space not in ("po", "full"):
            raise ValidationError(f"unknown joint space {space!r}")
        keys = list(entries)
        masses = np.fromiter(entries.values(), float, len(keys))
        nan, negative = np.flatnonzero(np.isnan(masses)), np.flatnonzero(masses < -MASS_NEG_TOL)
        if nan.size:
            raise MalformedValueError(f"mass at {keys[nan[0]]} is not a number")
        if negative.size:
            raise ValidationError(f"negative mass {masses[negative[0]]:.6g} at {keys[negative[0]]}")
        masses = np.maximum(masses, 0.0)
        if space == "po":
            self._set(dims, space, scatter_cells(dims, keys, masses))
        else:
            self._set(dims, space, scatter_cells(dims, [k[0] for k in keys], masses, [k[1:] for k in keys]))

    @classmethod
    def _from_mass(cls, dims: Dims, mass: np.ndarray, space: str) -> "SparseJointPO":
        joint = cls.__new__(cls)
        joint._set(dims, space, mass)
        return joint

    def _set(self, dims: Dims, space: str, mass: np.ndarray) -> None:
        for name, value in (("dims", dims), ("space", space), ("mass", _frozen_table(mass))):
            object.__setattr__(self, name, value)
        total = self.total_mass()
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValidationError(f"masses sum to {total:.12g}, expected 1")

    def _carrying(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Axis indices and masses of the cells that carry mass, in flattened order."""
        at = np.nonzero(self.mass)
        return at, self.mass[at]

    @property
    def entries(self) -> Mapping[tuple, float]:
        """The positive-mass cells, read-only and in flattened order."""
        d_x = self.dims.d_x
        at, masses = self._carrying()
        cells = np.transpose(at).tolist()
        keys = (tuple(c) if self.space == "po" else (tuple(c[:d_x]), c[d_x], c[d_x + 1]) for c in cells)
        return MappingProxyType(dict(zip(keys, masses.tolist())))

    def total_mass(self) -> float:
        return float(self.mass.sum())

    def consistency_violations(self) -> list[str]:
        """Full-space cells carrying mass where the factual outcome disagrees
        with the potential outcome of the received treatment."""
        if self.space == "po":
            return []
        bad = np.argwhere((self.mass > 0) & ~factual_mask(self.dims)).tolist()
        d_x = self.dims.d_x
        return [f"mass {self.mass[tuple(c)]:.6g} at y_vec={tuple(c[:d_x])}, x={c[d_x]}, y={c[d_x + 1]}" for c in bad]

    def po_marginals(self) -> ExperimentalMarginals:
        """Arm-wise outcome distributions implied by the joint."""
        d_x, d_y = self.dims.d_x, self.dims.d_y
        at, masses = self._carrying()
        bins = np.arange(d_x)[:, None] * d_y + np.array(at[:d_x])
        return ExperimentalMarginals(np.bincount(bins.reshape(-1), np.tile(masses, d_x), d_x * d_y).reshape(d_x, d_y))

    def xy_marginal(self) -> ObservationalJoint:
        if self.space != "full":
            raise ValidationError("observed-variable marginal requires a full-space joint")
        d_x, d_y = self.dims.d_x, self.dims.d_y
        at, masses = self._carrying()
        return ObservationalJoint(np.bincount(at[-2] * d_y + at[-1], masses, d_x * d_y).reshape(d_x, d_y))

    def param_vector(self) -> np.ndarray:
        """The flattened p[y_vec, x] vector (full-space joints only)."""
        if self.space != "full":
            raise ValidationError("parameter vector requires a full-space joint")
        at, masses = self._carrying()
        return np.bincount(np.ravel_multi_index(at[:-1], self.mass.shape[:-1]), masses, self.dims.param_count())

    def to_json_dict(self) -> dict:
        """The positive-mass cells in flattened order, with the dimensions and space."""
        d_x, factual = self.dims.d_x, ("x", "y") if self.space == "full" else ()
        at, masses = self._carrying()
        cells = [{"y_vec": c[:d_x], **dict(zip(factual, c[d_x:])), "mass": m}
                 for c, m in zip(np.transpose(at).tolist(), masses.tolist())]
        return {"d_x": d_x, "d_y": self.dims.d_y, "space": self.space, "cells": cells}

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
            entries[key] = entries.get(key, 0.0) + as_number(cell["mass"], "mass")
        return cls(dims, entries, space)
