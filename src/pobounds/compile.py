"""Compilation of data, exogeneity, and monotonicity into linear constraints.

A constraint system is a dense coefficient matrix over the flattened
parameter vector, one row per constraint, built by broadcasting over the cell
grid rather than by visiting cells one at a time.  Nonnegativity of the
parameters is implicit (the solver treats all variables as >= 0), so it never
appears as an explicit row.

The rows that no table sets are built and checked once per :class:`Dims`
and then shared read-only: the base row (:func:`compile_base`), the 0/1
experimental and observational rows, and the masks of the ``y_k = v``
groups of the exogeneity rows, with their tags.  A ``compile_*`` call adds
only what its table sets: the data rows' right-hand side, through
:meth:`ConstraintSet.with_rhs`, and the exogeneity rows' ``1 - P(X=l)`` and
``-P(X=l)`` entries, written into one fresh array that is checked once.
Those entries are the only table entries that reach a coefficient matrix.
:class:`FactoredExogeneity` holds a system's exogeneity rows in the
factored form they are built from, ``P(Y_k=v, X=l) - P(X=l)·P(Y_k=v)``
(:func:`exogeneity_residuals`), and compiles the dense block only when
:meth:`FactoredExogeneity.full` is asked for it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError, ValidationError
from .model import (
    AssumptionSet,
    Dims,
    ExperimentalMarginals,
    MonotoneTerm,
    ObservationalJoint,
    cell_grid,
    require_valid,
)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ConstraintSet:
    """An ordered system ``A[i] . p (= | <=) rhs[i]`` over a fixed parameter space.

    ``A`` is the m-by-n coefficient matrix (n = ``dims.param_count()``),
    ``kind[i]`` is ``"eq"`` or ``"le"``, and ``provenance[i]`` records which
    modelling ingredient produced row ``i``, e.g. ``base-sum``,
    ``experimental(0,1)``, ``observational(2,0)``, ``exogeneity(0,1,2)`` or
    ``monotone(0,lower)``.  The arrays are copied and made read-only.
    """

    dims: Dims
    A: np.ndarray
    rhs: np.ndarray
    kind: np.ndarray
    provenance: tuple[str, ...]

    def __post_init__(self):
        for name, dtype in (("A", float), ("rhs", float), ("kind", str)):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=dtype)))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        self._check()

    def _check(self) -> None:
        """Raise ``ValidationError`` unless the arrays fit the provenance tags
        and ``dims``, and every row has a known kind, finite entries and a
        nonzero coefficient."""
        A, rhs, kind, provenance = self.A, self.rhs, self.kind, self.provenance
        m, n = len(provenance), self.dims.param_count()
        if A.shape != (m, n) or rhs.shape != (m,) or kind.shape != (m,):
            raise ValidationError(
                f"{m} provenance tags over {n} parameters need A ({m}, {n}), rhs ({m},) and kind ({m},); "
                f"got {A.shape}, {rhs.shape} and {kind.shape}"
            )
        checks = (
            (~np.isin(kind, ("eq", "le")), "unknown row kind {kind!r} in row {tag}"),
            (~(np.isfinite(rhs) & np.isfinite(A).all(axis=1)), "non-finite entry in row {tag}"),
            (~A.any(axis=1), "empty coefficient vector in row {tag}"),
        )
        for bad, message in checks:
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ValidationError(message.format(kind=str(kind[i]), tag=provenance[i]))

    def __len__(self) -> int:
        return len(self.provenance)

    @classmethod
    def _checked(cls, dims: Dims, A: np.ndarray, rhs: np.ndarray, kind: np.ndarray,
                 provenance: tuple[str, ...]) -> "ConstraintSet":
        """A set over arrays that have been checked already: they are frozen
        in place, and neither copied nor checked again."""
        cs = object.__new__(cls)
        for name, value in (("dims", dims), ("A", _frozen(A)), ("rhs", _frozen(rhs)), ("kind", _frozen(kind)),
                            ("provenance", provenance)):
            object.__setattr__(cs, name, value)
        return cs

    def with_rhs(self, rhs: np.ndarray) -> "ConstraintSet":
        """The same rows with another right-hand side.  ``A``, ``kind`` and
        ``provenance`` are this set's own objects, already checked; only
        ``rhs`` is copied and checked."""
        rhs = np.array(rhs, dtype=float)
        if rhs.shape != self.rhs.shape:
            raise ValidationError(f"{len(self)} rows need rhs {self.rhs.shape}; got {rhs.shape}")
        finite = np.isfinite(rhs)
        if not finite.all():
            raise ValidationError(f"non-finite entry in row {self.provenance[int(np.argmin(finite))]}")
        return ConstraintSet._checked(self.dims, self.A, rhs, self.kind, self.provenance)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Per-row violation by ``x``: ``|A x - rhs|`` on eq rows, the positive
        part of ``A x - rhs`` on le rows."""
        gap = self.A @ x - self.rhs
        return np.where(self.kind == "eq", np.abs(gap), np.maximum(gap, 0.0))

    def merge(self, *others: "ConstraintSet") -> "ConstraintSet":
        """These rows, then those of each of ``others`` in turn.  The parts
        are checked already, so the merged arrays are not checked again."""
        parts = (self, *others)
        if any(other.dims != self.dims for other in others):
            raise ValidationError("cannot merge constraint sets over different dimensions")
        return ConstraintSet._checked(
            self.dims,
            np.concatenate([cs.A for cs in parts]),
            np.concatenate([cs.rhs for cs in parts]),
            np.concatenate([cs.kind for cs in parts]),
            tuple(tag for cs in parts for tag in cs.provenance),
        )


@cache
def compile_base(dims: Dims) -> ConstraintSet:
    """The normalization row: all parameters sum to one.  Built once per dims."""
    return ConstraintSet(dims, np.ones((1, dims.param_count())), [1.0], ["eq"], ["base-sum"])


def experimental_rhs(exp: ExperimentalMarginals) -> np.ndarray:
    """The right-hand sides of :func:`compile_experimental`'s rows, in row order."""
    return exp.table[:, :-1].reshape(-1)


def observational_rhs(obs: ObservationalJoint) -> np.ndarray:
    """The right-hand sides of :func:`compile_observational`'s rows, in row order."""
    return obs.table.reshape(-1)[:-1]


@cache
def _experimental_rows(dims: Dims) -> ConstraintSet:
    """:func:`compile_experimental`'s rows with a zero right-hand side."""
    Y, _ = cell_grid(dims)
    levels = np.arange(dims.d_y - 1)
    A = (Y[:, None, :] == levels[None, :, None]).reshape(-1, dims.param_count())
    tags = [f"experimental({k},{j})" for k in range(dims.d_x) for j in range(dims.d_y - 1)]
    return ConstraintSet(dims, A, np.zeros(len(tags)), ["eq"] * len(tags), tags)


@cache
def _observational_rows(dims: Dims) -> ConstraintSet:
    """:func:`compile_observational`'s rows with a zero right-hand side."""
    Y, X = cell_grid(dims)
    factual = Y[X, np.arange(X.size)]
    arms, levels = np.arange(dims.d_x), np.arange(dims.d_y)
    A = (X == arms[:, None, None]) & (factual == levels[None, :, None])
    tags = [f"observational({l},{m})" for l in range(dims.d_x) for m in range(dims.d_y)][:-1]
    return ConstraintSet(dims, A.reshape(-1, X.size)[:-1], np.zeros(len(tags)), ["eq"] * len(tags), tags)


@cache
def _exogeneity_groups(dims: Dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masks of :func:`compile_exogeneity`'s groups, row ``k·d_y + v``
    selecting the cells with ``y_k = v``; the same masks over the outcome
    vectors, one cell of each, as 0/1 floats; and the tag of row
    ``(k, v, l)`` at ``[k·d_y + v, l]``."""
    Y, _ = cell_grid(dims)
    groups = _frozen((Y[:, None, :] == np.arange(dims.d_y)[None, :, None]).reshape(-1, Y.shape[1]))
    tags = [[f"exogeneity({k},{v},{l})" for l in range(dims.d_x)] for k in range(dims.d_x) for v in range(dims.d_y)]
    return groups, _frozen(groups[:, :: dims.d_x].astype(float)), _frozen(np.array(tags))


def compile_experimental(dims: Dims, exp: ExperimentalMarginals) -> ConstraintSet:
    """Arm-marginal equalities, one per (arm, outcome) with the top outcome
    omitted: its row is implied by the base row and the others."""
    require_valid(exp, dims)
    return _experimental_rows(dims).with_rhs(experimental_rhs(exp))


def compile_observational(dims: Dims, obs: ObservationalJoint) -> ConstraintSet:
    """Factual-cell equalities, skipping the final (x, y) cell whose row is
    implied by the base row and the others."""
    require_valid(obs, dims)
    return _observational_rows(dims).with_rhs(observational_rhs(obs))


def compile_exogeneity(dims: Dims, obs: ObservationalJoint) -> ConstraintSet:
    """Product constraints P(Y_k=v, X=l) = P(Y_k=v) P(X=l).

    The treatment marginal is a known scalar from the observational table, so
    each constraint is linear: the cells with ``y_k = v`` carry ``1 - P(X=l)``
    where ``x = l`` and ``-P(X=l)`` elsewhere.  Arms with zero probability
    produce 0 = 0 rows and are skipped with a warning.  Linearly dependent
    rows within a (k, v) group are emitted anyway; the solver copes with
    redundancy.
    """
    require_valid(obs, dims)
    px = obs.x_marginal()
    degenerate = [l for l in range(dims.d_x) if px[l] <= 0.0]
    if degenerate:
        warnings.warn(f"degenerate treatment arms {degenerate} have zero probability; exogeneity rows skipped")
    groups, _, tags = _exogeneity_groups(dims)
    _, X = cell_grid(dims)
    arms = np.flatnonzero(px > 0.0)
    coeffs = (X == arms[:, None]) - px[arms, None]
    A = np.where(groups[:, None, :], coeffs[None], 0.0).reshape(-1, X.size)
    # built for this set alone: frozen in place and checked, but not copied
    cs = ConstraintSet._checked(dims, A, np.zeros(len(A)), np.full(len(A), "eq"), tuple(tags[:, arms].ravel().tolist()))
    cs._check()
    return cs


def exogeneity_residuals(dims: Dims, px: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``|A x|`` for the rows ``A`` that :func:`compile_exogeneity` builds
    when ``P(X=l)`` is ``px``, in their order, without building ``A``.

    With ``x`` split by arm, ``M = groups @ x`` holds ``P(Y_k=v, X=l)`` at
    ``[k·d_y + v, l]`` and its row sums ``P(Y_k=v)``, so row ``(k, v, l)``
    reads ``M[k·d_y + v, l] - P(X=l)·Σ_l M[k·d_y + v, l]``.  It equals
    the dense product up to the order of the sums."""
    _, groups, _ = _exogeneity_groups(dims)
    M = groups @ x.reshape(-1, dims.d_x)
    return np.abs(M - M.sum(axis=1, keepdims=True) * px)[:, px > 0.0].reshape(-1)


@dataclass(frozen=True)
class FactoredExogeneity:
    """The rows of ``rows`` with :func:`compile_exogeneity`'s rows for
    ``obs`` inserted before row ``at``: every row of the system, the
    exogeneity rows kept factored.

    :meth:`residuals` and :attr:`provenance` read as those of
    :meth:`full`, the exogeneity rows evaluated by
    :func:`exogeneity_residuals`; only :meth:`full` builds their dense
    block.  ``px`` is ``obs``'s ``P(X=l)``, computed once by the caller
    and read by :attr:`provenance`, :meth:`residuals` and
    ``simplex._couple``.  ``bounds._system`` returns rows of this type
    exactly when the q-form applies (see ``simplex._couple``, which also
    reads the arm marginals from ``obs``), and :meth:`full` otherwise."""

    rows: ConstraintSet
    at: int
    obs: ObservationalJoint
    px: np.ndarray

    @property
    def dims(self) -> Dims:
        return self.rows.dims

    @property
    def provenance(self) -> tuple[str, ...]:
        tags = _exogeneity_groups(self.dims)[2][:, self.px > 0.0].ravel().tolist()
        return self.rows.provenance[: self.at] + tuple(tags) + self.rows.provenance[self.at :]

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Per-row violation by ``x``, as :meth:`ConstraintSet.residuals` of :meth:`full`."""
        own = self.rows.residuals(x)
        return np.concatenate((own[: self.at], exogeneity_residuals(self.dims, self.px, x), own[self.at :]))

    def full(self) -> ConstraintSet:
        """The rows with the exogeneity block compiled in (:func:`compile_exogeneity`)."""
        rows, block, at = self.rows, compile_exogeneity(self.dims, self.obs), self.at
        return ConstraintSet._checked(
            self.dims,
            np.concatenate((rows.A[:at], block.A, rows.A[at:])),
            np.concatenate((rows.rhs[:at], block.rhs, rows.rhs[at:])),
            np.concatenate((rows.kind[:at], block.kind, rows.kind[at:])),
            rows.provenance[:at] + block.provenance + rows.provenance[at:],
        )


def indicator_mask(dims: Dims, term: MonotoneTerm) -> np.ndarray:
    """0/1 vector over parameters selecting cells whose outcome vector lies
    inside every pairwise increment window of the term."""
    if term.d_lower.shape[0] != dims.d_x:
        raise ValidationError(f"term windows are {term.d_lower.shape[0]}x, dims expect {dims.d_x}")
    Y, _ = cell_grid(dims)
    diff = Y[:, None, :] - Y[None, :, :]
    inside = (term.d_lower[..., None] <= diff) & (diff <= term.d_upper[..., None])
    below_diagonal = np.tri(dims.d_x, k=-1, dtype=bool)[..., None]
    return (inside | ~below_diagonal).all(axis=(0, 1)).astype(float)


def compile_monotonicity(dims: Dims, assumptions: AssumptionSet) -> ConstraintSet:
    """Two inequality rows per term, dropping sides that are vacuous given the
    base constraints (upper side when U = 1, lower side when L = 0).  With no
    term the set has no row."""
    return monotone_rows(dims, assumptions)[0]


def monotone_rows(dims: Dims, assumptions: AssumptionSet) -> tuple[ConstraintSet, tuple[tuple[int, bool], ...]]:
    """:func:`compile_monotonicity`'s set and, for each of its rows, the
    term ``w`` and whether it is that term's upper side: what
    :func:`monotone_rhs` needs to give the rows of other levels."""
    rows, sides = [], []
    for w, term in enumerate(assumptions.terms):
        mask = indicator_mask(dims, term)
        if term.prob_upper < 1.0 and mask.any():
            # empty mask makes the upper side vacuous (0 <= U)
            rows.append(mask)
            sides.append((w, True))
        if term.prob_lower > 0.0:
            if not mask.any():
                # no outcome vector can realize the event; no data could fix this
                raise ValidationError(f"term {w} admits no outcome vector but requires probability >= {term.prob_lower}")
            rows.append(np.where(mask > 0.0, -1.0, 0.0))
            sides.append((w, False))
    A, sides = np.reshape(rows, (len(rows), dims.param_count())), tuple(sides)
    tags = [f"monotone({w},{'upper' if upper else 'lower'})" for w, upper in sides]
    return ConstraintSet(dims, A, monotone_rhs(assumptions.terms, sides), ["le"] * len(tags), tags), sides


def monotone_rhs(terms: tuple[MonotoneTerm, ...], sides: tuple[tuple[int, bool], ...]) -> list[float]:
    """The right-hand side of the monotone rows ``sides`` (see
    :func:`monotone_rows`) at the levels of ``terms``: ``U`` on an upper
    side, ``-L`` on a lower one."""
    return [float(terms[w].prob_upper) if upper else -float(terms[w].prob_lower) for w, upper in sides]


def _consecutive_pairs(d_x: int) -> dict[tuple[int, int], tuple[float, float]]:
    return {(t + 1, t): (0.0, np.inf) for t in range(d_x - 1)}


def _argument(name: str, text: str, cast, what: str):
    """``cast(text)``, an argument of the preset ``name``; a ConfigError naming both if it is not ``what``."""
    try:
        return cast(text)
    except ValueError:
        raise ConfigError(f"{name}: argument {text!r} is not {what}") from None


def preset(name: str, dims: Dims) -> AssumptionSet:
    """Named assumption presets, each a special case of the general form.

    Supported: ``mtr``, ``mite``, ``pairwise(s,t)``, ``epsilon_harm(eps)``,
    ``prob_mtr(L,U)``.
    """
    name = name.strip()
    base, args = name, []
    if "(" in name:
        if not name.endswith(")"):
            raise ConfigError(f"malformed preset {name!r}")
        base, arg_text = name[:-1].split("(", 1)
        args = [a.strip() for a in arg_text.split(",")] if arg_text.strip() else []
    base = base.strip()

    if base == "mtr":
        if args:
            raise ConfigError("mtr takes no arguments")
        pairs, lo, hi = _consecutive_pairs(dims.d_x), 1.0, 1.0
    elif base == "mite":
        if args:
            raise ConfigError("mite takes no arguments")
        pairs, lo, hi = {(s, t): (0.0, 1.0) for s in range(dims.d_x) for t in range(s)}, 1.0, 1.0
    elif base == "pairwise":
        if len(args) != 2:
            raise ConfigError("pairwise takes two arguments: pairwise(s,t)")
        s, t = (_argument(name, a, int, "an integer") for a in args)
        pairs, lo, hi = {(s, t): (0.0, np.inf)}, 1.0, 1.0
    elif base == "epsilon_harm":
        if len(args) != 1:
            raise ConfigError("epsilon_harm takes one argument: epsilon_harm(eps)")
        if dims.d_x != 2:
            raise ConfigError("epsilon_harm is defined for binary treatment only")
        pairs, lo, hi = {(1, 0): (-np.inf, -1.0)}, 0.0, _argument(name, args[0], float, "a number")
    elif base == "prob_mtr":
        if len(args) != 2:
            raise ConfigError("prob_mtr takes two arguments: prob_mtr(L,U)")
        lo, hi = (_argument(name, a, float, "a number") for a in args)
        pairs = _consecutive_pairs(dims.d_x)
    else:
        raise ConfigError(f"unknown preset {name!r}")
    try:
        term = MonotoneTerm.from_pairs(dims.d_x, pairs, lo, hi)
    except ValidationError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    return AssumptionSet((term,))
