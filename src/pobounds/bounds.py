"""Orchestration: compile a problem, solve both directions, report the interval."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .compile import (
    ConstraintSet,
    compile_base,
    compile_exogeneity,
    compile_experimental,
    compile_monotonicity,
    compile_observational,
    experimental_rhs,
    observational_rhs,
)
from .errors import ConfigError, PoboundsError
from .model import (
    SUM_TOL,
    AssumptionSet,
    Dims,
    ExperimentalMarginals,
    ObservationalJoint,
    QuerySpec,
    require_valid,
)
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


def _relax_data_rows(
    cs: ConstraintSet, data: np.ndarray, eps: float
) -> tuple[ConstraintSet, np.ndarray, np.ndarray]:
    """Replace each data-equality row (``data`` is their mask) by |row - rhs| <= eps.

    Opt-in escape hatch for sampling noise: relaxation applies to rows
    sourced from the experimental/observational tables only and is recorded
    in the provenance, never silent.  Each relaxed row becomes the pair
    ``row <= rhs + eps`` and ``-row <= -(rhs - eps)`` in its place.  Returns
    the relaxed set and the indices of the upper and of the lower copies.
    """
    if not np.isfinite(eps) or eps < 0:
        raise ConfigError(f"slack must be a finite nonnegative number, got {eps}")
    rows = np.repeat(np.arange(len(cs)), np.where(data, 2, 1))
    lower = np.concatenate(([False], rows[1:] == rows[:-1]))  # second copy of a relaxed row
    upper = data[rows] & ~lower
    A, rhs, kind = cs.A[rows], cs.rhs[rows], cs.kind[rows]
    A[lower] = 0.0 - A[lower]
    rhs[upper] = rhs[upper] + eps
    rhs[lower] = -(rhs[lower] - eps)
    kind[data[rows]] = "le"
    relaxed = ConstraintSet._checked(cs.dims, A, rhs, kind, tuple(cs.provenance[i] for i in rows))
    return relaxed, np.flatnonzero(upper), np.flatnonzero(lower)


@dataclass(frozen=True)
class _Structure:
    """The rows :func:`assemble_constraints` compiles, split from the tables
    that set their right-hand side.

    ``rows`` is the system compiled on the tables the structure was built
    from: ``A``, ``kind`` and ``provenance``, checked once, and the
    right-hand side.  :meth:`fill` gives the same rows on other tables:
    entry ``j`` of their data vector goes to row ``upper[j]``; under
    ``slack`` that row takes the entry plus ``slack`` and row ``lower[j]``
    takes ``-(entry - slack)``.  No table entry enters ``A`` except
    ``P(X=l)`` under exogeneity, so only an exogeneity structure belongs to
    its tables.  ``marginals`` holds ``P(X=l)`` and the arm marginals
    ``m[k] = P(Y=·|X=k)`` when the rows may be solved in their q-form (see
    :func:`simplex._couple`), and is ``None`` otherwise.
    """

    rows: ConstraintSet
    upper: np.ndarray
    lower: np.ndarray
    slack: float | None
    marginals: tuple[np.ndarray, np.ndarray] | None = None

    def fill(self, exp: ExperimentalMarginals | None, obs: ObservationalJoint | None) -> ConstraintSet:
        """The rows on these tables: the tables are validated, and only ``rhs`` is new."""
        dims, data = self.rows.dims, []
        if exp is not None:
            require_valid(exp, dims)
            data.append(experimental_rhs(exp))
        if obs is not None:
            require_valid(obs, dims)
            data.append(observational_rhs(obs))
        data = np.concatenate(data)
        rhs = self.rows.rhs.copy()
        if self.slack is None:
            rhs[self.upper] = data
        else:
            rhs[self.upper] = data + self.slack
            rhs[self.lower] = -(data - self.slack)
        return self.rows.with_rhs(rhs)


def _structure(
    dims: Dims,
    exp: ExperimentalMarginals | None,
    obs: ObservationalJoint | None,
    assumptions: AssumptionSet | None,
    slack: float | None,
) -> _Structure:
    """The structure of :func:`assemble_constraints` for these inputs, its
    rows compiled on these tables: they are :func:`assemble_constraints`.

    The data rows follow the base row.  The q-form needs exogeneity, no
    monotone row, no ``slack``, every ``P(X=l) > 0`` and, when ``exp`` is
    given, ``exp`` equal to ``m`` within ``SUM_TOL``: on a mismatch the full
    LP finds the certificate."""
    assumptions = assumptions or AssumptionSet()
    if exp is None and obs is None:
        raise ConfigError("need at least one of experimental or observational data")
    if assumptions.exogeneity and obs is None:
        raise ConfigError("exogeneity constraints need the observational table for P(X=l)")
    data = [compile_experimental(dims, exp)] if exp is not None else []
    if obs is not None:
        data.append(compile_observational(dims, obs))
    exogeneity = [compile_exogeneity(dims, obs)] if assumptions.exogeneity else []
    monotone = compile_monotonicity(dims, assumptions)
    cs = compile_base(dims).merge(*data, *exogeneity, monotone)
    upper = np.arange(1, 1 + sum(map(len, data)))
    if slack is not None:
        return _Structure(*_relax_data_rows(cs, np.isin(np.arange(len(cs)), upper), slack), slack)
    marginals = None
    if exogeneity and not len(monotone):
        px = obs.x_marginal()
        if (px > 0.0).all():
            m = obs.table / px[:, None]
            if exp is None or (np.abs(exp.table - m) <= SUM_TOL).all():
                marginals = px, m
    return _Structure(cs, upper, np.zeros(0, dtype=np.intp), None, marginals)


def assemble_constraints(
    dims: Dims,
    exp: ExperimentalMarginals | None = None,
    obs: ObservationalJoint | None = None,
    assumptions: AssumptionSet | None = None,
    slack: float | None = None,
) -> ConstraintSet:
    """Base + whatever data is available + exogeneity + monotone rows: the
    rows of the structure compiled on these tables."""
    return _structure(dims, exp, obs, assumptions, slack).rows


class _Loop:
    """What one replicate loop carries from one bound to the next: the last
    structure compiled, and the final tableaux of the last solve in ``warm``.

    A bound reuses the structure when its dims, tables present and ``slack``
    equal the last bound's, its ``assumptions`` are the same object, and
    they do not ask for exogeneity, whose rows hold ``P(X=l)`` in ``A``;
    otherwise it compiles its own.  :meth:`constraints` gives the rows and
    the structure's ``marginals``; a reused structure is never an exogeneity
    structure, so it gives ``None``.
    """

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.assumptions: AssumptionSet | None = None
        self.structure: _Structure | None = None
        self.warm = simplex._WarmStart()

    def constraints(
        self,
        dims: Dims,
        exp: ExperimentalMarginals | None,
        obs: ObservationalJoint | None,
        assumptions: AssumptionSet | None,
        slack: float | None,
    ) -> tuple[ConstraintSet, tuple[np.ndarray, np.ndarray] | None]:
        key = (dims, exp is not None, obs is not None, slack)
        exogeneity = assumptions is not None and assumptions.exogeneity
        if self.structure is None or key != self.key or assumptions is not self.assumptions or exogeneity:
            self.key, self.assumptions = key, assumptions
            self.structure = _structure(dims, exp, obs, assumptions, slack)
            return self.structure.rows, self.structure.marginals
        return self.structure.fill(exp, obs), None


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
    loop: _Loop | None = None,
) -> BoundResult:
    """:func:`bound`, on the structure ``loop`` compiled and from the
    tableaux it keeps where they apply (see :func:`simplex._solve`); a
    replicate loop passes the same ``loop`` to each of its replicates."""
    if query.condition is not None and obs is None:
        raise ConfigError("conditional queries need the observational table to bind the divisor")
    loop = _Loop() if loop is None else loop
    cs, marginals = loop.constraints(dims, exp, obs, assumptions, slack)
    if query.condition is not None:
        objective = bind_condition(query, obs)
    else:
        objective = collapse_to_objective(query, dims)
    phase1, solutions = simplex._solve(cs, [(objective, "minimize"), (objective, "maximize")], loop.warm, marginals)
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
