"""Orchestration: compile a problem, solve both directions, report the interval.

The rows that hold no table entry are compiled once per shape and shared
by every bound of that shape (:func:`_structure`): each ``bound()`` and
each replicate of a bootstrap or simulation only validates its tables and
writes the right-hand side.  Under exogeneity the rows are handed to the
solver with the exogeneity block kept factored, and it is compiled only
when the full LP runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .compile import (
    ConstraintSet,
    FactoredExogeneity,
    _experimental_rows,
    _observational_rows,
    compile_base,
    experimental_rhs,
    monotone_rhs,
    monotone_rows,
    observational_rhs,
)
from .errors import ConfigError, PoboundsError
from .model import (
    SUM_TOL,
    AssumptionSet,
    Dims,
    ExperimentalMarginals,
    MonotoneTerm,
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


def _relaxed(cs: ConstraintSet, data: np.ndarray) -> tuple[ConstraintSet, np.ndarray, np.ndarray]:
    """Replace each data-equality row (``data`` is their mask) by the pair
    ``row <= .`` and ``-row <= .`` in its place, for ``|row - rhs| <= slack``.

    Opt-in escape hatch for sampling noise: relaxation applies to rows
    sourced from the experimental/observational tables only and is recorded
    in the provenance, never silent.  Returns the relaxed rows and the
    indices of the upper and of the lower copies, whose right-hand sides
    :meth:`_Structure.fill` writes.
    """
    rows = np.repeat(np.arange(len(cs)), np.where(data, 2, 1))
    lower = np.concatenate(([False], rows[1:] == rows[:-1]))  # second copy of a relaxed row
    upper = data[rows] & ~lower
    A, rhs, kind = cs.A[rows], cs.rhs[rows], cs.kind[rows]
    A[lower] = 0.0 - A[lower]
    kind[data[rows]] = "le"
    relaxed = ConstraintSet._checked(cs.dims, A, rhs, kind, tuple(cs.provenance[i] for i in rows))
    return relaxed, np.flatnonzero(upper), np.flatnonzero(lower)


@dataclass(eq=False)
class _Structure:
    """The rows :func:`assemble_constraints` compiles for one shape, less
    the exogeneity rows, split from the tables and levels that set their
    right-hand side.

    ``rows`` holds ``A``, ``kind`` and ``provenance``, checked once: the
    base row, the data rows (each as an ``upper`` and a ``lower`` copy under
    ``slack``) and the monotone rows, last, whose terms and sides are
    ``sides`` (see :func:`compile.monotone_rows`).  No table entry enters
    them, so :meth:`fill` gives the rows of any tables and levels of the
    shape.  The exogeneity rows, the one block that holds a table entry,
    go before the monotone rows.
    """

    rows: ConstraintSet
    upper: np.ndarray
    lower: np.ndarray
    sides: tuple[tuple[int, bool], ...]

    def fill(self, data: np.ndarray, terms: tuple[MonotoneTerm, ...], slack: float | None) -> ConstraintSet:
        """The rows with ``data``, the tables' entries in row order, and the
        levels of ``terms``: entry ``j`` goes to row ``upper[j]``; under
        ``slack`` that row takes the entry plus ``slack`` and row
        ``lower[j]`` takes ``-(entry - slack)``.  Only ``rhs`` is new."""
        rhs = self.rows.rhs.copy()
        if slack is None:
            rhs[self.upper] = data
        else:
            if not np.isfinite(slack) or slack < 0:
                raise ConfigError(f"slack must be a finite nonnegative number, got {slack}")
            rhs[self.upper] = data + slack
            rhs[self.lower] = -(data - slack)
        rhs[rhs.size - len(self.sides) :] = monotone_rhs(terms, self.sides)
        return self.rows.with_rhs(rhs)


# one structure per shape: dims, the tables present, whether slack is set and
# each monotone term's windows and sides; filled anew by every bound
_STRUCTURES: dict[tuple, _Structure] = {}


def _structure(dims: Dims, exp: bool, obs: bool, slack: bool, assumptions: AssumptionSet) -> _Structure:
    """The structure of this shape, compiled the first time it is asked for:
    ``exp`` and ``obs`` say which tables are present and ``slack`` whether
    the data rows are relaxed.  A term's side compiles when its level is
    not vacuous (``U < 1``, ``L > 0``), so levels on the same sides share
    one structure."""
    terms = tuple((t.d_lower.tobytes(), t.d_upper.tobytes(), t.prob_upper < 1.0, t.prob_lower > 0.0)
                  for t in assumptions.terms)
    key = (dims, exp, obs, slack, terms)
    structure = _STRUCTURES.get(key)
    if structure is None:
        data = [block(dims) for block, present in ((_experimental_rows, exp), (_observational_rows, obs)) if present]
        monotone, sides = monotone_rows(dims, assumptions)
        cs = compile_base(dims).merge(*data, monotone)
        upper, lower = np.arange(1, 1 + sum(map(len, data))), np.zeros(0, dtype=np.intp)
        if slack:
            cs, upper, lower = _relaxed(cs, np.isin(np.arange(len(cs)), upper))
        structure = _STRUCTURES[key] = _Structure(cs, upper, lower, sides)
    return structure


def _system(
    dims: Dims,
    exp: ExperimentalMarginals | None,
    obs: ObservationalJoint | None,
    assumptions: AssumptionSet | None,
    slack: float | None,
) -> tuple[ConstraintSet | FactoredExogeneity, tuple[np.ndarray, np.ndarray] | None]:
    """The rows of these inputs, and the marginals of the q-form when it
    applies (see :func:`simplex._couple`), else ``None``.

    The tables are validated and written into the rows of their shape's
    structure (:func:`_structure`).  Under exogeneity the rows are
    :class:`FactoredExogeneity` when the q-form applies, and compiled in
    full otherwise.  The q-form needs no monotone row, no ``slack``, every
    ``P(X=l) > 0`` and, when ``exp`` is given, ``exp`` equal to the arm
    marginals ``m[k] = P(Y=·|X=k)`` within ``SUM_TOL``: on a mismatch the
    full LP finds the certificate."""
    assumptions = assumptions or AssumptionSet()
    if exp is None and obs is None:
        raise ConfigError("need at least one of experimental or observational data")
    if assumptions.exogeneity and obs is None:
        raise ConfigError("exogeneity constraints need the observational table for P(X=l)")
    data = []
    if exp is not None:
        require_valid(exp, dims)
        data.append(experimental_rhs(exp))
    if obs is not None:
        require_valid(obs, dims)
        data.append(observational_rhs(obs))
    structure = _structure(dims, exp is not None, obs is not None, slack is not None, assumptions)
    cs = structure.fill(np.concatenate(data), assumptions.terms, slack)
    if not assumptions.exogeneity:
        return cs, None
    exogenous = FactoredExogeneity(cs, len(cs) - len(structure.sides), obs)
    if slack is None and not structure.sides:
        px = obs.x_marginal()
        if (px > 0.0).all():
            m = obs.table / px[:, None]
            if exp is None or (np.abs(exp.table - m) <= SUM_TOL).all():
                return exogenous, (px, m)
    return exogenous.full(), None


def assemble_constraints(
    dims: Dims,
    exp: ExperimentalMarginals | None = None,
    obs: ObservationalJoint | None = None,
    assumptions: AssumptionSet | None = None,
    slack: float | None = None,
) -> ConstraintSet:
    """Base + whatever data is available + exogeneity + monotone rows, in
    that order, with each data row relaxed to a pair under ``slack``."""
    system, marginals = _system(dims, exp, obs, assumptions, slack)
    return system if marginals is None else system.full()


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
    """:func:`bound`, from the tableaux ``warm`` keeps where they apply (see
    :func:`simplex._solve`); a replicate loop passes the same ``warm`` to
    each of its replicates.  Without ``warm`` the solve is cold."""
    if query.condition is not None and obs is None:
        raise ConfigError("conditional queries need the observational table to bind the divisor")
    system, marginals = _system(dims, exp, obs, assumptions, slack)
    if query.condition is not None:
        objective = bind_condition(query, obs)
    else:
        objective = collapse_to_objective(query, dims)
    phase1, solutions = simplex._solve(system, [(objective, "minimize"), (objective, "maximize")], warm, marginals)
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
