"""Self-contained dense two-phase simplex solver.

Problem sizes here are small (a few hundred variables, a few dozen rows), and
basic solutions double as sharpness witnesses, so a dense tableau with
Bland's rule is the right tool: deterministic pivots, exact vertex output,
and no external dependencies.  Each pivot is a few whole-array operations:
a mask and ``argmax`` find the first column with reduced cost below
``-PIVOT_TOL``, ``argmin`` over the integer basis the ratio tie with the
smallest basic index, then one rank-1 update; the path is Bland's, bit for bit.

A presolve runs in front of every solve.  Over the simplex ``sum(p) = 1,
p >= 0``, an ``le`` row ``a . p <= min(a)`` holds only with every cell where
``a`` exceeds its minimum at zero; the almost-sure monotone terms compile to
exactly such rows.  Those columns and rows leave the tableau, and the
solution is scattered back into the full vector and certified against the
original rows.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compile import ConstraintSet
from .errors import SolverFailureError, ValidationError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
DEAD_TOL = 1e-12
MAX_ITERATIONS = 200_000


@dataclass(frozen=True)
class LpProblem:
    """Minimize or maximize ``objective . p`` subject to a constraint set.

    All variables are implicitly nonnegative.
    """

    objective: np.ndarray
    constraints: ConstraintSet
    sense: str = "maximize"

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        object.__setattr__(self, "objective", obj)
        n = self.constraints.A.shape[1]
        if obj.shape != (n,):
            raise ValidationError(f"objective length {obj.shape} does not match {n} parameters")
        if self.sense not in ("minimize", "maximize"):
            raise ValidationError(f"unknown sense {self.sense!r}")


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None
    witness: np.ndarray | None
    iterations: int
    certificate: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Rows:
    """The arrays of a :class:`ConstraintSet` without its ``dims``, so that
    ``A`` may have fewer columns than the model has parameters: the system a
    presolve leaves."""

    A: np.ndarray
    rhs: np.ndarray
    kind: np.ndarray
    provenance: tuple[str, ...]

    residuals = ConstraintSet.residuals


class _Tableau:
    """Standard-form tableau with one slack per inequality and one artificial
    per row.  Maintains reduced costs in the last row (minimization form)."""

    def __init__(self, constraints: ConstraintSet | _Rows):
        m, n_params = constraints.A.shape
        le = np.flatnonzero(constraints.kind == "le")
        self.m = m
        self.art0 = n_params + le.size
        ncols = self.art0 + m

        T = np.zeros((m + 1, ncols + 1))
        T[:m, :n_params] = constraints.A
        T[le, n_params + np.arange(le.size)] = 1.0
        T[:m, -1] = constraints.rhs
        # rhs must start nonnegative for the artificial basis
        neg = np.flatnonzero(T[:m, -1] < 0)
        T[neg] *= -1.0
        T[np.arange(m), self.art0 + np.arange(m)] = 1.0
        self.T = T
        self.basis = [self.art0 + i for i in range(m)]
        self.iterations = 0

    def copy(self) -> "_Tableau":
        tab = copy.copy(self)
        tab.T = self.T.copy()
        tab.basis = list(self.basis)
        return tab

    def set_costs(self, costs: np.ndarray) -> None:
        """Install a cost vector and price out the current basis."""
        self.T[-1, :] = 0.0
        self.T[-1, : costs.size] = costs
        for i, col in enumerate(self.basis):
            c = self.T[-1, col]
            if c != 0.0:
                self.T[-1, :] -= c * self.T[i, :]

    def _pivot(self, row: int, col: int, basis: list[int] | np.ndarray, work: np.ndarray) -> None:
        """Make ``col`` basic in ``row`` and record it in ``basis``; ``work`` is scratch like ``T``."""
        T = self.T
        T[row] /= T[row, col]
        # outer(column, pivot row), the pivot row's own factor zeroed: a broadcast copy and
        # an in-place multiply give np.outer's floats faster than a broadcast multiply does
        work[:] = T[:, col, None]
        work[row] = 0.0
        work *= T[row]
        T -= work
        basis[row] = col
        self.iterations += 1

    def run(self, allowed: int) -> str:
        """Minimize until reduced costs are nonnegative (Bland's rule); only the
        first ``allowed`` columns may enter, which keeps artificials out in phase 2."""
        T = self.T
        red, rhs = T[-1, :allowed], T[:-1, -1]
        basis, work = np.array(self.basis, dtype=np.intp), np.empty_like(T)
        try:
            while True:
                if self.iterations > MAX_ITERATIONS:
                    raise SolverFailureError("iteration limit exceeded", tableau=T.copy(), basis=basis.tolist())
                negative = red < -PIVOT_TOL
                entering = int(negative.argmax())
                if not negative[entering]:
                    return "optimal"
                col = T[:-1, entering]
                eligible = (col > PIVOT_TOL).nonzero()[0]
                if eligible.size == 0:
                    if np.any(col > DEAD_TOL):
                        raise SolverFailureError(f"pivot candidates below tolerance in column {entering}",
                                                 tableau=T.copy(), basis=basis.tolist())
                    return "unbounded"
                ratios = rhs[eligible] / col[eligible]
                ties = eligible[ratios <= ratios.min() + DEAD_TOL]
                leaving = int(ties[basis[ties].argmin()])
                self._pivot(leaving, entering, basis, work)
        finally:
            self.basis = basis.tolist()

    def phase1(self) -> float:
        costs = np.zeros(self.art0 + self.m)
        costs[self.art0 :] = 1.0
        self.set_costs(costs)
        if self.run(allowed=self.art0 + self.m) != "optimal":
            raise SolverFailureError("phase 1 terminated without optimum", tableau=self.T.copy())
        return -float(self.T[-1, -1])

    def phase1_duals(self) -> np.ndarray:
        """Row multipliers certifying infeasibility (Farkas certificate)."""
        red_art = self.T[-1, self.art0 : self.art0 + self.m]
        return 1.0 - red_art

    def drop_artificials(self) -> None:
        """Pivot zero-level artificials out of the basis; delete rows that
        turn out redundant, then remove the artificial columns."""
        keep, work = [], np.empty_like(self.T)
        for i in range(self.m):
            if self.basis[i] < self.art0:
                keep.append(i)
                continue
            row = self.T[i, : self.art0]
            best = int(np.argmax(np.abs(row)))
            if abs(row[best]) > PIVOT_TOL:
                # largest entry keeps the (near-zero) artificial level from
                # being amplified into the entering variable
                self._pivot(i, best, self.basis, work)
                keep.append(i)
            # else: redundant row, dropped
        keep_rows = keep + [self.m]
        self.T = self.T[keep_rows][:, list(range(self.art0)) + [-1]]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(self.basis)

    def solution_vector(self) -> np.ndarray:
        x = np.zeros(self.T.shape[1] - 1)
        x[self.basis] = self.T[:-1, -1]
        return np.where(x > 0.0, x, 0.0)


def _certified(constraints: ConstraintSet | _Rows, x: np.ndarray, what: str) -> np.ndarray:
    """``x`` itself if it satisfies every original row to ``FEAS_TOL``;
    otherwise raise, naming the worst row."""
    resid = constraints.residuals(x)
    if not (resid <= FEAS_TOL).all():
        i = int(np.argmax(resid))
        raise SolverFailureError(
            f"{what} violates row {constraints.provenance[i]} by {resid[i]:.3g} (tolerance {FEAS_TOL:g})"
        )
    return x


def _two_phase(
    constraints: ConstraintSet | _Rows, objectives: Sequence[tuple[np.ndarray, str]]
) -> tuple[LpSolution, list[LpSolution]]:
    """Phase 1 once, then phase 2 once per ``(objective, sense)``.

    Returns the phase-1 outcome and one solution per objective.  The phase-1
    outcome is ``feasible`` with the phase-1 basic point, or ``infeasible``
    with a certificate, in which case no objective is solved: the certificate
    carries the provenance tags of rows with nonzero multipliers in the
    phase-1 dual, and dropping or revising one of them is necessary to
    restore feasibility.  Each objective starts from its own copy of the
    feasible basis left after the artificials are driven out, so its pivots
    and witness do not depend on the other objectives.  The phase-1 point and
    every optimal witness are checked against the original rows, and a
    violation beyond ``FEAS_TOL`` raises :class:`SolverFailureError`.
    """
    n = constraints.A.shape[1]
    tab = _Tableau(constraints)
    if tab.phase1() > 1e-9:
        duals = tab.phase1_duals()
        cert = tuple(tag for tag, dual in zip(constraints.provenance, duals) if abs(dual) > 1e-7)
        return LpSolution("infeasible", None, None, tab.iterations, cert), []
    point = _certified(constraints, tab.solution_vector()[:n], "phase-1 point")
    feasible = LpSolution("feasible", 0.0, point, tab.iterations)
    if not objectives:
        return feasible, []

    tab.drop_artificials()
    solutions = []
    for objective, sense in objectives:
        branch = tab.copy()
        costs = np.zeros(branch.art0)
        costs[:n] = (-1.0 if sense == "maximize" else 1.0) * objective
        branch.set_costs(costs)
        if branch.run(allowed=branch.art0) == "unbounded":
            solutions.append(LpSolution("unbounded", None, None, branch.iterations))
            continue
        witness = _certified(constraints, branch.solution_vector()[:n], f"{sense} witness")
        solutions.append(LpSolution("optimal", float(objective @ witness), witness, branch.iterations))
    return feasible, solutions


def _presolve(constraints: ConstraintSet) -> tuple[_Rows, np.ndarray] | None:
    """The reduced system and the mask of the columns it keeps, or ``None``
    when no row forces a column to zero or the reduction is left to the
    full LP.

    With the ``base-sum`` row ``sum(p) = 1`` and ``p >= 0``, every row has
    ``a . p >= min(a)``, so an ``le`` row with ``rhs == min(a)`` forces each
    column where ``a > min(a)`` to zero.  The reduction drops those columns,
    the forcing rows (over the columns left each one is ``min(a)`` times
    the base row, so the base row implies it) and the rows left all-zero
    with a right-hand side they meet.  It returns ``None`` if some ``le``
    row has ``rhs < min(a)`` or a row is left all-zero with a right-hand
    side it misses: the system is infeasible then, and the full LP finds
    the certificate.
    """
    A, rhs, kind = constraints.A, constraints.rhs, constraints.kind
    if not ((kind == "eq") & (rhs == 1.0) & (A == 1.0).all(axis=1)).any():
        return None
    le, low = kind == "le", A.min(axis=1)
    forcing = le & (rhs == low)
    if not forcing.any() or (le & (rhs < low)).any():
        return None
    keep = ~(A[forcing] > low[forcing, None]).any(axis=0)
    sub = A[:, keep]
    empty = ~forcing & ~sub.any(axis=1)
    if (empty & np.where(le, rhs < 0.0, rhs != 0.0)).any():
        return None
    rows = ~(forcing | empty)
    provenance = tuple(tag for tag, kept in zip(constraints.provenance, rows) if kept)
    return _Rows(sub[rows], rhs[rows], kind[rows], provenance), keep


def _lift(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``x`` over the kept columns, scattered into a full vector with zeros elsewhere."""
    full = np.zeros(keep.size)
    full[keep] = x
    return full


def _presolved_two_phase(
    constraints: ConstraintSet, objectives: Sequence[tuple[np.ndarray, str]]
) -> tuple[LpSolution, list[LpSolution]]:
    """:func:`_two_phase` on the system :func:`_presolve` leaves, or on the
    full system when it leaves none or the reduced phase 1 is infeasible.

    The reduced phase-1 point and witnesses are scattered back into full
    vectors, each value is ``objective @ witness`` over the full vector, and
    each vector is certified against the original rows.  Infeasibility
    certificates always come from the full system.
    """
    reduced = _presolve(constraints)
    if reduced is not None:
        rows, keep = reduced
        phase1, solutions = _two_phase(rows, [(objective[keep], sense) for objective, sense in objectives])
        if phase1.status == "feasible":
            point = _certified(constraints, _lift(phase1.witness, keep), "phase-1 point")
            lifted = []
            for (objective, sense), sol in zip(objectives, solutions):
                if sol.status == "optimal":
                    witness = _certified(constraints, _lift(sol.witness, keep), f"{sense} witness")
                    sol = LpSolution("optimal", float(objective @ witness), witness, sol.iterations)
                lifted.append(sol)
            return LpSolution("feasible", 0.0, point, phase1.iterations), lifted
    return _two_phase(constraints, objectives)


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase simplex returning the optimum and a primal witness."""
    phase1, solutions = _presolved_two_phase(problem.constraints, [(problem.objective, problem.sense)])
    return solutions[0] if solutions else phase1


def check_feasible(constraints: ConstraintSet) -> LpSolution:
    """Phase-1 feasibility probe.

    On infeasibility the certificate names the conflicting provenance tags
    (see :func:`_two_phase`); on feasibility the witness is a basic feasible
    point and ``iterations`` counts the phase-1 pivots.
    """
    return _presolved_two_phase(constraints, [])[0]
