"""Self-contained dense two-phase simplex solver.

Problem sizes here are small (a few hundred variables, a few dozen rows), and
basic solutions double as sharpness witnesses, so a dense tableau is the
right tool: deterministic pivots, exact vertex output, and no external
dependencies.  Each run of the primal simplex prices by Dantzig's rule, the
most negative reduced cost entering (the lowest index on ties), until its
first degenerate pivot, one whose least ratio is at most ``DEAD_TOL``, and
by Bland's rule, the first column with reduced cost below ``-PIVOT_TOL``,
from then on (Dantzig 1963; Bland 1977).  Before that pivot each one
strictly lowers the objective, so no basis repeats, and after it Bland's
rule cannot cycle.  An exogeneity system's zero right-hand sides make the
first pivot of its phase 1 degenerate, so that phase 1 keeps Bland's path.
Each pivot is a few whole-array operations: an ``argmin``, or a mask and
``argmax``, finds the entering column, ``argmin`` over the integer basis the
ratio tie with the smallest basic index, then one rank-1 update.

Every solve takes one path (:func:`_solve`): reduce, solve, lift, certify.

* Reduce.  Over the simplex ``sum(p) = 1, p >= 0``, an ``le`` row
  ``a . p <= min(a)`` holds only with every cell where ``a`` exceeds its
  minimum at zero; the almost-sure monotone terms compile to exactly such
  rows.  :func:`_presolve` drops those columns and rows and returns the
  rows left as :class:`_Rows`, with the masks of the rows and columns it
  keeps (all of them, over the system's own arrays, when nothing reduces).
* Reduce to couplings.  Under exogeneity with every ``P(X=l) > 0`` and
  no monotone row, each feasible vector is ``p(y, l) = P(X=l)·q_l(y)``,
  where every ``q_l`` is a coupling of the same arm marginals
  ``m_k = P(Y=·|X=k)`` (a Fréchet class; Balke & Pearl 1997, Rüschendorf
  1991), and nothing else ties the ``q_l`` together.  The caller, which
  knows the tables, passes ``P(X=l)`` and ``m``, and the rows as a
  :class:`compile.FactoredExogeneity`, whose dense exogeneity block is
  compiled only if the full LP runs.  :func:`_couple` states the q-form
  over only the arms ``S`` the objectives read, those along which a
  coefficient varies: two for an event or a moment, three for a
  posterior effect.  It is one LP over the ``d_y^|S|`` outcome
  vectors of those arms with the base row and ``|S|(d_y-1)`` 0/1 marginal
  rows, where the full LP has ``d_x·d_y^d_x`` columns and ``d_x²·d_y``
  exogeneity rows besides its data rows: 9 columns for an event at 5x3,
  against 243 over every arm and 1215 in the full LP.  The other arms may
  be coupled any way at all, so each coupling ``π`` of ``m[S]`` is glued
  to the comonotone coupling ``κ`` of the other arms' marginals as
  ``π ⊗ κ`` (Rüschendorf 1991); an objective that reads every arm has
  ``κ`` the point mass and the rows over all ``d_y^d_x`` vectors.  On a
  2-CPU Xeon a 5x3 ``bound()`` of an event took a median 1.05 ms this
  way against 1.43 ms over every arm, and of a moment 1.01 against
  2.16 ms.  The arms on which an objective is the same form a group, and
  it becomes one objective over ``π`` per group where it is nonzero, all
  after the one phase 1, while the zero group keeps the phase-1 coupling:
  an event or a moment is one group, a posterior effect given ``X=l`` is
  ``{l}`` and the zero group of the other arms.  That phase 1 starts at
  the comonotone vertex (:func:`_comonotone`, the north-west-corner rule;
  Dantzig 1963, ch. 14), so with one of its cells per row it takes no
  pivot.  A q-form that is infeasible, loses precision or lifts a vector
  off an original row leaves the inputs to the presolve and the full LP,
  as if it had not been tried.
* Solve.  Inside one replicate loop only ``rhs`` and the objectives move
  between solves, so :class:`_WarmStart` keeps each objective's final
  tableau, its basis priced afresh on the original columns, and the next
  solve of the same original ``A`` and ``kind``, reduced by the same
  masks, needs only the basic values ``B⁻¹rhs`` (the right-hand-side
  sensitivity analysis of Bertsimas & Tsitsiklis 1997, ch. 5).  The basis
  stays dual feasible, a few dual simplex pivots restore primal
  feasibility (Huangfu & Hall 2018 describe the method in HiGHS), and a
  fresh dual check on the original columns accepts the final basis.  A
  pivot row with no entering column excludes the solve as infeasible
  once its Farkas ray, solved afresh, passes on the original rows.  Any
  doubt sends the solve to the cold two phases of :func:`_two_phase`, and
  an infeasible reduced phase 1 to the full LP, whose certificate names
  the original rows.
* Lift and certify.  Each distinct vector is taken back to the cells,
  scattered through the presolve's mask or glued and spread over the
  arms as ``P(X=l)·q_l``; its value is the objective over the full
  vector, and it must satisfy the original rows (:func:`_postsolve`).
  Every kept row is an original row restricted to the kept columns and
  the lifted vector is zero elsewhere, so this one check covers the
  reduced system too, and it checks the q-form's lift against every data
  and exogeneity row, the latter in the factored form they are built
  from, ``P(Y_k=v, X=l) - P(X=l)·P(Y_k=v)``
  (:func:`compile.exogeneity_residuals`; Andersen & Andersen 1995
  describe the reduce-then-postsolve structure).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Sequence

import numpy as np

from .compile import ConstraintSet, FactoredExogeneity
from .errors import SolverFailureError, ValidationError
from .model import Dims

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
DEAD_TOL = 1e-12
# a phase 1 that ends above this leaves the system infeasible; _farkas's
# soundness argument assumes it
INFEASIBLE_TOL = 1e-9
# a row with a dual multiplier above this in size is named in a certificate
CERT_TOL = 1e-7
MAX_ITERATIONS = 200_000
WARM_PIVOTS_PER_ROW = 3


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
    """The system a presolve leaves: the arrays of a :class:`ConstraintSet`
    without its ``dims``, so that ``A`` may have fewer columns than the model
    has parameters, with the masks of the original ``rows`` and columns
    (``keep``) it kept."""

    A: np.ndarray
    rhs: np.ndarray
    kind: np.ndarray
    provenance: tuple[str, ...]
    rows: np.ndarray
    keep: np.ndarray

    @classmethod
    def whole(cls, constraints: ConstraintSet) -> _Rows:
        """Every row and column of ``constraints``, over its own arrays."""
        return cls(constraints.A, constraints.rhs, constraints.kind, constraints.provenance,
                   np.ones(len(constraints), dtype=bool), np.ones(constraints.A.shape[1], dtype=bool))


def _standard_form(constraints: ConstraintSet | _Rows | _Couplings) -> np.ndarray:
    """``[A | slack | rhs]``, with one slack column per ``le`` row in row order."""
    m, n_params = constraints.A.shape
    le = np.flatnonzero(constraints.kind == "le")
    M = np.zeros((m, n_params + le.size + 1))
    M[:, :n_params] = constraints.A
    M[le, n_params + np.arange(le.size)] = 1.0
    M[:, -1] = constraints.rhs
    return M


class _Tableau:
    """Standard-form tableau with one slack per inequality and one artificial
    per row.  Maintains reduced costs in the last row (minimization form)."""

    def __init__(self, constraints: ConstraintSet | _Rows | _Couplings):
        M = _standard_form(constraints)
        m = M.shape[0]
        self.m, self.art0 = m, M.shape[1] - 1
        T = np.zeros((m + 1, self.art0 + m + 1))
        T[:m, : self.art0] = M[:, :-1]
        T[:m, -1] = M[:, -1]
        # rhs must start nonnegative for the artificial basis
        T[np.flatnonzero(T[:m, -1] < 0)] *= -1.0
        T[np.arange(m), self.art0 + np.arange(m)] = 1.0
        self.T = T
        self.basis = np.arange(self.art0, self.art0 + m, dtype=np.intp)
        self.iterations = 0
        self.priced: _Priced | None = None  # set by a warm solve

    def copy(self) -> "_Tableau":
        tab = object.__new__(_Tableau)
        tab.__dict__.update(self.__dict__)
        tab.T = self.T.copy()
        tab.basis = self.basis.copy()
        return tab

    def set_costs(self, costs: np.ndarray) -> None:
        """Install a cost vector, zero past its end, and price out the current basis."""
        self.T[-1, :] = 0.0
        self.T[-1, : costs.size] = costs
        for i, col in enumerate(self.basis):
            c = self.T[-1, col]
            if c != 0.0:
                self.T[-1, :] -= c * self.T[i, :]

    def _pivot(self, row: int, col: int, work: np.ndarray) -> None:
        """Make ``col`` basic in ``row``; ``work`` is scratch like ``T``."""
        T = self.T
        T[row] /= T[row, col]
        # outer(column, pivot row), the pivot row's own factor zeroed: a broadcast copy and
        # an in-place multiply give np.outer's floats faster than a broadcast multiply does
        work[:] = T[:, col, None]
        work[row] = 0.0
        work *= T[row]
        T -= work
        self.basis[row] = col
        self.iterations += 1

    def run(self, allowed: int) -> str:
        """Minimize until reduced costs are nonnegative; only the first ``allowed``
        columns may enter, which keeps artificials out in phase 2.  The column with
        the most negative reduced cost enters (Dantzig's rule) until a pivot is
        degenerate, its least ratio at most ``DEAD_TOL``, and the first one below
        ``-PIVOT_TOL`` (Bland's rule) for the rest of the run.  No pivot raises the
        objective ``-T[-1, -1]``, so one that lifts it above its value at the start
        by more than ``FEAS_TOL·max(1, |start|)`` shows that the tableau has lost
        precision, and raises."""
        T, basis = self.T, self.basis
        red, rhs, work = T[-1, :allowed], T[:-1, -1], np.empty_like(T)
        start = -float(T[-1, -1])
        floor = -(start + FEAS_TOL * max(1.0, abs(start)))
        degenerate = False
        while True:
            if T[-1, -1] < floor:
                raise SolverFailureError(f"objective rose to {-T[-1, -1]:.6g} at pivot {self.iterations}, "
                                         f"above its start {start:.6g}", tableau=T.copy(), basis=basis.tolist())
            if self.iterations > MAX_ITERATIONS:
                raise SolverFailureError("iteration limit exceeded", tableau=T.copy(), basis=basis.tolist())
            entering = int((red < -PIVOT_TOL).argmax() if degenerate else red.argmin())
            if not red[entering] < -PIVOT_TOL:
                return "optimal"
            col = T[:-1, entering]
            eligible = (col > PIVOT_TOL).nonzero()[0]
            if eligible.size == 0:
                if np.any(col > DEAD_TOL):
                    raise SolverFailureError(f"pivot candidates below tolerance in column {entering}",
                                             tableau=T.copy(), basis=basis.tolist())
                return "unbounded"
            ratios = rhs[eligible] / col[eligible]
            least = ratios.min()
            degenerate |= least <= DEAD_TOL
            ties = eligible[ratios <= least + DEAD_TOL]
            self._pivot(int(ties[basis[ties].argmin()]), entering, work)

    def enter(self, columns: np.ndarray) -> bool:
        """Pivot each of ``columns`` in turn into the row, among those an
        artificial still holds, where its entry is largest in size; a column
        whose largest entry there is below ``PIVOT_TOL`` in size is skipped.
        Whether every basic value is still nonnegative."""
        work = np.empty_like(self.T)
        for col in columns.tolist():
            rows = np.flatnonzero(self.basis >= self.art0)
            if rows.size == 0:
                break
            row = int(rows[np.abs(self.T[rows, col]).argmax()])
            if abs(self.T[row, col]) >= PIVOT_TOL:
                self._pivot(row, col, work)
        return not (self.T[:-1, -1] < 0.0).any()

    def repair(self, limit: int) -> tuple[bool, int | None]:
        """Dual simplex: while some basic value is below ``-DEAD_TOL``, the most
        negative one leaves and the dual ratio test picks the entering column,
        ties to the lowest index.  ``(True, None)`` once the basis is primal
        feasible; ``(False, r)`` when no column may enter at row ``r`` (the
        rows are infeasible, or only entries below ``PIVOT_TOL`` could pivot);
        ``(False, None)`` when ``limit`` pivots did not suffice."""
        T = self.T
        red, rhs, work = T[-1, :-1], T[:-1, -1], np.empty_like(T)
        while True:
            leaving = int(rhs.argmin())
            if rhs[leaving] >= -DEAD_TOL:
                return True, None
            if self.iterations >= limit:
                return False, None
            row = T[leaving, :-1]
            eligible = (row < -PIVOT_TOL).nonzero()[0]
            if eligible.size == 0:
                return False, leaving
            ratios = red[eligible] / -row[eligible]
            self._pivot(leaving, int(eligible[ratios <= ratios.min() + DEAD_TOL][0]), work)

    def phase1(self) -> float:
        """The least sum of the artificials, from its start ``Σ|rhs|``; ``run``
        raises at any pivot that lifts the sum above that start."""
        costs = np.zeros(self.art0 + self.m)
        costs[self.art0 :] = 1.0
        self.set_costs(costs)
        if self.run(allowed=self.art0 + self.m) != "optimal":
            raise SolverFailureError("phase 1 terminated without optimum", tableau=self.T.copy())
        return -float(self.T[-1, -1])

    def phase1_duals(self) -> np.ndarray:
        """Row multipliers certifying infeasibility (Farkas certificate)."""
        return 1.0 - self.T[-1, self.art0 : self.art0 + self.m]

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
                self._pivot(i, best, work)
                keep.append(i)
            # else: redundant row, dropped
        self.T = self.T[keep + [self.m]][:, list(range(self.art0)) + [-1]]
        self.basis = self.basis[keep]
        self.m = len(keep)
        self.rows = keep

    def solution_vector(self) -> np.ndarray:
        x = np.zeros(self.T.shape[1] - 1)
        x[self.basis] = self.T[:-1, -1]
        return np.where(x > 0.0, x, 0.0)


def _certified(constraints: ConstraintSet | FactoredExogeneity, x: np.ndarray, what: str) -> np.ndarray:
    """``x`` itself if it satisfies every original row to ``FEAS_TOL``;
    otherwise raise, naming the worst row.  Factored exogeneity rows are
    evaluated as they are held (:func:`compile.exogeneity_residuals`)."""
    resid = constraints.residuals(x)
    if not (resid <= FEAS_TOL).all():
        i = int(np.argmax(resid))
        raise SolverFailureError(f"{what} violates row {constraints.provenance[i]} by {resid[i]:.3g} "
                                 f"(tolerance {FEAS_TOL:g})")
    return x


@dataclass(frozen=True)
class _Bases:
    """Where a feasible solve ended: the rows ``drop_artificials`` kept, and
    each objective's final tableau over ``[A | slack | rhs]`` on those rows,
    its basis included."""

    rows: np.ndarray
    tableaux: tuple[_Tableau, ...]


def _two_phase(system: ConstraintSet | _Rows | _Couplings, objectives: Sequence[tuple[np.ndarray, str]],
               start: np.ndarray | None = None) -> tuple[LpSolution, list[LpSolution], _Bases | None]:
    """Phase 1 once, then phase 2 once per ``(objective, sense)``.

    Returns the phase-1 outcome, one solution per objective and the bases it
    ended on.  The phase-1 outcome is ``feasible`` with the phase-1 basic
    point, or ``infeasible`` with a certificate, in which case no objective
    is solved: the certificate carries the provenance tags of rows with
    nonzero multipliers in the phase-1 dual, and dropping or revising one of
    them is necessary to restore feasibility.  Each objective starts from
    its own copy of the feasible basis left after the artificials are driven
    out, so its pivots and witness do not depend on the other objectives.
    Vectors are over the system's columns and not yet certified (see
    :func:`_postsolve`); the bases are ``None`` when the system is
    infeasible, no objective is solved or one is unbounded.

    Given ``start``, columns of a basic feasible point such as a q-form's
    comonotone coupling, phase 1 pivots them in first
    (:meth:`_Tableau.enter`), and starts from the artificial basis if that
    leaves a basic value negative.
    """
    n = system.A.shape[1]
    tab = _Tableau(system)
    if start is not None and not tab.enter(start):
        tab = _Tableau(system)
    if tab.phase1() > INFEASIBLE_TOL:
        cert = tuple(tag for tag, dual in zip(system.provenance, tab.phase1_duals()) if abs(dual) > CERT_TOL)
        return LpSolution("infeasible", None, None, tab.iterations, cert), [], None
    feasible = LpSolution("feasible", 0.0, tab.solution_vector()[:n], tab.iterations)
    if not objectives:
        return feasible, [], None

    tab.drop_artificials()
    solutions, tableaux = [], []
    for objective, sense in objectives:
        branch = tab.copy()
        branch.set_costs((-1.0 if sense == "maximize" else 1.0) * objective)
        if branch.run(allowed=branch.art0) == "unbounded":
            solutions.append(LpSolution("unbounded", None, None, branch.iterations))
            continue
        witness = branch.solution_vector()[:n]
        solutions.append(LpSolution("optimal", float(objective @ witness), witness, branch.iterations))
        tableaux.append(branch)
    bases = _Bases(np.array(tab.rows, dtype=np.intp), tuple(tableaux)) if len(tableaux) == len(objectives) else None
    return feasible, solutions, bases


def _base_rows(constraints: ConstraintSet) -> np.ndarray:
    """The indices of the ``base-sum`` rows ``sum(p) = 1``: ``eq`` rows with
    ``rhs == 1`` whose coefficients are all 1."""
    A, kind, rhs = constraints.A, constraints.kind, constraints.rhs
    rows = np.flatnonzero((kind == "eq") & (rhs == 1.0))
    return rows[(A[rows] == 1.0).all(axis=1)]


def _presolve(constraints: ConstraintSet) -> _Rows:
    """The reduced system, with the masks of the rows and columns it keeps;
    :meth:`_Rows.whole` when no row forces a column to zero or the
    reduction is left to the full LP.

    With the ``base-sum`` row ``sum(p) = 1`` and ``p >= 0``, every row has
    ``a . p >= min(a)``, so an ``le`` row with ``rhs == min(a)`` forces each
    column where ``a > min(a)`` to zero.  The reduction drops those columns,
    the forcing rows (over the columns left each one is ``min(a)`` times
    the base row, so the base row implies it) and the rows left all-zero
    with a right-hand side they meet.  Only the ``le`` rows are read until
    one forces.  Nothing is reduced if some ``le`` row has ``rhs < min(a)``
    or a row is left all-zero with a right-hand side it misses: the system
    is infeasible then, and the full LP finds the certificate.
    """
    A, rhs, kind = constraints.A, constraints.rhs, constraints.kind
    le = kind == "le"
    low = A[le].min(axis=1, initial=np.inf)
    tight = rhs[le] == low
    if not tight.any() or (rhs[le] < low).any() or _base_rows(constraints).size == 0:
        return _Rows.whole(constraints)
    forcing = le.copy()
    forcing[le] = tight
    keep = ~(A[forcing] > low[tight, None]).any(axis=0)
    sub = A[:, keep]
    empty = ~forcing & ~sub.any(axis=1)
    if (empty & np.where(le, rhs < 0.0, rhs != 0.0)).any():
        return _Rows.whole(constraints)
    rows = ~(forcing | empty)
    provenance = tuple(tag for tag, kept in zip(constraints.provenance, rows) if kept)
    return _Rows(sub[rows], rhs[rows], kind[rows], provenance, rows, keep)


def _lift(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``x`` over the kept columns, scattered into a full vector with zeros elsewhere."""
    full = np.zeros(keep.size)
    full[keep] = x
    return full


def _scattered(keep: np.ndarray, phase1: LpSolution, solutions: list[LpSolution]) -> tuple[np.ndarray, list[LpSolution]]:
    """The presolve's lift (see :func:`_postsolve`): each vector scattered
    through ``keep``; a witness that is the phase-1 point stays that point."""
    point = _lift(phase1.witness, keep)
    return point, [
        LpSolution(sol.status, None, point if sol.witness is phase1.witness else _lift(sol.witness, keep),
                   sol.iterations) if sol.status == "optimal" else sol
        for sol in solutions
    ]


@cache
def _coupling_rows(d_y: int, arms: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """``A``, ``kind`` and ``provenance`` of the q-form's rows over the outcome
    vectors of ``arms``, in C order: the base row, then the 0/1 row of
    ``y_k = j`` for each arm ``k`` of ``arms`` and level ``j < d_y - 1``, the
    top level being implied as in :func:`compile.compile_experimental`.  The
    tags name the arms as the model does.  Read-only, since every q-form on
    these arms shares them."""
    Y = np.indices((d_y,) * len(arms)).reshape(len(arms), d_y ** len(arms))
    levels = np.arange(d_y - 1)
    A = np.vstack([np.ones(Y.shape[1]), (Y[:, None, :] == levels[None, :, None]).reshape(-1, Y.shape[1])])
    kind = np.full(A.shape[0], "eq")
    A.setflags(write=False)
    kind.setflags(write=False)
    return A, kind, ("base-sum",) + tuple(f"marginal({k},{j})" for k in arms for j in levels.tolist())


@cache
def _glue_order(dims: Dims, read: tuple[int, ...]) -> np.ndarray:
    """The outcome vectors in arm order, as indices into those flattened
    with the axes of the arms ``read`` first and the others after them."""
    rest = tuple(k for k in range(dims.d_x) if k not in read)
    order = np.arange(dims.d_y**dims.d_x).reshape((dims.d_y,) * dims.d_x).transpose(np.argsort(read + rest)).reshape(-1)
    order.setflags(write=False)
    return order


def _varies(cube: np.ndarray) -> bool:
    """Whether some entry of ``cube`` differs from the one at index 0 of its middle axis."""
    return bool((cube[:, 1:] != cube[:, :1]).any())


def _comonotone(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The comonotone coupling of the arm marginals ``m``: the outcome
    vectors it charges, as q-form columns, and their masses.

    The breakpoints of the arms' CDFs, their sorted union, cut ``(0, 1]``
    into segments; the segment that ends at ``u`` charges its length to
    the outcome vector with ``y_k`` the least level where ``F_k`` reaches
    ``u``.  There are at most ``d_x(d_y-1)`` breakpoints below 1, so at
    most ``1 + d_x(d_y-1)`` vectors, the q-form's row count; this is the
    north-west-corner rule of transportation problems (Dantzig 1963,
    ch. 14) over several marginals."""
    d_x, d_y = m.shape
    cdf = np.cumsum(m[:, :-1], axis=1)
    ends = np.unique(np.append(cdf, 1.0))
    ends = ends[(ends > 0.0) & (ends <= 1.0)]
    Y = (cdf[:, :, None] < ends).sum(axis=1)  # y_k at each end u: the breakpoints of F_k below u
    return d_y ** np.arange(d_x - 1, -1, -1) @ Y, ends - np.append(0.0, ends[:-1])


@dataclass(frozen=True)
class _Couplings:
    """The q-form (see :func:`_couple`): rows over couplings ``π`` of the
    marginals of the arms ``read``, the objectives over ``π``, and what
    lifts a solve of them.

    ``plan[i]`` holds, for each treatment arm, the index of the objective
    over ``π`` that the ``i``-th original objective became on that arm, or
    -1 where it is zero and the arm takes the phase-1 coupling; ``px`` is
    ``P(X=l)``; ``start`` holds the columns of the comonotone
    coupling of the read arms (:func:`_comonotone`), where phase 1 starts;
    ``other`` is the comonotone coupling ``κ`` of the other arms, over their
    outcome vectors in C order, and ``order`` takes ``π ⊗ κ``, flattened
    with the read arms' axes first, to the outcome vectors in arm order."""

    A: np.ndarray
    rhs: np.ndarray
    kind: np.ndarray
    provenance: tuple[str, ...]
    objectives: list[tuple[np.ndarray, str]]
    plan: tuple[np.ndarray, ...]
    px: np.ndarray
    start: np.ndarray
    read: tuple[int, ...]
    other: np.ndarray
    order: np.ndarray

    def glued(self, coupling: np.ndarray) -> np.ndarray:
        """``coupling``, over the read arms, glued to ``κ``: the coupling
        ``π ⊗ κ`` of every arm marginal (Rüschendorf 1991)."""
        return np.outer(coupling, self.other).reshape(-1)[self.order]

    def lift(self, phase1: LpSolution, solutions: list[LpSolution]) -> tuple[np.ndarray, list[LpSolution]]:
        """Each coupling glued to ``κ`` (:meth:`glued`), gathered onto the
        arms by ``plan`` and taken to the cells as ``p(y, l) = P(X=l)·q_l(y)``
        (see :func:`_postsolve`).  The phase-1 coupling, last in the stack
        and so at index -1, is the ``q`` of every arm of the phase-1 point.
        Raises ``SolverFailureError`` when a solve over ``π`` is not optimal:
        the q-form's polytope is bounded, so only lost precision ends it so."""
        if any(sol.status != "optimal" for sol in solutions):
            raise SolverFailureError("a phase 2 over the couplings ended without optimum")
        q = np.stack([self.glued(sol.witness) for sol in (*solutions, phase1)])
        lifted = [LpSolution("optimal", None, (q[arms].T * self.px).reshape(-1),
                             sum(solutions[i].iterations for i in set(arms.tolist()) - {-1}))
                  for arms in self.plan]
        return (q[np.full(self.px.size, -1)].T * self.px).reshape(-1), lifted


def _couple(
    constraints: ConstraintSet | FactoredExogeneity,
    objectives: Sequence[tuple[np.ndarray, str]],
    px: np.ndarray,
    m: np.ndarray,
) -> _Couplings:
    """The q-form of ``constraints``, an exogeneity system with no monotone
    row over tables whose ``P(X=l)`` is ``px``, every entry positive, and
    whose arm marginals ``P(Y=·|X=k)`` are the rows of ``m``.

    ``p(y, l) = P(X=l)·q_l(y)`` meets the original rows exactly when each
    ``q_l`` is a coupling of the arm marginals: it sums to one and has
    marginal ``m[k]`` on ``y_k``.  An objective ``c`` reads
    ``Σ_l P(X=l)·c_l·q_l`` with ``c_l = c(·, l)``.  The arms along which
    some ``c_l`` varies are the ones read, ``S``: ``{a, b}`` for an event
    or a moment on arms ``a`` and ``b``, ``{a, b, l}`` for a posterior
    effect given ``X=l``.  Each ``c_l`` is then a function of ``y_S`` alone,
    taken at level 0 along the other axes, and the rows are those of
    couplings ``π`` of ``m[S]``: every such ``π`` is the marginal of a
    coupling of all of ``m``, ``π ⊗ κ`` for any coupling ``κ`` of the other
    arms' marginals, here the comonotone one.  The arms whose ``c_l`` are
    equal form a group, and nothing ties the groups' ``q_l`` together, so
    each group with a nonzero ``c_l`` is one objective over ``π``, every
    ``q_l`` of the group being its witness, and the zero group may take
    any coupling, the phase-1 one: an event or a moment is one group, a
    posterior effect given ``X=l`` two, ``{l}`` and the zero group of the
    other arms.  An objective that reads every arm leaves ``κ`` the point
    mass on no arm, and the q-form over all ``d_y^d_x`` outcome vectors.
    """
    d_x, d_y = constraints.dims.d_x, constraints.dims.d_y
    shape = (d_y,) * d_x
    distinct = {id(objective): objective for objective, _ in objectives}  # one array for both senses
    read = tuple(k for k in range(d_x) if any(_varies(c.reshape(d_y**k, d_y, -1)) for c in distinct.values()))
    rest = tuple(k for k in range(d_x) if k not in read)
    at = tuple(slice(None) if k in read else 0 for k in range(d_x))
    A, kind, provenance = _coupling_rows(d_y, read)
    per_arm = {key: c.reshape(*shape, d_x)[at].reshape(-1, d_x).T for key, c in distinct.items()}
    # each arm's group: the first arm whose column equals its own
    first = {key: (c[:, None] == c[None]).all(axis=2).argmax(axis=1) for key, c in per_arm.items()}
    reduced, plan = [], []
    for objective, sense in objectives:
        c, group = per_arm[id(objective)], first[id(objective)]
        heads = np.flatnonzero((group == np.arange(d_x)) & c.any(axis=1))  # the first arm of each nonzero group
        index = np.full(d_x, -1)
        index[heads] = len(reduced) + np.arange(heads.size)
        plan.append(index[group])
        reduced += [(c[l], sense) for l in heads.tolist()]
    rhs = np.concatenate(([1.0], m[list(read), :-1].reshape(-1)))
    cells, masses = _comonotone(m[list(rest)])
    other = np.bincount(cells, masses, minlength=d_y ** len(rest))
    return _Couplings(A, rhs, kind, provenance, reduced, tuple(plan), px, _comonotone(m[list(read)])[0], read,
                      other, _glue_order(constraints.dims, read))


@dataclass(frozen=True)
class _Priced:
    """A basis priced afresh on the original columns ``[A | slack]``: the
    inverse of its columns ``B``, and the reduced costs ``c - [A | slack]ᵀy``
    of ``costs``, where ``Bᵀy = c_B``."""

    basis: tuple[int, ...]
    inverse: np.ndarray
    costs: np.ndarray
    reduced: np.ndarray
    optimal: bool  # every reduced cost is at least -PIVOT_TOL


def _priced(columns: np.ndarray, tab: _Tableau, costs: np.ndarray) -> _Priced:
    """``tab``'s basis priced for ``costs`` over the original ``columns``.  The
    pricing ``tab`` keeps is reused while its basis and costs are the ones
    asked for, and its inverse while its basis is; raises ``LinAlgError``
    when ``B`` is singular."""
    kept, basis = tab.priced, tuple(tab.basis.tolist())
    if kept is not None and kept.basis == basis:
        if np.array_equal(kept.costs, costs):
            return kept
        inverse = kept.inverse
    else:
        inverse = np.linalg.inv(columns[:, tab.basis])
    reduced = costs - columns.T @ (inverse.T @ costs[tab.basis])
    return _Priced(basis, inverse, costs, reduced, bool(reduced.min() >= -PIVOT_TOL))


def _farkas(constraints: ConstraintSet, system: _Rows, ray: np.ndarray) -> tuple[str, ...] | None:
    """The provenance tags of the rows a Farkas ray ``ray`` over ``system``'s
    rows proves infeasible, or ``None`` when it proves nothing.

    The ray is taken to the original rows as ``y``, zero on those the
    presolve dropped, and ``y < 0`` on an ``le`` row is set to 0.  On the
    simplex (``p >= 0`` with the ``base-sum`` row ``sum(p) = 1``) every
    column of ``yᵀA`` may be lifted by the same amount through that row's
    multiplier, so ``y`` is lifted until ``min(yᵀA) = 0``, then scaled by
    ``|y|_∞``.  It proves the rows infeasible when ``yᵀrhs <= -FEAS_TOL``:
    any ``p >= 0`` whose rows a cold phase 1 accepts, with residue ``r``,
    ``|r|_1 <= INFEASIBLE_TOL``, has ``yᵀrhs = yᵀAp + yᵀslack - yᵀr > -FEAS_TOL``.
    Without a ``base-sum`` row ``p`` is unbounded, and only a ray with
    ``yᵀA >= 0`` as it stands proves anything.  The tags are those of rows
    with ``|y| > CERT_TOL``.  ``yᵀA`` spans every original column, so a ray of
    a reduced system that leans on a dropped column proves nothing unless
    the lift covers it.
    """
    A, rhs, kind = constraints.A, constraints.rhs, constraints.kind
    y = np.zeros(len(constraints))
    y[system.rows] = ray
    le = kind == "le"
    y[le] = np.maximum(y[le], 0.0)
    low = (y @ A).min()
    if low < 0.0:
        base = _base_rows(constraints)
        if base.size == 0:
            return None
        y[base[0]] -= low
    scale = np.abs(y).max()
    if not (np.isfinite(scale) and scale > 0.0):
        return None
    y /= scale
    if not y @ rhs <= -FEAS_TOL:
        return None
    return tuple(tag for tag, v in zip(constraints.provenance, y) if abs(v) > CERT_TOL)


class _WarmStart:
    """The final tableaux of the last feasible solve through it, and the
    system they belong to.

    One replicate loop owns one: between its solves only ``rhs`` and the
    objectives move, and the original rows of each solve share ``A`` and
    ``kind``, the very objects, with the last (``bounds._STRUCTURES`` keeps
    one set per shape).  A solve of such rows that the presolve reduces by
    the same row and column masks starts from the stored tableaux
    (:meth:`resolve`); any other solve runs the cold two phases and, if
    feasible, replaces them.
    """

    def __init__(self) -> None:
        self.constraints: ConstraintSet | None = None
        self.system: _Rows | None = None
        self.bases: _Bases | None = None
        self.columns: np.ndarray | None = None  # [A | slack] on the kept rows, built on first use

    def store(self, constraints: ConstraintSet, system: _Rows, bases: _Bases) -> None:
        """Keep ``bases``, a solve of ``system``, the presolve of ``constraints``."""
        if not (self.fits(constraints, system, len(bases.tableaux)) and np.array_equal(bases.rows, self.bases.rows)):
            self.columns = None
        self.constraints, self.system, self.bases = constraints, system, bases

    def fits(self, constraints: ConstraintSet, system: _Rows, count: int) -> bool:
        return (
            self.bases is not None
            and len(self.bases.tableaux) == count
            and constraints.A is self.constraints.A
            and constraints.kind is self.constraints.kind
            and np.array_equal(system.rows, self.system.rows)
            and np.array_equal(system.keep, self.system.keep)
        )

    def resolve(
        self,
        constraints: ConstraintSet,
        system: _Rows,
        objectives: Sequence[tuple[np.ndarray, str]],
    ) -> tuple[LpSolution, list[LpSolution], _Bases | None] | None:
        """:func:`_two_phase`'s results on ``system``, the presolve of
        ``constraints``, each objective (over the system's columns) solved
        from its stored tableau, or ``None`` for the cold path.
        The witnesses are valued by :func:`_postsolve`, over the full vector.

        Only the right-hand side moves: the body ``B⁻¹[A | slack]`` is carried
        over, while the basic values and the reduced costs are solved afresh
        from the original basic columns (:func:`_priced`), so no drift of the
        carried body can pass a basis off as optimal.  A stored basis keeps
        its pricing, which is solved again only for new costs or after a
        pivot.  A dual simplex repair of the first objective that finds no
        entering column at row ``r`` makes the rows infeasible if the ray
        ``y = B⁻ᵀe_r``, solved afresh, passes :func:`_farkas` on
        ``constraints``, the original rows: the phase-1 outcome is then
        ``infeasible`` with its tags.  The cold path is taken when the key of
        :meth:`fits` differs from the stored one, a basis is singular or not dual feasible for
        the new objective, a blocked repair's ray proves nothing or comes
        after an earlier objective reached a feasible basis of the same rows,
        or the repair needs more than ``WARM_PIVOTS_PER_ROW`` pivots per row
        or ends on a basis whose fresh reduced costs are not all above
        ``-PIVOT_TOL``.  A feasible phase-1 outcome is the first witness,
        with no pivots.
        """
        if not self.fits(constraints, system, len(objectives)):
            return None
        rows, n = self.bases.rows, system.A.shape[1]
        if self.columns is None:
            self.columns = _standard_form(system)[rows, :-1]
        columns, rhs = self.columns, system.rhs[rows]
        solutions, tableaux = [], []
        try:
            for (objective, sense), stored in zip(objectives, self.bases.tableaux):
                costs = np.zeros(columns.shape[1])
                costs[:n] = (-1.0 if sense == "maximize" else 1.0) * objective
                tab, priced = stored, _priced(columns, stored, costs)
                if not priced.optimal:
                    return None
                x_B = priced.inverse @ rhs
                pivots = 0
                if x_B.min() < -DEAD_TOL:
                    tab = stored.copy()
                    tab.iterations = 0
                    tab.T[:-1, -1] = x_B
                    tab.T[-1, :-1] = priced.reduced
                    tab.T[-1, -1] = -(costs[tab.basis] @ x_B)
                    feasible, blocked = tab.repair(WARM_PIVOTS_PER_ROW * rows.size)
                    if blocked is not None:
                        if solutions:  # an earlier objective reached a feasible basis of these rows
                            return None
                        ray = np.zeros(system.rhs.size)
                        ray[rows] = np.linalg.solve(columns[:, tab.basis].T, np.eye(rows.size)[blocked])
                        certificate = _farkas(constraints, system, ray)
                        if certificate is None:
                            return None
                        return LpSolution("infeasible", None, None, tab.iterations, certificate), [], None
                    if not feasible:
                        return None
                    # the pivots moved the basis on the carried body: price the final one afresh
                    pivots, priced = tab.iterations, _priced(columns, tab, costs)
                    if not priced.optimal:
                        return None
                    x_B = priced.inverse @ rhs
                tab.priced = priced
                x = np.zeros(columns.shape[1])
                x[tab.basis] = x_B
                solutions.append(LpSolution("optimal", None, np.where(x > 0.0, x, 0.0)[:n], pivots))
                tableaux.append(tab)
        except np.linalg.LinAlgError:
            return None
        return LpSolution("feasible", 0.0, solutions[0].witness, 0), solutions, _Bases(rows, tuple(tableaux))


def _postsolve(
    constraints: ConstraintSet | FactoredExogeneity,
    objectives: Sequence[tuple[np.ndarray, str]],
    lift: Callable[[LpSolution, list[LpSolution]], tuple[np.ndarray, list[LpSolution]]],
    solved: tuple[LpSolution, list[LpSolution], _Bases | None],
) -> tuple[LpSolution, list[LpSolution]]:
    """``solved``, a solve of a reduced system, on the original rows.  For a
    feasible solve ``lift`` takes the phase-1 point and the solutions to
    full vectors, one solution per original objective, a witness that is
    the phase-1 point being that very vector; each value is then
    ``objective @ witness`` over the full vector, and each distinct vector
    is certified against ``constraints`` once."""
    phase1, solutions, _ = solved
    if phase1.status != "feasible":
        return phase1, solutions
    point, solutions = lift(phase1, solutions)
    _certified(constraints, point, "phase-1 point")
    lifted = []
    for (objective, sense), sol in zip(objectives, solutions):
        if sol.status == "optimal":
            if sol.witness is not point:
                _certified(constraints, sol.witness, f"{sense} witness")
            sol = LpSolution("optimal", float(objective @ sol.witness), sol.witness, sol.iterations)
        lifted.append(sol)
    return LpSolution("feasible", 0.0, point, phase1.iterations), lifted


def _solve(
    constraints: ConstraintSet | FactoredExogeneity,
    objectives: Sequence[tuple[np.ndarray, str]],
    warm: _WarmStart | None = None,
    marginals: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[LpSolution, list[LpSolution]]:
    """Phase 1 and one solution per ``(objective, sense)`` on the original
    rows, through the one path of reduce, solve, lift and certify.

    Given ``marginals``, ``P(X=l)`` and the arm marginals of an exogeneity
    system with no monotone row (see :func:`_couple`), the q-form is solved
    first; it stands if it is feasible and its lifted vectors pass
    :func:`_postsolve`, and it stores no bases.  Its rows may be
    :class:`FactoredExogeneity`, which certifies without the dense
    exogeneity block; that block is compiled only here, for the full LP.
    Otherwise the :class:`_Rows` that :func:`_presolve` leaves are solved
    from the bases in ``warm`` if they fit and their witnesses pass
    :func:`_postsolve`, and by :func:`_two_phase` otherwise; an infeasible
    reduced phase 1 is solved again on every row and column, so
    infeasibility certificates always name original rows.  The bases of a
    feasible cold solve replace those in ``warm`` once its vectors pass;
    without ``warm`` they are kept nowhere.
    """
    warm = _WarmStart() if warm is None else warm
    if marginals is not None:
        coupled = _couple(constraints, objectives, *marginals)
        try:
            solved = _two_phase(coupled, coupled.objectives, coupled.start)
            if solved[0].status == "feasible":
                return _postsolve(constraints, objectives, coupled.lift, solved)
        except SolverFailureError:
            pass  # lost precision, or a vector off an original row: the full LP decides
    if isinstance(constraints, FactoredExogeneity):
        constraints = constraints.full()
    system = _presolve(constraints)
    whole = system.A is constraints.A

    def certified(solved):
        result = _postsolve(constraints, objectives, partial(_scattered, system.keep), solved)
        if solved[2] is not None:
            warm.store(constraints, system, solved[2])
        return result

    reduced = objectives if whole else [(objective[system.keep], sense) for objective, sense in objectives]
    solved = warm.resolve(constraints, system, reduced)
    if solved is not None:
        try:
            return certified(solved)
        except SolverFailureError:
            pass  # a warm witness off its certificate: solve cold
    solved = _two_phase(system, reduced)
    if solved[0].status == "infeasible" and not whole:
        system = _Rows.whole(constraints)
        solved = _two_phase(system, objectives)
    return certified(solved)


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase simplex returning the optimum and a primal witness."""
    phase1, solutions = _solve(problem.constraints, [(problem.objective, problem.sense)])
    return solutions[0] if solutions else phase1


def check_feasible(constraints: ConstraintSet) -> LpSolution:
    """Phase-1 feasibility probe.

    On infeasibility the certificate names the conflicting provenance tags
    (see :func:`_two_phase`); on feasibility the witness is a basic feasible
    point and ``iterations`` counts the phase-1 pivots.
    """
    return _solve(constraints, [])[0]
