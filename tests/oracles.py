"""Independent cross-checks used by the test and acceptance suites.

Nothing here participates in producing bounds; these are slower or
closed-form alternatives that the solver's answers are verified against,
so they live with the tests rather than in the package.
"""

from __future__ import annotations

import itertools

import numpy as np

from pobounds.compile import ConstraintSet
from pobounds.errors import PoboundsError, ValidationError
from pobounds.simplex import check_feasible


class SizeError(PoboundsError, ValueError):
    """Problem too large for an exhaustive-enumeration routine."""


def tian_pearl_pns_bounds(p1: float, p0: float) -> tuple[float, float]:
    """Closed-form bounds on P(Y_0=0, Y_1=1) for binary treatment/outcome
    under exogeneity, from the success rates p1 = P(y|x_1), p0 = P(y|x_0)."""
    lower = max(0.0, p1 - p0)
    upper = min(p1, 1.0 - p0)
    return lower, upper


def constraint_residual(cs: ConstraintSet, x: np.ndarray) -> float:
    """Worst violation of the system by a candidate point, its sign
    constraints included (for witness checks)."""
    worst = float(max(0.0, -x.min())) if x.size else 0.0
    return max(worst, float(cs.residuals(x).max(initial=0.0)))


def random_feasible_points(
    cs: ConstraintSet,
    n: int,
    seed: int,
    steps_per_point: int = 8,
) -> list[np.ndarray]:
    """Hit-and-run walk inside the polytope, started at a phase-1 vertex.

    Directions are drawn in the null space of the equality rows, so every
    returned point satisfies the full system within 1e-8.
    """
    probe = check_feasible(cs)
    if probe.status != "feasible":
        raise ValidationError(f"system is infeasible: {list(probe.certificate)}")
    x = probe.witness.copy()

    n_params = cs.dims.param_count()
    eq = cs.kind == "eq"
    a_eq, b_eq, a_le, b_le = cs.A[eq], cs.rhs[eq], cs.A[~eq], cs.rhs[~eq]
    if a_eq.shape[0]:
        _, s, vh = np.linalg.svd(a_eq)
        rank = int(np.sum(s > s.max() * 1e-10)) if s.size else 0
        null = vh[rank:].T
    else:
        null = np.eye(n_params)

    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        for _ in range(steps_per_point):
            if null.shape[1] == 0:
                break
            d = null @ rng.standard_normal(null.shape[1])
            norm = np.linalg.norm(d)
            if norm < 1e-12:
                continue
            d /= norm
            t_lo, t_hi = -np.inf, np.inf
            # keep x + t d inside x >= 0
            pos = d > 1e-12
            neg = d < -1e-12
            if pos.any():
                t_lo = max(t_lo, np.max(-x[pos] / d[pos]))
            if neg.any():
                t_hi = min(t_hi, np.min(-x[neg] / d[neg]))
            if a_le.shape[0]:
                ad = a_le @ d
                gap = b_le - a_le @ x
                grow = ad > 1e-12
                shrink = ad < -1e-12
                if grow.any():
                    t_hi = min(t_hi, np.min(gap[grow] / ad[grow]))
                if shrink.any():
                    t_lo = max(t_lo, np.max(gap[shrink] / ad[shrink]))
            if not np.isfinite(t_lo) or not np.isfinite(t_hi) or t_hi < t_lo:
                continue
            x = x + rng.uniform(t_lo, t_hi) * d
        points.append(x.copy())
    return points


def _independent_equalities(a_eq: np.ndarray, b_eq: np.ndarray):
    """Keep a maximal independent subset of equality rows; detect inconsistency."""
    if a_eq.shape[0] == 0:
        return a_eq, b_eq, True
    aug = np.hstack([a_eq, b_eq[:, None]])
    if np.linalg.matrix_rank(aug, tol=1e-9) > np.linalg.matrix_rank(a_eq, tol=1e-9):
        return a_eq, b_eq, False
    kept: list[int] = []
    rank = 0
    for i in range(a_eq.shape[0]):
        trial = a_eq[kept + [i]]
        r = np.linalg.matrix_rank(trial, tol=1e-9)
        if r > rank:
            kept.append(i)
            rank = r
    return a_eq[kept], b_eq[kept], True


def vertex_enumerate_small(cs: ConstraintSet, max_bases: int = 2_000_000) -> list[np.ndarray]:
    """All basic feasible solutions of a small system, by basis enumeration.

    Returns the parameter part of each vertex (slack coordinates dropped).
    Only intended for instances with at most 12 parameters.
    """
    n = cs.dims.param_count()
    if n > 12:
        raise SizeError(f"{n} parameters is too large for exhaustive vertex enumeration")
    eq = cs.kind == "eq"
    a_eq, b_eq, a_le, b_le = cs.A[eq], cs.rhs[eq], cs.A[~eq], cs.rhs[~eq]
    a_eq, b_eq, consistent = _independent_equalities(a_eq, b_eq)
    if not consistent:
        return []

    m_eq, m_le = a_eq.shape[0], a_le.shape[0]
    m = m_eq + m_le
    n_tot = n + m_le
    A = np.zeros((m, n_tot))
    b = np.concatenate([b_eq, b_le]) if m else np.zeros(0)
    if m_eq:
        A[:m_eq, :n] = a_eq
    if m_le:
        A[m_eq:, :n] = a_le
        A[m_eq:, n:] = np.eye(m_le)
    if m == 0:
        return [np.zeros(n)]
    if m > n_tot:
        raise SizeError("more independent rows than variables; not a vertex-enumerable system")

    from math import comb

    if comb(n_tot, m) > max_bases:
        raise SizeError(f"{comb(n_tot, m)} candidate bases exceed the enumeration budget")

    seen = {}
    for cols in itertools.combinations(range(n_tot), m):
        B = A[:, cols]
        try:
            xb = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(xb)) or np.max(np.abs(xb), initial=0.0) > 1e8:
            continue
        if np.linalg.norm(B @ xb - b, ord=np.inf) > 1e-7:
            continue
        if np.min(xb, initial=0.0) < -1e-9:
            continue
        x = np.zeros(n_tot)
        x[list(cols)] = np.clip(xb, 0.0, None)
        key = tuple(np.round(x[:n], 9))
        seen.setdefault(key, x[:n])
    return list(seen.values())
