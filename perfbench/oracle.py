"""An oracle that shares nothing with the package's compiler or solver.

Rows are built here from the documented cell layout with ``np.indices``;
``pobounds`` internals (``ConstraintSet`` and friends) are never read. Every
data row is kept, including the ones the package drops as implied, which
changes neither the feasible set nor the rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gen import Monotone, Query, cell_grid, nondecreasing_mask, unit_increment_mask

TRUTH_TOL = 1e-12  # the truth "satisfies the rows" at this residual
WITNESS_TOL = 1e-8  # witnesses must satisfy the rows to this residual
SHARP_TOL = 1e-6  # no HiGHS point may beat an endpoint by more than this


@dataclass
class Rows:
    """``A_eq p = b_eq``, ``A_ub p <= b_ub``, ``p >= 0``."""

    A_eq: np.ndarray
    b_eq: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray

    def residual(self, p: np.ndarray) -> float:
        worst = max(0.0, float(-p.min()))
        if self.b_eq.size:
            worst = max(worst, float(np.abs(self.A_eq @ p - self.b_eq).max()))
        if self.b_ub.size:
            worst = max(worst, float((self.A_ub @ p - self.b_ub).max()))
        return worst

    def rank(self) -> int:
        return int(np.linalg.matrix_rank(np.vstack([self.A_eq, self.A_ub])))


def build_rows(dims, exp=None, obs=None, exogeneity=False, monotone: Monotone | None = None) -> Rows:
    dx, dy = dims
    g = cell_grid(dx, dy)
    n = dy**dx * dx
    eq, rhs = [np.ones(n)], [1.0]
    if exp is not None:
        for k in range(dx):
            for j in range(dy):
                eq.append((g[k] == j).reshape(-1).astype(float))
                rhs.append(float(exp[k, j]))
    if obs is not None:
        for l in range(dx):
            for m in range(dy):
                eq.append(((g[dx] == l) & (g[l] == m)).reshape(-1).astype(float))
                rhs.append(float(obs[l, m]))
    if exogeneity:
        px = obs.sum(axis=1)
        for k in range(dx):
            for v in range(dy):
                for l in range(dx):
                    if px[l] > 0.0:
                        eq.append(((g[k] == v) * ((g[dx] == l) - px[l])).reshape(-1))
                        rhs.append(0.0)
    ub, ub_rhs = [], []
    if monotone is not None:
        mask = nondecreasing_mask(dx, dy).reshape(-1).astype(float)
        if monotone.upper < 1.0:
            ub.append(mask)
            ub_rhs.append(monotone.upper)
        if monotone.lower > 0.0:
            ub.append(-mask)
            ub_rhs.append(-monotone.lower)
    return Rows(np.array(eq), np.array(rhs), np.array(ub).reshape(-1, n), np.array(ub_rhs))


def objective(dims, query: Query, obs: np.ndarray | None) -> np.ndarray:
    """The query as a coefficient vector over cells, from its definition."""
    dx, dy = dims
    g = cell_grid(dx, dy)
    a, b = query.arms
    if query.kind == "event":
        c = ((g[a] == query.value) & (g[b] >= query.at_least)).astype(float)
    elif query.kind == "moment":
        c = (g[a] - g[b]).astype(float) ** query.order
    else:
        l, m = query.given
        c = np.where((g[dx] == l) & (g[l] == m), g[a] - g[b], 0).astype(float) / obs[l, m]
    return c.reshape(-1)


def _scale(c: np.ndarray, value: float) -> float:
    return max(1.0, float(np.abs(c).max()), abs(value))


def check_interval(rows: Rows, c: np.ndarray, status: str, lower=None, upper=None,
                   witnesses=None, truth: np.ndarray | None = None, highs=None) -> tuple[str | None, float]:
    """The reason an op's answer fails the oracle (``None`` if it passes), and
    the worst witness residual seen (0 when there are no witnesses).

    * ``status`` must be ``ok`` whenever the truth satisfies the rows to 1e-12
      (or, without a truth, whenever HiGHS finds a point passing them);
    * the truth's objective value lies in ``[lower, upper]``;
    * both witnesses satisfy the rows to 1e-8 and attain their endpoints;
    * no HiGHS point that passes the same rows beats an endpoint by 1e-6.
    """
    truth_ok = truth is not None and rows.residual(truth) <= TRUTH_TOL
    if status != "ok":
        feasible = truth_ok or (highs is not None and highs(rows, c)[0] is not None)
        return ("false_infeasible" if feasible else None), 0.0
    worst = 0.0
    if witnesses is not None:
        for w, end in zip(witnesses, (lower, upper)):
            worst = max(worst, rows.residual(w))
            if abs(float(c @ w) - end) > WITNESS_TOL * _scale(c, end):
                return "wrong_answer", worst
        if worst > WITNESS_TOL:
            return "wrong_answer", worst
    if lower > upper + WITNESS_TOL * _scale(c, upper):
        return "wrong_answer", worst
    if truth_ok:
        v = float(c @ truth)
        if not lower - SHARP_TOL * _scale(c, v) <= v <= upper + SHARP_TOL * _scale(c, v):
            return "wrong_answer", worst
    if highs is not None:
        lo, hi = highs(rows, c)
        if lo is not None and lo < lower - SHARP_TOL * _scale(c, lower):
            return "wrong_answer", worst
        if hi is not None and hi > upper + SHARP_TOL * _scale(c, upper):
            return "wrong_answer", worst
    return None, worst


def highs_solver():
    """``(rows, c) -> (min, max)`` through HiGHS, each ``None`` when HiGHS finds no
    point passing the rows to 1e-8; ``None`` when scipy is not importable."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None

    def extremes(rows: Rows, c: np.ndarray):
        out = []
        for sign in (1.0, -1.0):
            res = linprog(sign * c, A_ub=rows.A_ub if rows.b_ub.size else None,
                          b_ub=rows.b_ub if rows.b_ub.size else None,
                          A_eq=rows.A_eq, b_eq=rows.b_eq, bounds=(0, None), method="highs")
            ok = res.status == 0 and rows.residual(res.x) <= WITNESS_TOL
            out.append(float(c @ res.x) if ok else None)
        return out[0], out[1]

    return extremes


def feasibility_gap(rows: Rows) -> float | None:
    """Least total violation of the rows (an elastic phase 1 through HiGHS)."""
    from scipy.optimize import linprog

    m_eq, m_ub = rows.A_eq.shape[0], rows.A_ub.shape[0]
    n = rows.A_eq.shape[1]
    # p, then s+ and s- per equality row, then one slack per inequality row
    A_eq = np.hstack([rows.A_eq, np.eye(m_eq), -np.eye(m_eq), np.zeros((m_eq, m_ub))])
    A_ub = np.hstack([rows.A_ub, np.zeros((m_ub, 2 * m_eq)), -np.eye(m_ub)]) if m_ub else None
    cost = np.concatenate([np.zeros(n), np.ones(2 * m_eq + m_ub)])
    res = linprog(cost, A_ub=A_ub, b_ub=rows.b_ub if m_ub else None, A_eq=A_eq, b_eq=rows.b_eq,
                  bounds=(0, None), method="highs")
    return float(res.fun) if res.status == 0 else None


# --- replicate replay -----------------------------------------------------
#
# bootstrap() and simulation_study() document their seeding: one child of
# SeedSequence(seed) per replicate, arms resampled in order and then the
# observational records (bootstrap), or one grandchild per data source
# (simulation). Replaying that scheme gives each replicate's tables without
# calling the package.


def bootstrap_tables(dims, seed, B, exp_arms, obs_records):
    dx, dy = dims
    for child in np.random.SeedSequence(seed).spawn(B):
        rng = np.random.default_rng(child)
        exp = obs = None
        if exp_arms is not None:
            exp = np.array([np.bincount(a[rng.integers(0, a.size, a.size)], minlength=dy) / a.size
                            for a in exp_arms])
        if obs_records is not None:
            rec = obs_records[rng.integers(0, len(obs_records), len(obs_records))]
            obs = np.zeros((dx, dy))
            np.add.at(obs, (rec[:, 0], rec[:, 1]), 1.0)
            obs /= len(rec)
        yield exp, obs


def simulation_tables(dims, seed, reps, n, po_marg, xy, want_exp, want_obs):
    dx, dy = dims
    flat = xy.reshape(-1)
    for child in np.random.SeedSequence(seed).spawn(reps):
        grand = child.spawn(2)
        exp = obs = None
        if want_exp:
            rng = np.random.default_rng(grand[0])
            exp = np.array([np.bincount(rng.choice(dy, size=n, p=po_marg[k]), minlength=dy) / n
                            for k in range(dx)])
        if want_obs:
            rng = np.random.default_rng(grand[1])
            idx = rng.choice(flat.size, size=n, p=flat / flat.sum())
            obs = np.bincount(idx, minlength=flat.size).reshape(dx, dy) / n
        yield exp, obs


def check_replication(result: dict, solved: list | None, names: tuple[str, ...], ambiguous=lambda: 0) -> str | None:
    """Compare a replication report with the oracle's own replicates.

    ``solved`` holds one tuple of endpoint values per replicate, ``None`` for
    a replicate the oracle finds infeasible; without it (no scipy) only the
    bookkeeping is checked. When the oracle and the report
    disagree on how many replicates were used, ``ambiguous()`` must cover the
    difference: it counts replicates that may fall on either side of the
    package's tolerance.
    """
    if result["used"] < 1:
        return "wrong_answer"
    for s in result["endpoints"].values():
        if not (np.isfinite(s["mean"]) and s["ci"][0] <= s["ci"][1] + 1e-12):
            return "wrong_answer"
    if solved is None:
        return None
    if result["used"] + result["excluded"] != len(solved):
        return "wrong_answer"
    used = [v for v in solved if v is not None]
    if len(used) != result["used"]:
        return None if abs(len(used) - result["used"]) <= ambiguous() else "wrong_answer"
    for name, values in zip(names, zip(*used)):
        s = result["endpoints"][name]
        arr = np.asarray(values)
        want = [arr.mean(), *np.percentile(arr, [2.5, 97.5])]
        got = [s["mean"], *s["ci"]]
        if any(abs(a - b) > SHARP_TOL * max(1.0, abs(a)) for a, b in zip(want, got)):
            return "wrong_answer"
    return None


def bound_replicates(tables, dims, query: Query, monotone, exogeneity, highs):
    """HiGHS endpoints per replicate, and a counter of replicates whose elastic
    feasibility gap lies between 1e-12 and 1e-7."""
    all_rows, solved = [], []
    for exp, obs in tables:
        rows = build_rows(dims, exp, obs, exogeneity, monotone)
        all_rows.append(rows)
        lo, hi = highs(rows, objective(dims, query, obs))
        solved.append(None if lo is None or hi is None else (lo, hi))

    def ambiguous():
        gaps = [feasibility_gap(rows) for rows in all_rows]
        return sum(1 for gap in gaps if gap is None or TRUTH_TOL < gap < 1e-7)

    return solved, ambiguous


def identified_value(dims, exp: np.ndarray, query: Query) -> float | None:
    """The query under unit-increment monotonicity from per-arm marginals: the
    experimental rows restricted to unit-increment outcome vectors have a
    unique solution. ``None`` when a vector needs mass below -1e-8."""
    dx, dy = dims
    g = cell_grid(dx, dy)[..., 0]
    support = np.flatnonzero(unit_increment_mask(dx, dy)[..., 0].reshape(-1))
    A = np.array([[1.0] * support.size] + [(g[k] == j).reshape(-1)[support] for k in range(dx) for j in range(dy)])
    b = np.concatenate([[1.0], exp.reshape(-1)])
    mass, *_ = np.linalg.lstsq(A, b, rcond=None)
    if mass.min() < -1e-8:
        return None
    c = objective(dims, query, None).reshape((dy,) * dx + (dx,))[..., 0].reshape(-1)
    return float(c[support] @ mass)
