"""Independent cross-checks used by the test and acceptance suites.

Nothing here participates in producing bounds; these are slower or
closed-form alternatives that the solver's answers are verified against,
so they live with the tests rather than in the package.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from pobounds.compile import ConstraintSet
from pobounds.errors import MiteIncompatibleError, PoboundsError, UndefinedConditionalError, ValidationError
from pobounds.model import (
    AssumptionSet,
    Dims,
    ExperimentalMarginals,
    MonotoneTerm,
    ObservationalJoint,
    QuerySpec,
    require_valid,
)
from pobounds.queries import collapse_to_objective, condition_probability
from pobounds.simplex import _Rows, check_feasible


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


# Scalar index arithmetic: the per-cell counterpart of ``model.cell_grid``.


def outcome_vectors(dims: Dims):
    """All potential-outcome vectors in lexicographic order."""
    return itertools.product(range(dims.d_y), repeat=dims.d_x)


def cells(dims: Dims):
    """All (y_vec, x) cells in flattened order."""
    for y_vec in outcome_vectors(dims):
        for x in range(dims.d_x):
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


def admits(term: MonotoneTerm, y_vec: tuple[int, ...]) -> bool:
    """Whether an outcome vector satisfies every pairwise window of ``term``."""
    for s in range(len(y_vec)):
        for t in range(s):
            diff = y_vec[s] - y_vec[t]
            if not (term.d_lower[s, t] <= diff <= term.d_upper[s, t]):
                return False
    return True


# Identification as per-chain dict loops: the reference for ``pobounds.identify``.

NEG_TOL = 1e-8


def flat_chain(y0: int, d_x: int) -> tuple[int, ...]:
    return (y0,) * d_x


def step_chain(y0: int, k: int, d_x: int) -> tuple[int, ...]:
    """The chain at ``y0`` up to arm ``k`` and at ``y0 + 1`` after it."""
    return (y0,) * (k + 1) + (y0 + 1,) * (d_x - 1 - k)


def reference_chain_masses(arm_table: np.ndarray) -> dict[tuple[int, ...], float]:
    d_x, d_y = arm_table.shape
    cum = np.cumsum(arm_table, axis=1)
    masses: dict[tuple[int, ...], float] = {}
    for y0 in range(d_y):
        below = float(cum[0, y0 - 1]) if y0 > 0 else 0.0
        masses[flat_chain(y0, d_x)] = float(cum[d_x - 1, y0]) - below
    for k in range(d_x - 1):
        for y0 in range(d_y - 1):
            masses[step_chain(y0, k, d_x)] = float(cum[k, y0] - cum[k + 1, y0])
    return masses


def reference_negatives(masses: dict) -> list[tuple[str, float]]:
    return [(f"chain{chain}", mass) for chain, mass in sorted(masses.items()) if mass < -NEG_TOL]


def _clamp_and_normalize(entries: dict) -> dict:
    cleaned = {k: max(v, 0.0) for k, v in entries.items() if v > 0.0}
    total = sum(cleaned.values())
    if abs(total - 1.0) > 1e-12:
        cleaned = {k: v / total for k, v in cleaned.items()}
    return cleaned


def reference_identify_experimental(exp: ExperimentalMarginals) -> dict[tuple[int, ...], float]:
    """Outcomes-only entries ``{y_vec: mass}`` identified from per-arm marginals."""
    require_valid(exp, exp.dims)
    masses = reference_chain_masses(exp.table)
    if reference_negatives(masses):
        raise MiteIncompatibleError(reference_negatives(masses))
    return _clamp_and_normalize(masses)


def reference_identify_observational(obs: ObservationalJoint) -> dict[tuple, float]:
    """Full entries ``{(y_vec, x, y): mass}`` identified from the factual table."""
    require_valid(obs, obs.dims)
    px = obs.x_marginal()
    if np.any(px <= 0.0):
        raise UndefinedConditionalError("P(X=l) = 0")
    masses = reference_chain_masses(obs.table / px[:, None])
    if reference_negatives(masses):
        raise MiteIncompatibleError(reference_negatives(masses))
    entries: dict[tuple, float] = {}
    for chain, base in masses.items():
        for x in range(obs.dims.d_x):
            entries[(chain, x, chain[x])] = base * float(px[x])
    return _clamp_and_normalize(entries)


def reference_evaluate(dims: Dims, space: str, entries: dict, query: QuerySpec, obs=None) -> float:
    """``query`` on a joint given as entries, summed cell by cell in entry order."""
    divisor = 1.0
    if query.condition is not None:
        if obs is None and space == "po":
            raise ValidationError("conditional query on an outcomes-only joint needs the observational table")
        if obs is None:
            table = np.zeros((dims.d_x, dims.d_y))
            for (_, x, y), mass in entries.items():
                table[x, y] += mass
            obs = ObservationalJoint(table)
        divisor = condition_probability(query, obs)
    total = 0.0
    if space == "full":
        for (y_vec, x, y), mass in entries.items():
            total += mass * float(query.coeffs[y_vec + (x, y)])
        return total / divisor
    per_x = collapse_to_objective(query, dims).reshape(dims.full_shape()[:-1])
    for y_vec, mass in entries.items():
        row = per_x[y_vec]
        if row.max() - row.min() > 1e-12:
            raise ValidationError("query depends on treatment assignment; evaluate it on a full-space joint")
        total += mass * float(row[0])
    return total / divisor


def reference_rows(dims, exp=None, obs=None, assumptions=AssumptionSet(), slack=None):
    """The per-cell loops the broadcast compile replaced, kept as its reference.

    Returns dense ``(A, rhs, kind, provenance)`` in the order
    :func:`pobounds.assemble_constraints` emits rows.
    """
    def flat(y_vec, x):
        return flatten_index(CellIndex(y_vec, x), dims)

    rows = [({i: 1.0 for i in range(dims.param_count())}, 1.0, "eq", "base-sum")]
    if exp is not None:
        for k in range(dims.d_x):
            for j in range(dims.d_y - 1):
                coeffs = {flat(y_vec, x): 1.0 for y_vec, x in cells(dims) if y_vec[k] == j}
                rows.append((coeffs, float(exp.table[k, j]), "eq", f"experimental({k},{j})"))
    if obs is not None:
        for l in range(dims.d_x):
            for m in range(dims.d_y):
                if (l, m) == (dims.d_x - 1, dims.d_y - 1):
                    continue
                coeffs = {flat(y_vec, x): 1.0 for y_vec, x in cells(dims) if x == l and y_vec[l] == m}
                rows.append((coeffs, float(obs.table[l, m]), "eq", f"observational({l},{m})"))
    if assumptions.exogeneity:
        px = obs.x_marginal()
        for k in range(dims.d_x):
            for v in range(dims.d_y):
                for l in range(dims.d_x):
                    if px[l] <= 0.0:
                        continue
                    coeffs = {}
                    for y_vec, x in cells(dims):
                        c = (1.0 if x == l else 0.0) - float(px[l])
                        if y_vec[k] == v and c != 0.0:
                            coeffs[flat(y_vec, x)] = c
                    rows.append((coeffs, 0.0, "eq", f"exogeneity({k},{v},{l})"))
    for w, term in enumerate(assumptions.terms):
        admitted = [flat(y_vec, x) for y_vec, x in cells(dims) if admits(term, y_vec)]
        if term.prob_upper < 1.0 and admitted:
            rows.append(({i: 1.0 for i in admitted}, float(term.prob_upper), "le", f"monotone({w},upper)"))
        if term.prob_lower > 0.0:
            rows.append(({i: -1.0 for i in admitted}, -float(term.prob_lower), "le", f"monotone({w},lower)"))
    if slack is not None:
        relaxed = []
        for coeffs, rhs, kind, tag in rows:
            if kind == "eq" and tag.startswith(("experimental(", "observational(")):
                relaxed.append((coeffs, rhs + slack, "le", tag))
                relaxed.append(({i: -c for i, c in coeffs.items()}, -(rhs - slack), "le", tag))
            else:
                relaxed.append((coeffs, rhs, kind, tag))
        rows = relaxed
    A = np.zeros((len(rows), dims.param_count()))
    for r, (coeffs, _, _, _) in enumerate(rows):
        for i, c in coeffs.items():
            A[r, i] = c
    return A, np.array([r[1] for r in rows]), [r[2] for r in rows], [r[3] for r in rows]


def reference_validate_distribution(dist, dims: Dims) -> list[str]:
    """The entry-by-entry loop :func:`pobounds.validate_distribution` replaced,
    kept as its reference: the same messages in the same order."""
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
            if abs(s - 1.0) > 1e-9:
                report.append(f"arm {k} sums to {s:.12g}, expected 1")
    else:
        s = float(table.sum())
        if abs(s - 1.0) > 1e-9:
            report.append(f"table sums to {s:.12g}, expected 1")
    return report


def _frequencies(values: np.ndarray, size: int) -> np.ndarray:
    counts = np.zeros(size)
    np.add.at(counts, values, 1.0)
    return counts / values.size


def reference_draws(truth, n: int, rng: np.random.Generator, kind: str):
    """What ``sample_from_truth`` documents it draws, by ``Generator.choice``:
    ``n`` outcomes per arm from that arm's marginal, in arm order, or ``n``
    factual ``(x, y)`` records from the normalised observed joint."""
    dims = truth.dims
    if kind == "experimental":
        marg = truth.po_marginals().table
        return tuple(rng.choice(dims.d_y, size=n, p=marg[k]) for k in range(dims.d_x))
    flat = truth.xy_marginal().table.reshape(-1)
    return np.column_stack(np.divmod(rng.choice(flat.size, size=n, p=flat / flat.sum()), dims.d_y))


def bootstrap_tables(dims: Dims, seed: int, replicates: int, arms, records):
    """The ``(exp, obs)`` tables of each bootstrap replicate, replayed from the
    documented seeding: one child of ``SeedSequence(seed)`` per replicate,
    whose generator resamples the arms in order and then the records."""
    for child in np.random.SeedSequence(seed).spawn(replicates):
        rng = np.random.default_rng(child)
        exp = obs = None
        if arms is not None:
            exp = np.array([_frequencies(arm[rng.integers(0, arm.size, arm.size)], dims.d_y) for arm in arms])
        if records is not None:
            rec = records[rng.integers(0, len(records), len(records))]
            obs = _frequencies(rec[:, 0] * dims.d_y + rec[:, 1], dims.d_x * dims.d_y).reshape(dims.d_x, dims.d_y)
        yield exp, obs


def simulation_tables(truth, n: int, reps: int, seed: int, want_exp: bool, want_obs: bool):
    """The ``(exp, obs)`` tables of each simulation replicate, replayed from the
    documented seeding: one child of ``SeedSequence(seed)`` per replicate,
    whose two spawned children seed the experimental and the observational
    draws of :func:`reference_draws`."""
    dims = truth.dims
    for child in np.random.SeedSequence(seed).spawn(reps):
        grand = child.spawn(2)
        exp = obs = None
        if want_exp:
            arms = reference_draws(truth, n, np.random.default_rng(grand[0]), "experimental")
            exp = np.array([_frequencies(arm, dims.d_y) for arm in arms])
        if want_obs:
            rec = reference_draws(truth, n, np.random.default_rng(grand[1]), "observational")
            obs = _frequencies(rec[:, 0] * dims.d_y + rec[:, 1], dims.d_x * dims.d_y).reshape(dims.d_x, dims.d_y)
        yield exp, obs


def reference_presolve(constraints: ConstraintSet):
    """The presolve as it was written first: every row's base-row test and
    smallest coefficient read up front, then the exits in the order the
    reduction meets them.  Returns what ``simplex._presolve`` does: every
    row and column over the system's own arrays when nothing reduces, else
    the reduced rows with the masks of the rows and columns they keep."""
    A, rhs, kind = constraints.A, constraints.rhs, constraints.kind
    ones, le, low = (kind == "eq") & (A == 1.0).all(axis=1), kind == "le", A.min(axis=1)
    full = _Rows(A, rhs, kind, constraints.provenance, np.ones(len(constraints), dtype=bool),
                 np.ones(A.shape[1], dtype=bool))
    if not (ones & (rhs == 1.0)).any():
        return full
    forcing = le & (rhs == low)
    if not forcing.any() or (le & (rhs < low)).any():
        return full
    keep = ~(A[forcing] > low[forcing, None]).any(axis=0)
    sub = A[:, keep]
    empty = ~forcing & ~sub.any(axis=1)
    if (empty & np.where(le, rhs < 0.0, rhs != 0.0)).any():
        return full
    rows = ~(forcing | empty)
    provenance = tuple(tag for tag, kept in zip(constraints.provenance, rows) if kept)
    return _Rows(sub[rows], rhs[rows], kind[rows], provenance, rows, keep)


def rare_arm_tables(d_x, d_y, seed, alpha, px=None):
    """``py ~ Dirichlet(1)`` over the outcome vectors and, independent of it,
    ``px ~ Dirichlet(alpha)`` unless ``px`` is given, from
    ``default_rng(seed)``; the truth's tables, added one cell at a time in
    flattened order as SparseJointPO does (and as ``tools/stress.py`` draws
    them), and the truth's value of the event ``P(Y_0=0, Y_1>=1)``."""
    rng = np.random.default_rng(seed)
    py = rng.dirichlet(np.ones(d_y**d_x))
    px = rng.dirichlet(np.full(d_x, alpha)) if px is None else np.asarray(px, dtype=float)
    mass = np.outer(py, px).reshape(-1)
    cell = np.indices((d_y,) * d_x + (d_x,)).reshape(d_x + 1, -1)
    exp, obs = np.zeros((d_x, d_y)), np.zeros((d_x, d_y))
    np.add.at(exp, (np.tile(np.arange(d_x), mass.size), cell[:d_x].T.reshape(-1)), np.repeat(mass, d_x))
    np.add.at(obs, (cell[d_x], cell[cell[d_x], np.arange(mass.size)]), mass)
    Y = np.indices((d_y,) * d_x).reshape(d_x, -1)
    return exp, obs, float(py[(Y[0] == 0) & (Y[1] >= 1)].sum())


@cache
def tool(name):
    """The module of ``tools/<name>.py``, loaded once and registered under
    ``name``, since a dataclass looks its module up by name."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parent.parent / "tools" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
