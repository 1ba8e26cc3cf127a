"""Seeded input generators for the three workloads.

Every input is a pure function of ``(seed, op index)``: the same seed gives
the same instances, samples and CSV files, and op ``i`` does not depend on
how many ops ran before it. The program under test only ever sees the
generated tables, samples and files, never the seed.

Cell layout (documented in ``pobounds.model``): the parameter vector is the
C-order flattening of a tensor of shape ``(d_y,)*d_x + (d_x,)`` indexed by
``(y_0, ..., y_{d_x-1}, x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID_DIMS = ((3, 3), (4, 3), (3, 4), (4, 4), (5, 3))
QUERY_KINDS = ("event", "moment", "posterior_effect")
MIXES = ("exp+obs+exogeneity", "obs+exogeneity+prob_mtr", "exp+obs+mtr")
# Ops run in rounds of one instance per dims. The first round of every
# SKEW_EVERY rounds is the skewed round: five instances with a tiny P(X=l),
# the same in every cycle and independent of --seed, so the solver's
# breakdowns on them are a fixed share of every run rather than noise.
SKEW_EVERY = 10
GRID_CYCLE = SKEW_EVERY * len(GRID_DIMS)
POOL_SEED = 20260
SKEW_ALPHA = 0.3


def cell_grid(dx: int, dy: int) -> np.ndarray:
    """``np.indices`` over the cell tensor: ``g[k]`` is Y_k for k < d_x, ``g[d_x]`` is X."""
    return np.indices((dy,) * dx + (dx,))


def tables_from_truth(p: np.ndarray, dx: int, dy: int) -> tuple[np.ndarray, np.ndarray]:
    """Experimental marginals ``P(Y_k=j)`` and factual joint ``P(X=l, Y=m)`` of a cell tensor.

    Masses are added one cell at a time in flattened order, the order in
    which ``SparseJointPO`` sums them, so the tables carry the same rounding
    as tables a user derives from a joint with the package. The solver's
    breakdowns depend on that rounding.
    """
    g = cell_grid(dx, dy).reshape(dx + 1, -1)
    mass = p.reshape(-1)
    exp, obs = np.zeros((dx, dy)), np.zeros((dx, dy))
    np.add.at(exp, (np.tile(np.arange(dx), mass.size), g[:dx].T.reshape(-1)), np.repeat(mass, dx))
    x = g[dx]
    np.add.at(obs, (x, g[x, np.arange(mass.size)]), mass)
    return exp, obs


def nondecreasing_mask(dx: int, dy: int) -> np.ndarray:
    """Cells whose outcome vector satisfies Y_0 <= Y_1 <= ... (the ``mtr`` order)."""
    g = cell_grid(dx, dy)
    return np.all(np.diff(g[:dx], axis=0) >= 0, axis=0)


def unit_increment_mask(dx: int, dy: int) -> np.ndarray:
    """Cells whose outcome vector has 0 <= Y_s - Y_t <= 1 for every s > t."""
    g = cell_grid(dx, dy)
    ok = np.ones(g.shape[1:], dtype=bool)
    for s in range(dx):
        for t in range(s):
            d = g[s] - g[t]
            ok &= (d >= 0) & (d <= 1)
    return ok


@dataclass
class Query:
    kind: str
    arms: tuple[int, int]
    value: int = 0  # event: Y_a == value
    at_least: int = 0  # event: Y_b >= at_least
    order: int = 1  # moment order
    given: tuple[int, int] | None = None  # posterior effect: (X=l, Y=m)

    def to_json(self) -> dict:
        """The query in the CLI's JSON query format."""
        a, b = self.arms
        if self.kind == "event":
            return {"kind": "event", "po": {str(a): self.value, str(b): {"ge": self.at_least}}}
        if self.kind == "moment":
            return {"kind": "moment", "order": self.order, "arms": [a, b]}
        return {"kind": "posterior_effect", "arms": [a, b], "given": {"x": self.given[0], "y": self.given[1]}}


@dataclass
class Monotone:
    """``L <= P(Y_0 <= Y_1 <= ...) <= U``: ``prob_mtr(L,U)``, or ``mtr`` when both are 1."""

    lower: float
    upper: float

    def preset(self) -> str:
        if (self.lower, self.upper) == (1.0, 1.0):
            return "mtr"
        return f"prob_mtr({self.lower!r},{self.upper!r})"


@dataclass
class Instance:
    """One bound-grid op: data tables, assumptions and a query, plus the truth that produced them."""

    index: int
    dims: tuple[int, int]
    mix: str
    skewed: bool
    truth: np.ndarray  # cell tensor
    exp: np.ndarray | None
    obs: np.ndarray
    exogeneity: bool
    monotone: Monotone | None
    query: Query

    @property
    def label(self) -> str:
        return f"{self.dims[0]}x{self.dims[1]}"


def _treatment_marginal(rng: np.random.Generator, dx: int, skewed: bool) -> np.ndarray:
    if skewed:
        return rng.dirichlet(np.full(dx, SKEW_ALPHA))
    # bounded away from zero: every arm has P(X=l) >= 0.5/d_x
    return 0.5 * rng.dirichlet(np.ones(dx)) + 0.5 / dx


def _query(rng: np.random.Generator, kind: str, dx: int, dy: int, obs: np.ndarray) -> Query:
    a, b = (int(v) for v in rng.choice(dx, size=2, replace=False))
    if kind == "event":
        return Query(kind, (a, b), value=int(rng.integers(dy)), at_least=int(rng.integers(1, dy)))
    if kind == "moment":
        return Query(kind, (a, b), order=int(rng.integers(1, 3)))
    # condition on a factual cell that is not vanishingly rare
    cells = np.argwhere(obs >= 1e-3)
    l, m = cells[rng.integers(len(cells))]
    return Query(kind, (a, b), given=(int(l), int(m)))


def grid_instance(seed: int, i: int) -> Instance:
    """Bound-grid op ``i``: dims cycle every op, mix every round, query kind every three rounds."""
    rnd, d = divmod(i, len(GRID_DIMS))
    dx, dy = GRID_DIMS[d]
    if rnd % SKEW_EVERY == 0:
        pinned = pinned_instance(d, i)
        if pinned is not None:
            return pinned
        rng = np.random.default_rng([POOL_SEED, d])
        return _draw_instance(rng, i, dx, dy, MIXES[d % len(MIXES)], QUERY_KINDS[d % len(QUERY_KINDS)], True)
    mix = MIXES[rnd % len(MIXES)]
    kind = QUERY_KINDS[(rnd // len(MIXES)) % len(QUERY_KINDS)]
    return _draw_instance(np.random.default_rng([seed, i]), i, dx, dy, mix, kind, False)


def _draw_instance(rng, i, dx, dy, mix, kind, skewed) -> Instance:
    n_vec = dy**dx
    px = _treatment_marginal(rng, dx, skewed)
    if mix == "exp+obs+mtr":
        mono = nondecreasing_mask(dx, dy)[..., 0].reshape(-1)
        py = np.zeros(n_vec)
        py[mono] = rng.dirichlet(np.ones(int(mono.sum())))
        # not exogenous: the treatment distribution differs by outcome vector
        w = px if skewed else rng.dirichlet(np.ones(dx), size=n_vec)
        p = (py[:, None] * w).reshape((dy,) * dx + (dx,))
        exp, obs = tables_from_truth(p, dx, dy)
        return Instance(i, (dx, dy), mix, skewed, p, exp, obs, False, Monotone(1.0, 1.0),
                        _query(rng, kind, dx, dy, obs))
    py = rng.dirichlet(np.ones(n_vec))
    p = np.outer(py, px).reshape((dy,) * dx + (dx,))
    exp, obs = tables_from_truth(p, dx, dy)
    if mix == "exp+obs+exogeneity":
        return Instance(i, (dx, dy), mix, skewed, p, exp, obs, True, None, _query(rng, kind, dx, dy, obs))
    # obs+exogeneity+prob_mtr: a window of +-0.1 around the truth's own P(Y nondecreasing)
    m = float(p[nondecreasing_mask(dx, dy)].sum())
    lo, hi = round(max(0.0, m - 0.1), 6), round(min(1.0, m + 0.1), 6)
    return Instance(i, (dx, dy), mix, skewed, p, None, obs, True, Monotone(lo, hi),
                    _query(rng, kind, dx, dy, obs))


def pinned_instance(d: int, i: int) -> Instance | None:
    """The two documented breakdowns, pinned into the skewed round.

    * 4x4, exp+obs+exogeneity from ``default_rng(0)``: ``py ~ Dirichlet(1)``
      over 256 vectors, ``px ~ Dirichlet(1)`` gives ``P(X=0) ~ 1.4e-4``;
      phase 1 runs away and never terminates in time.
    * 3x3, same recipe from ``default_rng(5)`` with ``px ~ Dirichlet(0.3)``:
      the solver reports "infeasible" on a system the truth satisfies.
    """
    if GRID_DIMS[d] not in ((4, 4), (3, 3)):
        return None
    dx, dy = GRID_DIMS[d]
    rng = np.random.default_rng(0 if dx == 4 else 5)
    py = rng.dirichlet(np.ones(dy**dx))
    px = rng.dirichlet(np.ones(dx) if dx == 4 else np.full(dx, SKEW_ALPHA))
    p = np.outer(py, px).reshape((dy,) * dx + (dx,))
    exp, obs = tables_from_truth(p, dx, dy)
    q = Query("event", (0, 1), value=0, at_least=1)
    return Instance(i, (dx, dy), "exp+obs+exogeneity", True, p, exp, obs, True, None, q)


# --- replicates -----------------------------------------------------------

# (dims, mix, B): the 3x3 case runs four ops for every two of the 4x3 case,
# so neither the median nor the 90th percentile sits on the boundary
# between the two cost classes.
REPLICATE_CASES = (
    ((3, 3), "exp+obs+prob_mtr", 16),
    ((4, 3), "obs+exogeneity+prob_mtr", 4),
)
REPLICATE_CYCLE = (0, 0, 0, 0, 1, 1)
REPLICATE_N = 800


@dataclass
class ReplicateOp:
    index: int
    call: str  # "bootstrap" | "simulation_study"
    dims: tuple[int, int]
    mix: str
    replicates: int
    n: int
    truth: np.ndarray
    monotone: Monotone
    exogeneity: bool
    query: Query
    exp_arms: tuple[np.ndarray, ...] | None  # bootstrap input
    obs_records: np.ndarray | None  # bootstrap input
    op_seed: int

    @property
    def label(self) -> str:
        return f"{self.dims[0]}x{self.dims[1]}"


def _mtr_truth_near_boundary(rng, dx, dy) -> np.ndarray:
    """An MTR truth whose arms differ little: 80% of the mass sits on
    constant outcome vectors, so sampled marginals sometimes cross and some
    replicates violate ``prob_mtr(0.95, 1)``: about 2% at n = 800, at most a
    quarter of an op's replicates in a sweep of 96 ops."""
    g = cell_grid(dx, dy)
    mono = nondecreasing_mask(dx, dy)[..., 0].reshape(-1)
    flat = np.flatnonzero(np.all(g[:dx] == g[0], axis=0)[..., 0].reshape(-1))
    py = np.zeros(dy**dx)
    py[mono] = 0.2 * rng.dirichlet(np.ones(int(mono.sum())))
    py[flat] += 0.8 * rng.dirichlet(np.ones(flat.size))
    w = rng.dirichlet(np.full(dx, 4.0), size=dy**dx)
    return (py[:, None] * w).reshape((dy,) * dx + (dx,))


def replicate_op(seed: int, i: int) -> ReplicateOp:
    rng = np.random.default_rng([seed, 1, i])
    (dx, dy), mix, B = REPLICATE_CASES[REPLICATE_CYCLE[i % len(REPLICATE_CYCLE)]]
    call = ("bootstrap", "simulation_study")[i % 2]
    if mix == "exp+obs+prob_mtr":
        p = _mtr_truth_near_boundary(rng, dx, dy)
        mono, exo = Monotone(0.95, 1.0), False
    else:
        py = rng.dirichlet(np.ones(dy**dx))
        px = _treatment_marginal(rng, dx, False)
        p = np.outer(py, px).reshape((dy,) * dx + (dx,))
        m = float(p[nondecreasing_mask(dx, dy)].sum())
        mono, exo = Monotone(round(max(0.0, m - 0.05), 6), round(min(1.0, m + 0.05), 6)), True
    exp, obs = tables_from_truth(p, dx, dy)
    query = _query(rng, QUERY_KINDS[(i // len(REPLICATE_CYCLE)) % 2], dx, dy, obs)
    exp_arms = obs_records = None
    if call == "bootstrap":
        if mix == "exp+obs+prob_mtr":
            exp_arms = tuple(rng.choice(dy, size=REPLICATE_N, p=exp[k] / exp[k].sum()) for k in range(dx))
        flat = obs.reshape(-1)
        idx = rng.choice(flat.size, size=REPLICATE_N, p=flat / flat.sum())
        obs_records = np.column_stack(np.divmod(idx, dy))
    return ReplicateOp(i, call, (dx, dy), mix, B, REPLICATE_N, p, mono, exo, query, exp_arms, obs_records,
                       int(rng.integers(2**31)))


# --- cli-records ----------------------------------------------------------

CLI_DIMS = (3, 3)
CLI_IDENTIFY_ROWS_PER_ARM = 20_000  # ~60k-row experimental CSV
CLI_BOUND_ROWS = 20_000  # per file, experimental and observational
CLI_BOOTSTRAP = 20
# identify, bound, bound: two cost classes in a 1:2 ratio, so the median and
# the 90th percentile each fall inside one class.
CLI_CYCLE = ("identify", "bound", "bound")


@dataclass
class CliOp:
    index: int
    command: str  # "identify" | "bound"
    query: Query
    monotone: Monotone | None
    exp_records: np.ndarray  # (arm, y) rows in file order
    obs_records: np.ndarray | None  # (x, y) rows in file order
    op_seed: int


def _chain_truth(rng, dx, dy) -> np.ndarray:
    """A unit-increment truth: outcome vectors are constant or step up once,
    every chain carries at least 2% of the mass."""
    mask = unit_increment_mask(dx, dy)[..., 0].reshape(-1)
    py = np.zeros(dy**dx)
    k = int(mask.sum())
    py[mask] = 0.02 + (1 - 0.02 * k) * rng.dirichlet(np.ones(k))
    px = _treatment_marginal(rng, dx, False)
    return np.outer(py, px).reshape((dy,) * dx + (dx,))


def _records(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    return np.column_stack([first, second]).astype(np.int8)  # levels are < 5


def cli_op(seed: int, i: int) -> CliOp:
    rng = np.random.default_rng([seed, 2, i])
    dx, dy = CLI_DIMS
    command = CLI_CYCLE[i % len(CLI_CYCLE)]
    if command == "identify":
        p = _chain_truth(rng, dx, dy)
        exp, obs = tables_from_truth(p, dx, dy)
        arms = np.repeat(np.arange(dx), CLI_IDENTIFY_ROWS_PER_ARM)
        rng.shuffle(arms)
        ys = np.empty_like(arms)
        for k in range(dx):
            sel = arms == k
            ys[sel] = rng.choice(dy, size=int(sel.sum()), p=exp[k] / exp[k].sum())
        kind = ("event", "moment")[(i // len(CLI_CYCLE)) % 2]
        return CliOp(i, command, _query(rng, kind, dx, dy, obs), None, _records(arms, ys), None,
                     int(rng.integers(2**31)))
    # an MTR truth, so prob_mtr(0.5, 1) holds with a wide margin
    mono = nondecreasing_mask(dx, dy)[..., 0].reshape(-1)
    py = np.zeros(dy**dx)
    py[mono] = rng.dirichlet(np.ones(int(mono.sum())))
    w = rng.dirichlet(np.full(dx, 4.0), size=dy**dx)
    p = (py[:, None] * w).reshape((dy,) * dx + (dx,))
    exp, obs = tables_from_truth(p, dx, dy)
    arms = rng.integers(0, dx, CLI_BOUND_ROWS)
    ys = np.empty_like(arms)
    for k in range(dx):
        sel = arms == k
        ys[sel] = rng.choice(dy, size=int(sel.sum()), p=exp[k] / exp[k].sum())
    flat = obs.reshape(-1)
    idx = rng.choice(flat.size, size=CLI_BOUND_ROWS, p=flat / flat.sum())
    kind = QUERY_KINDS[(i // len(CLI_CYCLE)) % 3]
    return CliOp(i, command, _query(rng, kind, dx, dy, obs), Monotone(0.5, 1.0),
                 _records(arms, ys), _records(*np.divmod(idx, dy)), int(rng.integers(2**31)))
