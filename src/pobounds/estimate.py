"""Finite-sample machinery: plug-in estimates, bootstrap, simulation loop.

All randomness flows from one explicit seed through ``numpy`` seed
sequences, so reruns are bit-identical and replicates can be regenerated
independently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import bounds as bounds_mod
from . import identify as identify_mod
from . import simplex
from .errors import (
    BootstrapFailureError,
    ConfigError,
    InsufficientDataError,
    MiteIncompatibleError,
    PoboundsError,
    UndefinedConditionalError,
    ValidationError,
)
from .model import (
    AssumptionSet,
    Dims,
    ExperimentalMarginals,
    ObservationalJoint,
    QuerySpec,
    SparseJointPO,
)


def _integral(values, what: str) -> np.ndarray:
    """``values`` as an integer array, without a copy when they already are
    one; a value that is not a whole number is refused, never truncated,
    with an error naming ``what`` and, for a table of records, the row."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iub":
        return np.asarray(arr, dtype=int)
    try:
        real = np.asarray(arr, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} holds values that are not numbers") from None
    bad = np.argwhere(~(np.isfinite(real) & (real == np.floor(real))))
    if bad.size:
        at = tuple(bad[0].tolist())
        where = f"{what} row {at[0]}" if real.ndim == 2 else what
        raise ValidationError(f"{where} holds {float(real[at])!r}, which is not an integer")
    return real.astype(int)


@dataclass(frozen=True)
class ExperimentalSample:
    """Raw per-arm outcome draws: ``arms[k]`` holds outcomes under do(X=k)."""

    dims: Dims
    arms: tuple[np.ndarray, ...]

    def __post_init__(self):
        arms = tuple(_integral(a, f"arm {k}") for k, a in enumerate(self.arms))
        object.__setattr__(self, "arms", arms)
        if len(arms) != self.dims.d_x:
            raise ValidationError(f"expected {self.dims.d_x} arms, got {len(arms)}")
        for k, a in enumerate(arms):
            if a.size and (a.min() < 0 or a.max() >= self.dims.d_y):
                raise ValidationError(f"arm {k} contains outcomes outside [0, {self.dims.d_y})")


@dataclass(frozen=True)
class ObservationalSample:
    """Raw factual records, one (x, y) pair per row."""

    dims: Dims
    records: np.ndarray

    def __post_init__(self):
        rec = _integral(np.reshape(self.records, (-1, 2)), "records")
        object.__setattr__(self, "records", rec)
        if rec.size:
            if rec[:, 0].min() < 0 or rec[:, 0].max() >= self.dims.d_x:
                raise ValidationError("treatment value out of range in records")
            if rec[:, 1].min() < 0 or rec[:, 1].max() >= self.dims.d_y:
                raise ValidationError("outcome value out of range in records")


def _experimental_table(dims: Dims, arms: tuple[np.ndarray, ...]) -> ExperimentalMarginals:
    """:func:`empirical_experimental` of arms already checked against ``dims``."""
    table = np.zeros((dims.d_x, dims.d_y))
    for k, arm in enumerate(arms):
        if arm.size == 0:
            raise InsufficientDataError(f"arm {k} has no observations")
        table[k] = np.bincount(arm, minlength=dims.d_y) / arm.size
    return ExperimentalMarginals(table)


def _cell_table(dims: Dims, cells: np.ndarray) -> ObservationalJoint:
    """:func:`empirical_observational` of records checked against ``dims``,
    given by their flat cells ``x * d_y + y``."""
    if cells.size == 0:
        raise InsufficientDataError("observational sample is empty")
    counts = np.bincount(cells, minlength=dims.d_x * dims.d_y)
    return ObservationalJoint(counts.reshape(dims.d_x, dims.d_y) / cells.size)


def empirical_experimental(sample: ExperimentalSample) -> ExperimentalMarginals:
    """Per-arm frequency tables."""
    return _experimental_table(sample.dims, sample.arms)


def empirical_observational(sample: ObservationalSample) -> ObservationalJoint:
    """Cell frequencies of the factual pair."""
    rec = sample.records
    return _cell_table(sample.dims, rec[:, 0] * sample.dims.d_y + rec[:, 1])


def _check_seed(seed) -> None:
    """Refuse a seed that is not a nonnegative integer, numpy's included."""
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")


def _check_count(value, what: str) -> None:
    """Refuse a count that is not an integer, numpy's included: a bool or a
    float is never truncated or taken for one."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice`` searches for probabilities ``p``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _sampler(truth: SparseJointPO, kind: str) -> Callable[[np.random.Generator, int], np.ndarray | tuple]:
    """``draw(rng, n)``: the arms (``experimental``) of :func:`sample_from_truth`,
    or the flat cells ``x * d_y + y`` of its records (``observational``).

    Each draw is ``rng.choice(k, size=n, p=p)`` on the truth's marginals,
    which are computed here once, as numpy computes it: the cumulative
    table of ``p`` searched at ``rng.random(n)``, so the stream and the
    draws are the same.  The table is built once instead of per call, and
    ``p`` is not checked again per call: the marginals of a valid joint are
    nonnegative and sum to 1 within ``MASS_SUM_TOL``, inside ``choice``'s
    tolerance.
    """
    if kind == "experimental":
        cdfs = [_cdf(row) for row in truth.po_marginals().table]
        return lambda rng, n: tuple(cdf.searchsorted(rng.random(n), side="right") for cdf in cdfs)
    if kind == "observational":
        flat = truth.xy_marginal().table.reshape(-1)
        cdf = _cdf(flat / flat.sum())
        return lambda rng, n: cdf.searchsorted(rng.random(n), side="right")
    raise ConfigError(f"unknown sample kind {kind!r}")


def sample_from_truth(
    truth: SparseJointPO,
    n: int,
    seed: int | np.random.SeedSequence,
    kind: str,
) -> ExperimentalSample | ObservationalSample:
    """Seeded i.i.d. draws from a ground-truth joint.

    ``experimental`` draws ``n`` outcomes per arm from that arm's marginal;
    ``observational`` draws ``n`` factual (x, y) pairs.  ``seed`` is a
    nonnegative integer or a ``SeedSequence``.
    """
    _check_count(n, "sample size")
    if n < 0:
        raise ConfigError(f"sample size must be nonnegative, got {n}")
    if not isinstance(seed, np.random.SeedSequence):
        _check_seed(seed)
    draws = _sampler(truth, kind)(np.random.default_rng(seed), n)
    if kind == "experimental":
        return ExperimentalSample(truth.dims, draws)
    return ObservationalSample(truth.dims, np.column_stack(np.divmod(draws, truth.dims.d_y)))


@dataclass(frozen=True)
class EndpointSummary:
    mean: float
    ci_low: float
    ci_high: float

    def width(self) -> float:
        return self.ci_high - self.ci_low

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "ci": [self.ci_low, self.ci_high]}


@dataclass(frozen=True)
class ReplicationResult:
    """Summary over replicates: one entry per endpoint, plus exclusions."""

    endpoints: Mapping[str, EndpointSummary]
    excluded: int
    used: int

    def to_json_dict(self) -> dict:
        return {
            "endpoints": {k: v.to_json_dict() for k, v in self.endpoints.items()},
            "excluded": self.excluded,
            "used": self.used,
        }


def _summarize(values_by_endpoint: dict[str, list[float]], excluded: int) -> ReplicationResult:
    used = len(next(iter(values_by_endpoint.values())))
    endpoints = {}
    for name, values in values_by_endpoint.items():
        arr = np.asarray(values)
        lo, hi = np.percentile(arr, [2.5, 97.5])
        endpoints[name] = EndpointSummary(float(arr.mean()), float(lo), float(hi))
    return ReplicationResult(endpoints, excluded, used)


def _one_estimate(
    dims: Dims,
    mode: str,
    query: QuerySpec,
    assumptions: AssumptionSet | None,
    exp: ExperimentalMarginals | None,
    obs: ObservationalJoint | None,
    slack: float | None,
    warm: simplex._WarmStart,
) -> dict[str, float] | None:
    """Endpoint values for one replicate, or None when it must be excluded
    (infeasible bound, a conditioning cell resampled to zero, identification
    incompatibility).  Bounds start from the tableaux in ``warm``."""
    if mode == "bound":
        try:
            res = bounds_mod._bound(dims, query, exp, obs, assumptions, slack, warm)
        except UndefinedConditionalError:
            return None
        if res.status != "ok":
            return None
        return {"lower": res.lower, "upper": res.upper}
    if mode == "identify":
        if (exp is None) == (obs is None):
            raise ConfigError("identification needs exactly one data source")
        try:
            if exp is not None:
                joint = identify_mod.identify_experimental(exp)
            else:
                joint = identify_mod.identify_observational(obs)
            value = identify_mod.evaluate(joint, query, obs=obs)
        except (MiteIncompatibleError, UndefinedConditionalError):
            return None
        return {"estimate": value}
    raise ConfigError(f"unknown mode {mode!r}")


def _replicate(
    count: int,
    seed: int,
    what: str,
    draw: Callable[[np.random.SeedSequence, simplex._WarmStart], dict[str, float] | None],
) -> ReplicationResult:
    """Run ``draw(child, warm)`` once per child of the seed's sequence and summarize.

    ``draw`` returns one replicate's endpoint values, or None when the
    replicate must be excluded; exclusions are counted.  ``warm`` carries
    the optimal tableaux of one replicate's bounds to the next, and lives
    only as long as this call; the rows are the structure every bound of
    their shape shares.
    """
    _check_seed(seed)
    collected: dict[str, list[float]] = {}
    excluded = 0
    warm = simplex._WarmStart()
    for child in np.random.SeedSequence(seed).spawn(count):
        values = draw(child, warm)
        if values is None:
            excluded += 1
            continue
        for k, v in values.items():
            collected.setdefault(k, []).append(v)
    if not collected:
        raise BootstrapFailureError(f"all {count} {what} replicates were excluded")
    return _summarize(collected, excluded)


def bootstrap(
    dims: Dims,
    query: QuerySpec,
    replicates: int,
    seed: int,
    mode: str = "bound",
    exp_sample: ExperimentalSample | None = None,
    obs_sample: ObservationalSample | None = None,
    assumptions: AssumptionSet | None = None,
    slack: float | None = None,
) -> ReplicationResult:
    """Nonparametric bootstrap over the raw samples.

    Experimental arms are resampled with replacement arm by arm, and
    observational records row-wise.  Each replicate produces bound endpoints
    or the identified value; replicates that are infeasible, or whose
    conditioning cell ``P(X=l, Y=m)`` resamples to zero, are excluded and
    counted.
    Reports the mean and the equal-tailed 95% percentile interval per
    endpoint.
    """
    _check_count(replicates, "replicates")
    if replicates < 1:
        raise ConfigError("need at least one bootstrap replicate")
    if exp_sample is None and obs_sample is None:
        raise ConfigError("bootstrap needs raw samples, not pre-aggregated tables")
    # checked against dims once: a resample holds only values of its sample
    arms = None if exp_sample is None else ExperimentalSample(dims, exp_sample.arms).arms
    if obs_sample is not None:
        rec = ObservationalSample(dims, obs_sample.records).records
        cells = rec[:, 0] * dims.d_y + rec[:, 1]  # resampling records resamples their cells

    def draw(child: np.random.SeedSequence, warm: simplex._WarmStart) -> dict[str, float] | None:
        rng = np.random.default_rng(child)
        exp = obs = None
        if arms is not None:
            exp = _experimental_table(dims, tuple(arm[rng.integers(0, arm.size, arm.size)] for arm in arms))
        if obs_sample is not None:
            obs = _cell_table(dims, cells[rng.integers(0, cells.size, cells.size)])
        return _one_estimate(dims, mode, query, assumptions, exp, obs, slack, warm)

    return _replicate(replicates, seed, "bootstrap", draw)


def simulation_study(
    truth: SparseJointPO,
    n: int,
    reps: int,
    seed: int,
    query: QuerySpec,
    mode: str = "bound",
    data_kind: str = "both",
    assumptions: AssumptionSet | None = None,
    slack: float | None = None,
) -> ReplicationResult:
    """The sample -> estimate -> bound/identify loop on synthetic data.

    Each replicate draws fresh experimental data (``n`` per arm) and/or
    observational data (``n`` records) from the truth, then computes the
    requested endpoints.  Replicates excluded as in :func:`bootstrap` are
    counted.
    """
    _check_count(reps, "reps")
    if reps < 1:
        raise ConfigError("need at least one replicate")
    _check_count(n, "n")
    if n < 1:
        raise ConfigError(f"need at least one draw per replicate, got n={n}")
    dims = truth.dims
    want_exp = data_kind in ("exp", "both")
    want_obs = data_kind in ("obs", "both")
    if not (want_exp or want_obs):
        raise ConfigError(f"unknown data kind {data_kind!r}")
    if mode == "identify" and data_kind == "both":
        raise ConfigError("identification needs exactly one data source; pick exp or obs")

    draw_exp = _sampler(truth, "experimental") if want_exp else None
    draw_obs = _sampler(truth, "observational") if want_obs else None

    def draw(child: np.random.SeedSequence, warm: simplex._WarmStart) -> dict[str, float] | None:
        grand = child.spawn(2)
        exp = obs = None
        if draw_exp is not None:
            exp = _experimental_table(dims, draw_exp(np.random.default_rng(grand[0]), n))
        if draw_obs is not None:
            obs = _cell_table(dims, draw_obs(np.random.default_rng(grand[1]), n))
        return _one_estimate(dims, mode, query, assumptions, exp, obs, slack, warm)

    return _replicate(reps, seed, "simulation", draw)
