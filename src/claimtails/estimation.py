"""Parameter estimation: Anderson-Darling distance, its rank-weighted
variants with subrange support, derivative-free fitting, the Hill and
normalized-spacings tail estimators, and the three-step composite pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core_dist import (
    KERNELS,
    DistributionSpec,
    Family,
    OrderedSample,
    cdf,
    check_params,
    shifted_weibull,
    spec_from_dict,
    survival,
)
from .parallel import fork_map
from .tail_model import (
    AdjustedModel,
    LowerAdjustment,
    UpperAdjustment,
    _check_p_upper,
    _head_cdf,
    _lower_gpd_params,
    _tail_cdf,
    adjusted_cdf,
    lower_gpd_adjuster,
)


class LogDomainError(ValueError):
    """Model CDF hit 0 or 1 at an observation; carries the offending rank."""

    def __init__(self, rank: int):
        super().__init__(f"model CDF is degenerate at rank {rank}")
        self.rank = rank


class FitFailedError(RuntimeError):
    """All optimizer restarts failed."""


class Weighting(str, Enum):
    UNWEIGHTED = "unweighted"
    NORMALIZED = "normalized"
    SQRT_PREFERENCE = "sqrt"


@dataclass(frozen=True)
class MadConfig:
    weighting: Weighting = Weighting.NORMALIZED
    rank_range: Optional[tuple] = None  # inclusive (i_lo, i_hi), 1-based
    bounds: Optional[dict] = None  # natural-space bounds per free parameter
    xtol: float = 1e-8
    max_evals: int = 5000
    restarts: int = 5

    def resolve_ranks(self, n: int) -> tuple:
        if self.rank_range is None:
            return 1, n
        i_lo, i_hi = self.rank_range
        if not (1 <= i_lo <= i_hi <= n):
            raise ValueError(f"rank range {self.rank_range} invalid for n={n}")
        return int(i_lo), int(i_hi)


@dataclass(frozen=True)
class FitResult:
    theta: dict
    objective_value: float
    converged: bool
    evaluations: int
    config: MadConfig

    def as_dict(self) -> dict:
        return {
            "theta": dict(self.theta),
            "objective_value": self.objective_value,
            "converged": self.converged,
            "evaluations": self.evaluations,
            "weighting": self.config.weighting.value,
            "rank_range": list(self.config.rank_range) if self.config.rank_range else None,
        }


def _cdf_values(values: np.ndarray, model, first_rank: int = 1) -> np.ndarray:
    """Model CDF at `values`, the order statistics of ranks first_rank, ...;
    raises LogDomainError with the rank of the first value where it is 0 or 1."""
    if isinstance(model, DistributionSpec):
        f = np.asarray(cdf(model, values))
    elif isinstance(model, AdjustedModel):
        f = np.asarray(adjusted_cdf(model, values))
    else:
        f = np.asarray(model(values))
    bad = np.nonzero((f <= 0.0) | (f >= 1.0))[0]
    if bad.size:
        raise LogDomainError(int(bad[0]) + first_rank)
    return f


def ad_statistic(sample: OrderedSample, model) -> float:
    """Anderson-Darling statistic with the standard 1/n normalization."""
    f = _cdf_values(sample.values, model)
    n = sample.n
    i = np.arange(1, n + 1)
    s = np.sum((2 * i - 1) * np.log(f) + (2 * (n - i) + 1) * np.log1p(-f))
    return float(-n - s / n)


def mad_weights(weighting: Weighting, ranks: np.ndarray, n: int) -> np.ndarray:
    """Rank weights for the modified objective; None-like for unweighted."""
    p = ranks / (n + 1)
    denom = ranks * np.log(p) + (n - ranks + 1) * np.log1p(-p)
    if weighting == Weighting.NORMALIZED:
        return 1.0 / denom
    if weighting == Weighting.SQRT_PREFERENCE:
        return np.sqrt(ranks) / denom
    raise ValueError("unweighted mode has no rank weights")


@lru_cache(maxsize=1)
def _rank_terms(n: int, i_lo: int, i_hi: int, weighting: Weighting) -> tuple:
    """Read-only rank factors (a, b, w) of the summands a*log F + b*log(1-F)
    over ranks i_lo..i_hi of n; w is None in unweighted mode.

    A fit evaluates one key many times in a row, so one entry suffices.
    """
    ranks = np.arange(i_lo, i_hi + 1, dtype=float)
    if weighting == Weighting.UNWEIGHTED:
        terms = (ranks - 0.5, n - ranks + 0.5, None)
    else:
        terms = (ranks, n - ranks + 1, mad_weights(weighting, ranks, n))
    for arr in terms:
        if arr is not None:
            arr.flags.writeable = False
    return terms


def mad_objective(sample: OrderedSample, model, config: MadConfig) -> float:
    """Fit objective over the configured rank range.

    Unweighted mode is the Bernoulli mixed likelihood (to be maximized);
    the weighted modes normalize each summand at the order-statistic
    expectation F(x_i) = i/(n+1) and are minimized, with value = rank count
    at a perfect EDF match.  The model is evaluated on the in-range order
    statistics only, so a callable model receives exactly those.
    """
    n = sample.n
    i_lo, i_hi = config.resolve_ranks(n)
    f = _cdf_values(sample.values[i_lo - 1 : i_hi], model, i_lo)
    a, b, w = _rank_terms(n, i_lo, i_hi, config.weighting)
    s = a * np.log(f) + b * np.log1p(-f)
    if w is None:
        return float(s.sum() / n)
    return float((w * s).sum())


def _objective_direction(weighting: Weighting) -> float:
    # internal optimizer always minimizes; unweighted likelihood flips sign
    return -1.0 if weighting == Weighting.UNWEIGHTED else 1.0


# ---------------------------------------------------------------------------
# derivative-free fitting

_LOG_PARAMS = {"alpha", "sigma", "beta", "sigma1", "sigma2", "sigma3"}


def _transform(name: str):
    if name in _LOG_PARAMS:
        return np.log, np.exp
    if name == "p_upper":
        def logit(p):
            p = min(max(p, 1e-9), 1 - 1e-9)
            return np.log(p / (1 - p))

        def expit(t):
            return 1.0 / (1.0 + np.exp(-t))

        return logit, expit
    return (lambda v: v), (lambda v: v)


_PENALTY = 1e12


class _BudgetSpent(Exception):
    """The optimizer's evaluation budget is spent."""


def _clip(v: float, lo: float, hi: float) -> float:
    # np.clip's rule: NaN passes through, and a value equal to a bound gives the bound
    v = v if (v > lo or v != v) else lo
    return v if (v < hi or v != v) else hi


def _sort_vertices(sim: list, fsim: list) -> tuple:
    # numpy's argsort, not sorted(): its order of tied values is the one to reproduce
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(
    fn: Callable, x0: list, lb: list, ub: list, xatol: float, fatol: float, maxfev: int
) -> tuple:
    """Minimize `fn` over the box [lb, ub] from `x0`; returns (fun, x, nfev).

    This is the adaptive Nelder-Mead of Gao & Han (2012) with clipped
    vertices, as `scipy.optimize.minimize(method="Nelder-Mead", bounds=...,
    options={"xatol", "fatol", "maxfev", "adaptive": True})` runs it, step
    for step on Python floats, so all three outputs equal scipy's bit for bit.
    `fn` gets each vertex as a list of floats.  Infinite bounds clip nothing.
    """
    n = len(x0)
    dim = float(n)
    rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    box = list(zip(lb, ub))

    def clip(x: list) -> list:
        return [_clip(v, lo, hi) for v, (lo, hi) in zip(x, box)]

    nfev = 0

    def f(x: list) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float(fn(x))

    # initial simplex: each coordinate in turn 5 % larger (0.00025 where it is
    # 0); a vertex above its upper bound is reflected into the box, then clipped
    x0 = clip(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    sim = [clip([2 * hi - v if v > hi else v for v, (_, hi) in zip(y, box)]) for y in sim]
    fsim = [np.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = _sort_vertices(sim, fsim)
    sim, fsim = _sort_vertices(sim, fsim)

    while nfev < maxfev:
        try:
            best, worst = sim[0], sim[-1]
            if all(abs(v - b) <= xatol for y in sim[1:] for v, b in zip(y, best)) and all(
                abs(fsim[0] - fy) <= fatol for fy in fsim[1:]
            ):
                break
            xbar = [0.0] * n
            for y in sim[:-1]:
                xbar = [c + v for c, v in zip(xbar, y)]
            xbar = [c / n for c in xbar]
            xr = clip([(1 + rho) * c - rho * w for c, w in zip(xbar, worst)])
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = clip([(1 + rho * chi) * c - rho * chi * w for c, w in zip(xbar, worst)])
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = clip([(1 + psi * rho) * c - psi * rho * w for c, w in zip(xbar, worst)])
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = clip([(1 - psi) * c + psi * w for c, w in zip(xbar, worst)])
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = clip([b + sigma * (v - b) for v, b in zip(sim[j], best)])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = _sort_vertices(sim, fsim)
    return np.min(fsim), sim[0], nfev


def _minimize_restarts(
    fn: Callable, x0: np.ndarray, lb: list, ub: list, config: MadConfig, workers: int = 1
) -> tuple:
    """Nelder-Mead with deterministic perturbed restarts in transformed space,
    shared by up to `workers` processes (see `fork_map`).

    Returns (best_x, best_f, converged, total_evals).
    """
    rng = np.random.default_rng(20240817)
    offsets = [np.zeros_like(x0)] + [
        0.35 * rng.standard_normal(x0.size) for _ in range(config.restarts - 1)
    ]

    def restart(j: int) -> tuple:
        start = np.clip(x0 + offsets[j], lb, ub).tolist()
        return _nelder_mead(fn, start, lb, ub, config.xtol, config.xtol, config.max_evals)

    runs = fork_map(restart, len(offsets), workers)
    evals = sum(nfev for _, _, nfev in runs)
    results = [(f, x) for f, x, _ in runs if np.isfinite(f) and f < _PENALTY / 2]
    if not results:
        raise FitFailedError("every optimizer restart ended in the penalty region")
    results.sort(key=lambda t: t[0])
    best_f, best_x = results[0]
    converged = False
    if len(results) >= 2:
        f2, x2 = results[1]
        close_f = abs(best_f - f2) <= 1e-6 * max(1.0, abs(best_f))
        close_x = np.max(np.abs(np.subtract(best_x, x2))) < 1e-3
        converged = bool(close_f or close_x)
    return best_x, best_f, converged, evals


def _kernel_survival(family: Family, params: tuple) -> Callable:
    """Survival function of `family` at the parameter tuple `params`, after
    the domain check that a `DistributionSpec` would run."""
    check_params(family, params)
    survival_ = KERNELS[family].survival
    return lambda x: survival_(x, *params)


def _fit_generic(
    sample: OrderedSample,
    cdf_of: Callable,
    free_names: Sequence[str],
    x0_natural: dict,
    config: MadConfig,
    workers: int = 1,
) -> FitResult:
    """Minimum-AD fit of `free_names`.  `cdf_of(*params)` takes their natural
    values, in that order, and returns the candidate's CDF callable, or
    raises ValueError where the candidate is outside the model's domain."""
    fwd = [_transform(nm)[0] for nm in free_names]
    inv = [_transform(nm)[1] for nm in free_names]

    def natural(x: list) -> list:
        return [float(g(v)) for g, v in zip(inv, x)]

    direction = _objective_direction(config.weighting)

    def objective(x: list) -> float:
        try:
            return direction * mad_objective(sample, cdf_of(*natural(x)), config)
        except (ValueError, ArithmeticError, OverflowError):
            return _PENALTY

    x0 = np.array([g(x0_natural[nm]) for g, nm in zip(fwd, free_names)])
    bounds = config.bounds or {}
    lb, ub = [], []
    for g, nm in zip(fwd, free_names):
        lo, hi = (g(b) for b in bounds[nm]) if nm in bounds else (-np.inf, np.inf)
        lb.append(float(lo))
        ub.append(float(hi))
    best_x, best_f, converged, evals = _minimize_restarts(objective, x0, lb, ub, config, workers)
    theta = dict(zip(free_names, natural(best_x)))
    return FitResult(theta, direction * best_f, converged, evals, config)


def fit_mad(
    sample: OrderedSample,
    family: Family,
    fixed: Optional[dict] = None,
    config: MadConfig = MadConfig(),
    workers: int = 1,
) -> FitResult:
    """Fit a single family by minimum-AD distance over the configured
    rank range; parameters in `fixed` are held constant.

    Up to `workers` processes share the optimizer restarts; the result does
    not depend on how many.  Fixed parameters outside the family's domain
    raise `ParameterError`, and a left endpoint at or above the smallest
    fitted observation raises `ValueError`, before any restart runs.
    """
    kernel = KERNELS[family]
    fixed = {**kernel.fixed, **(fixed or {})}
    free = [nm for nm in kernel.names if nm not in fixed]
    if not free:
        raise ValueError("no free parameters to fit")
    i_lo, i_hi = config.resolve_ranks(sample.n)
    if (i_hi - i_lo + 1) < len(free) + 1:
        raise ValueError("rank range too small for the number of free parameters")

    if kernel.start is None:
        raise ValueError(f"no MAD fitting support for family {family}")
    start = kernel.start(sample.values, fixed)
    x0 = {nm: start[nm] for nm in free}
    left = spec_from_dict(family, {**fixed, **x0}).left_endpoint
    x_min = float(sample.values[i_lo - 1])
    if x_min <= left:
        raise ValueError(
            f"{family.value} left endpoint {left:g} is not below the smallest fitted "
            f"observation {x_min:g} (rank {i_lo})"
        )

    def cdf_of(*theta: float) -> Callable:
        merged = {**fixed, **dict(zip(free, theta))}
        survival_ = _kernel_survival(family, tuple(float(merged[nm]) for nm in kernel.names))
        return lambda x: 1.0 - survival_(x)

    return _fit_generic(sample, cdf_of, free, x0, config, workers)


def fit_gpd_ml(sample: OrderedSample, loc: float = 0.0) -> dict:
    """Maximum-likelihood GPD fit of excesses over `loc` (scipy)."""
    from scipy.stats import genpareto

    excess = sample.values - loc
    if np.any(excess <= 0):
        raise ValueError("all observations must exceed the location")
    c, _, scale = genpareto.fit(excess, floc=0.0)
    return {"gamma": float(c), "sigma": float(scale)}


# ---------------------------------------------------------------------------
# tail estimators

def hill_estimate(sample: OrderedSample, k: int) -> dict:
    """Hill estimate of the extreme value index from the top k order
    statistics, with threshold x_{n-k}."""
    n = sample.n
    if not (1 <= k <= n - 1):
        raise ValueError(f"k={k} out of range [1, {n - 1}]")
    threshold = float(sample.values[n - k - 1])
    if threshold <= 0:
        raise ValueError("threshold order statistic must be positive")
    top = sample.values[n - k :]
    gamma = float(np.mean(np.log(top / threshold)))
    return {"gamma_hat": gamma, "se": gamma / np.sqrt(k), "k": k, "threshold": threshold}


def spacings_estimate(sample: OrderedSample, value_range: tuple) -> dict:
    """Extreme value index from normalized spacings of the log-transformed
    ordered sample, restricted to observations inside `value_range`."""
    a, b = value_range
    v = sample.values
    n = sample.n
    in_range = (v >= a) & (v <= b)
    if int(np.sum(in_range)) < 3:
        raise ValueError("need at least 3 observations inside the value range")
    y = np.log(v)
    # spacings between consecutive order statistics that both fall in range
    idx = np.arange(2, n + 1)  # global rank of the upper member
    usable = in_range[1:] & in_range[:-1]
    d = (n - idx[usable] + 1) * (y[1:][usable] - y[:-1][usable])
    if d.size < 2 or np.all(d == 0):
        raise ValueError("degenerate spacings (ties) in the selected range")
    gamma = float(np.mean(d))
    return {"gamma_hat": gamma, "se": gamma / np.sqrt(d.size), "count": int(d.size)}


# ---------------------------------------------------------------------------
# three-step pipeline

@dataclass(frozen=True)
class PipelinePlan:
    """Three-step fit plan; leaving x_upper or x_lower unset skips that step."""
    base_family: Family
    base_fixed: dict = field(default_factory=dict)
    x_lower: Optional[float] = None
    x_upper: Optional[float] = None
    base_config: MadConfig = MadConfig()
    upper_config: MadConfig = MadConfig(bounds={"beta": (0.5, 100.0)})
    lower_config: MadConfig = MadConfig(bounds={"gamma_adj_l": (-5.0, -0.01)})


@dataclass(frozen=True)
class PipelineResult:
    model: AdjustedModel
    base_fit: FitResult
    upper_fit: Optional[FitResult]
    lower_fit: Optional[FitResult]
    warnings: tuple = ()

    @property
    def theta(self) -> dict:
        """The base's free parameters, then p_upper (as clamped in the model),
        beta_adj_u, sigma_adj_u and gamma_adj_l, for the steps that ran."""
        theta = dict(self.base_fit.theta)
        if self.upper_fit is not None:
            theta["p_upper"] = self.model.upper.p_upper
            theta["beta_adj_u"] = self.upper_fit.theta["beta"]
            theta["sigma_adj_u"] = self.upper_fit.theta["sigma"]
        if self.lower_fit is not None:
            theta["gamma_adj_l"] = self.lower_fit.theta["gamma_adj_l"]
        return theta


def fit_pipeline(
    sample: OrderedSample, plan: PipelinePlan, workers: int = 1
) -> PipelineResult:
    """Three-step composite fit: base on the middle range, upper adjuster and
    transition probability on the tail, lower adjuster on the head.

    Up to `workers` processes share each step's optimizer restarts; the
    result does not depend on how many.
    """
    if plan.x_lower is not None and plan.x_upper is not None and plan.x_lower >= plan.x_upper:
        raise ValueError(f"x_lower ({plan.x_lower}) must be below x_upper ({plan.x_upper})")
    v = sample.values
    warnings = []
    x_lo = plan.x_lower if plan.x_lower is not None else -np.inf
    x_up = plan.x_upper if plan.x_upper is not None else np.inf

    # step 1: base over global ranks whose values fall in [x_lower, x_upper]
    in_mid = (v >= x_lo) & (v <= x_up)
    mid_ranks = np.nonzero(in_mid)[0] + 1
    if mid_ranks.size == 0:
        raise ValueError("no observations in the base fitting range")
    cfg1 = plan.base_config
    rlo, rhi = int(mid_ranks[0]), int(mid_ranks[-1])
    if cfg1.rank_range is not None:
        lo, hi = max(rlo, cfg1.rank_range[0]), min(rhi, cfg1.rank_range[1])
        if lo > hi:
            raise ValueError(
                f"rank range {tuple(cfg1.rank_range)} contains none of the ranks "
                f"{rlo}..{rhi} between the thresholds"
            )
        rlo, rhi = lo, hi
    cfg1 = replace(cfg1, rank_range=(rlo, rhi))
    base_fixed = {**KERNELS[plan.base_family].fixed, **plan.base_fixed}
    base_fit = fit_mad(sample, plan.base_family, base_fixed, cfg1, workers)
    base = spec_from_dict(plan.base_family, {**base_fixed, **base_fit.theta})

    # step 2: upper adjuster + transition probability on the tail subsample
    upper = None
    upper_fit = None
    if plan.x_upper is not None:
        tail_values = v[v > plan.x_upper]
        if tail_values.size < 4:
            warnings.append("upper step skipped: too few tail observations")
        else:
            tail = OrderedSample.from_values(tail_values, label="upper tail")

            def upper_model(theta):
                adjuster = shifted_weibull(plan.x_upper, theta["sigma"], theta["beta"])
                return AdjustedModel(
                    base, UpperAdjustment(adjuster, theta["p_upper"], plan.x_upper)
                )

            x0 = {
                "p_upper": 0.5,
                "beta": 2.0,
                "sigma": max(float(np.median(tail_values - plan.x_upper)), 1e-12),
            }
            # a base the upper mixture cannot take fails here, not in every restart
            upper_model(x0)
            # the base is fixed here: S_b on the fitted tail ranks and at
            # x_upper, once per step
            i_lo, i_hi = plan.upper_config.resolve_ranks(tail.n)
            s_tail = survival(base, tail.values[i_lo - 1 : i_hi])
            s_at = survival(base, plan.x_upper)

            def tail_cdf_of(p: float, beta: float, sigma: float) -> Callable:
                _check_p_upper(p)
                s_adj = _kernel_survival(
                    Family.SHIFTED_WEIBULL, (float(plan.x_upper), sigma, beta)
                )
                return lambda x: _tail_cdf(p, s_adj(x), s_tail, s_at)

            upper_fit = _fit_generic(
                tail, tail_cdf_of, ["p_upper", "beta", "sigma"], x0, plan.upper_config, workers
            )
            p_hat = upper_fit.theta["p_upper"]
            # boundary estimates are reported as exact 0/1
            if p_hat < 1e-3:
                p_hat = 0.0
            elif p_hat > 1.0 - 1e-3:
                p_hat = 1.0
            upper = upper_model({**upper_fit.theta, "p_upper": p_hat}).upper

    # step 3: lower adjuster (endpoint-pinned GPD) on the head subsample
    lower = None
    lower_fit = None
    if plan.x_lower is not None:
        head_values = v[v < plan.x_lower]
        if head_values.size < 3:
            warnings.append("lower step skipped: too few head observations")
        else:
            head = OrderedSample.from_values(head_values, label="lower head")
            i_lo, i_hi = plan.lower_config.resolve_ranks(head.n)
            # F_b is 0 at and below the base's left endpoint, so every candidate's
            # head CDF is 0 there
            x_min = float(head.values[i_lo - 1])
            if x_min <= base.left_endpoint:
                raise ValueError(
                    f"the smallest fitted head observation {x_min:g} (rank {i_lo}) is not "
                    f"above the base's left endpoint {base.left_endpoint:g}"
                )
            f_head = cdf(base, head.values[i_lo - 1 : i_hi])
            f_at = cdf(base, plan.x_lower)

            def head_cdf_of(gamma_adj: float) -> Callable:
                s_adj = _kernel_survival(Family.GPD, _lower_gpd_params(gamma_adj, plan.x_lower))
                return lambda x: _head_cdf(1.0 - s_adj(x), f_head, f_at)

            lower_fit = _fit_generic(
                head, head_cdf_of, ["gamma_adj_l"], {"gamma_adj_l": -0.5}, plan.lower_config,
                workers,
            )
            adjuster = lower_gpd_adjuster(lower_fit.theta["gamma_adj_l"], plan.x_lower)
            lower = LowerAdjustment(adjuster, plan.x_lower)

    model = AdjustedModel(base, upper, lower)
    return PipelineResult(model, base_fit, upper_fit, lower_fit, tuple(warnings))
