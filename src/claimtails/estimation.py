"""Parameter estimation: Anderson-Darling distance, its rank-weighted
variants with subrange support, gradient-based fitting, the Hill and
normalized-spacings tail estimators, and the three-step composite pipeline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from .core_dist import (
    KERNELS,
    DistributionSpec,
    Family,
    OrderedSample,
    _log1mexp,
    _log_survival,
    cdf,  # unused here; the benchmark's self-test checks that its tracer rebinds this name
    check_params,
    shifted_weibull,
    spec_from_dict,
)
from .tail_model import (
    AdjustedModel,
    LowerAdjustment,
    UpperAdjustment,
    _check_p_upper,
    _composite,
    _head_log_cdf,
    _lower_gpd_params,
    _tail_log_survival,
    lower_gpd_adjuster,
)


class LogDomainError(ValueError):
    """log F or log(1 - F) of the model is infinite at an observation, which
    lies outside the model's support; carries the offending rank."""

    def __init__(self, rank: int):
        super().__init__(f"model CDF is degenerate at rank {rank}")
        self.rank = rank


class FitFailedError(RuntimeError):
    """All optimizer restarts failed."""


class Weighting(str, Enum):
    UNWEIGHTED = "unweighted"
    NORMALIZED = "normalized"
    SQRT_PREFERENCE = "sqrt"


# each run's step tolerance and evaluations
_XTOL = 1e-8
_MAX_EVALS = 5000
# the upper step's starts perturbed from its x0: its objective has a basin in
# each gap between tail points, where the base and lower steps have one basin
# and run from x0 alone
_UPPER_PERTURBED = 4
# a fitted p_upper within this distance of 0 or 1 is reported as 0 or 1
P_UPPER_TOL = 1e-3


@dataclass(frozen=True)
class MadConfig:
    weighting: Weighting = Weighting.NORMALIZED
    rank_range: Optional[tuple] = None  # inclusive (i_lo, i_hi), 1-based

    def __post_init__(self):
        if self.rank_range is not None and not 1 <= self.rank_range[0] <= self.rank_range[1]:
            raise ValueError(f"rank range {tuple(self.rank_range)} must have 1 <= LO <= HI")

    def resolve_ranks(self, n: int) -> tuple:
        if self.rank_range is None:
            return 1, n
        i_lo, i_hi = self.rank_range
        if i_hi > n:
            raise ValueError(f"rank range {self.rank_range} invalid for n={n}")
        return int(i_lo), int(i_hi)


@dataclass(frozen=True)
class FitResult:
    """A fit step's estimate.  `evaluations` counts value-and-gradient
    evaluations.  `restarts` holds, in restart order, each
    optimizer restart's (start, end, objective value, evaluations): start
    and end map the free parameters to natural values, like `theta`, and
    the value has the sign of `objective_value` (a restart that ended in
    the penalty region shows the penalty, 1e12 in magnitude).  It is not
    part of `as_dict`."""

    theta: dict
    objective_value: float
    converged: bool
    evaluations: int
    config: MadConfig
    restarts: tuple = ()

    def as_dict(self) -> dict:
        return {
            "theta": dict(self.theta),
            "objective_value": self.objective_value,
            "converged": self.converged,
            "evaluations": self.evaluations,
            "weighting": self.config.weighting.value,
            "rank_range": list(self.config.rank_range) if self.config.rank_range else None,
        }


def _log_values(values: np.ndarray, model) -> tuple:
    """(log F, log S, dlog) of `model` at `values`.  A spec or an AdjustedModel
    gives log S, and log F from it, or the reverse at and below x_lower (see
    `_composite`); a callable returns F, whose logs of F and 1 - F are taken,
    or the triple itself.  dlog is None unless a callable returns it."""
    if isinstance(model, (DistributionSpec, AdjustedModel)):
        model = model if isinstance(model, AdjustedModel) else AdjustedModel(model)
        return (*_composite(model, values, lambda v: np.array([_log1mexp(v), v]),
                            lambda v: [v, _log1mexp(v)]), None)
    f = model(values)
    if isinstance(f, tuple):
        return f
    f = np.asarray(f)
    return np.log(f), np.log1p(-f), None


def ad_statistic(sample: OrderedSample, model) -> float:
    """Anderson-Darling statistic with the standard 1/n normalization: -n
    minus twice the unweighted objective, whose summands are half the AD sum's."""
    return -sample.n - 2 * mad_objective(sample, model, MadConfig(weighting=Weighting.UNWEIGHTED))


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


# ranks a fit step's model takes at once: 64 kB per float64 temporary of a
# candidate, below glibc's 128 KiB mmap threshold, so the temporaries of a
# large subsample reuse freed heap pages instead of faulting in fresh ones
_BLOCK_RANKS = 2**13


class _StepModel:
    """A fit step's model of candidate rows, which `mad_objective` calls once
    per block of at most `_BLOCK_RANKS` fitted ranks: `fn(x, at)` gives the
    (log F, log S, [dlog S, ...]) triple at x, the fitted values in the slice
    `at` of the fitted ranks.  Called on x alone, it takes x to be all of them."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, x, at=slice(None)):
        return self.fn(x, at)


def mad_objective(sample: OrderedSample, model, config: MadConfig) -> float | np.ndarray | tuple:
    """Fit objective over the configured rank range.

    Unweighted mode is the Bernoulli mixed likelihood (to be maximized);
    the weighted modes normalize each summand at the order-statistic
    expectation F(x_i) = i/(n+1) and are minimized, with value = rank count
    at a perfect EDF match.  The model is evaluated on the in-range order
    statistics only, so a callable model receives exactly those, in one call.

    The summands a log F + b log S, S = 1 - F, are taken in log space (see
    `_log_values`), so an F that rounds to 1 keeps a finite log S.  Where
    log F or log S is infinite, LogDomainError names the rank.

    A callable model may also return a triple (log F, log S, dlog) of (k, m)
    arrays, one candidate per row, with dlog None or the list
    [dlog S/dθ1, ..., dlog S/dθd] of their (k, m) partial derivatives by d
    parameters.  The value is then an array of the k candidates' values,
    each bit for bit the one a candidate gets alone, with inf in each row
    where a log is infinite (where one candidate raises LogDomainError).
    With dlog, (values, gradients) comes back: the gradient of a
    candidate's value, sum w (b - a S/F) dlog S, is a row of the (k, d)
    array, again bit for bit the one it gets alone, and 0 in an inf row.

    The summands and gradient terms are formed in blocks of ranks, which a
    fit step's model (`_StepModel`) is evaluated on one at a time, and each
    whole array of them is summed once, so no bit depends on the block size.
    """
    n = sample.n
    i_lo, i_hi = config.resolve_ranks(n)
    a, b, w = _rank_terms(n, i_lo, i_hi, config.weighting)
    x = sample.values[i_lo - 1 : i_hi]
    terms = grads = None
    # a log that is infinite, or NaN, leaves its row's value non-finite, and
    # the rows are told apart after the sums, without a RuntimeWarning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not isinstance(model, _StepModel):
            # any other model sees all the fitted values in one call
            log_f, log_s, dlog = _log_values(x, model)
            model = _StepModel(lambda _, at: (log_f[..., at], log_s[..., at],
                                              None if dlog is None else [d[..., at] for d in dlog]))
        for lo in range(0, x.size, _BLOCK_RANKS):
            at = slice(lo, lo + _BLOCK_RANKS)
            block_f, block_s, block_dlog = model(x[at], at)
            s = a[at] * block_f + b[at] * block_s
            if terms is None:
                terms = np.empty(s.shape[:-1] + x.shape)
                if s.ndim > 1 and block_dlog is not None:
                    grads = np.empty((len(block_dlog), *terms.shape))
            terms[..., at] = s if w is None else w[at] * s
            if grads is not None:
                # by a parameter far outside the fitted range (a Pareto scale
                # of 1e-309, say) the gradient can overflow, and an infinite
                # or NaN gradient is left for the caller to refuse
                r = b[at] - a[at] * np.exp(block_s - block_f)
                if w is not None:
                    r = w[at] * r
                for g, d in zip(grads, block_dlog):
                    g[..., at] = r * d
        value = terms.sum(axis=-1) / n if w is None else terms.sum(axis=-1)
        if terms.ndim == 1:
            if not math.isfinite(value):
                raise LogDomainError(int(np.flatnonzero(~np.isfinite(terms))[0]) + i_lo)
            return float(value)
        bad = ~np.isfinite(value)
        value[bad] = math.inf
        if grads is None:
            return value
        grad = grads.sum(axis=-1).T
    grad[bad] = 0.0
    return value, (grad / n if w is None else grad)


def _objective_direction(weighting: Weighting) -> float:
    # internal optimizer always minimizes; unweighted likelihood flips sign
    return -1.0 if weighting == Weighting.UNWEIGHTED else 1.0


# ---------------------------------------------------------------------------
# gradient-based fitting

_LOG_PARAMS = {"alpha", "sigma", "beta"}


def _transform(name: str):
    """(forward, inverse, slope) of a parameter's transform: the optimizer's
    coordinate t of a natural value v, v of t, and dv/dt in terms of v."""
    if name in _LOG_PARAMS:
        return np.log, np.exp, lambda v: v
    if name == "p_upper":
        def logit(p):
            p = min(max(p, 1e-9), 1 - 1e-9)
            return np.log(p / (1 - p))

        def expit(t):
            return 1.0 / (1.0 + np.exp(-t))

        return logit, expit, lambda p: p * (1.0 - p)
    return (lambda v: v), (lambda v: v), lambda v: 1.0


_PENALTY = 1e12

# most elements (candidates x fitted ranks) one batched objective call takes:
# beyond a few hundred kB per temporary, a wider batch costs more than it saves
_BATCH_ELEMENTS = 2**15


def _bfgs_steps(x0: list, lb: list, ub: list, xtol: float, maxfev: int) -> Generator:
    """Minimize over the box [lb, ub] from `x0` by projected BFGS: yields each
    point to evaluate, as a list of floats, takes back its (value, gradient)
    by `send`, and returns (fun, x, nfev).  A penalised point sends
    (`_PENALTY`, None).

    Each iteration steps along -H g, with H the inverse-Hessian estimate, and
    halves the step until the Armijo condition holds (c1 = 1e-4), clipping
    each trial point to the box; a penalised or non-finite point fails it.
    A coordinate on a bound whose gradient points out of the box is held for
    the iteration.  Every step is scaled to infinity-norm at most 1.  Until
    the first update H is the identity; after the first accepted step H is
    (s'y / y'y) I, and each accepted step with enough curvature
    (s'y > 1e-12 |s| |y|) updates it, leaving out the coordinates it left
    on a bound.  A run stops when a step of infinity-norm at most `xtol`
    lowers the value by at most `xtol` max(1, |f|) or is refused, when a
    step leaves the value unchanged, when the projected gradient is 0, or
    when `maxfev` evaluations are spent.  A penalised start ends the run.
    """
    box = list(zip(lb, ub))

    def clip(x: list) -> list:
        return [min(max(v, lo), hi) for v, (lo, hi) in zip(x, box)]

    def dot(u: list, v: list) -> float:
        return sum(a * b for a, b in zip(u, v))

    x = clip(x0)
    if maxfev < 1:
        return math.inf, x, 0
    f, g = yield x
    nfev = 1
    if not _usable(g):
        return f, x, nfev
    h = None  # the inverse-Hessian estimate; None while it is the identity
    while nfev < maxfev:
        held = [(v <= lo and d > 0.0) or (v >= hi and d < 0.0)
                for v, d, (lo, hi) in zip(x, g, box)]
        gf = [0.0 if k else d for d, k in zip(g, held)]  # the projected gradient
        if not any(gf):
            break
        p = [-d for d in gf] if h is None else [0.0 if k else -dot(row, gf)
                                                for row, k in zip(h, held)]
        # a step that the box would clip at once moves nothing
        p = [0.0 if (v <= lo and q < 0.0) or (v >= hi and q > 0.0) else q
             for v, q, (lo, hi) in zip(x, p, box)]
        if not dot(g, p) < 0.0:  # H has lost its definiteness to rounding
            h, p = None, [-d for d in gf]
        # at most a factor e in a scale per step: along a flat direction H
        # grows without bound, and an unscaled step leaves the float range
        p = [q / max(1.0, max(map(abs, p))) for q in p]
        t = 1.0
        while True:
            xt = clip([v + t * q for v, q in zip(x, p)])
            s = [a - b for a, b in zip(xt, x)]
            ft, gt = yield xt
            nfev += 1
            # a clipped step can turn uphill, so the value must not rise either
            if _usable(gt) and ft <= min(f, f + 1e-4 * dot(g, s)):
                break
            if max(map(abs, s)) <= xtol or nfev >= maxfev:
                return f, x, nfev
            t *= 0.5
        # a coordinate the step left on its bound tells nothing of the curvature
        y = [a - b if si else 0.0 for a, b, si in zip(gt, g, s)]
        decrease = f - ft
        x, f, g = xt, ft, gt
        # no decrease at all: the value is flat to rounding along the step
        if decrease <= 0.0 or (max(map(abs, s)) <= xtol and decrease <= xtol * max(1.0, abs(f))):
            break
        sy = dot(s, y)
        if sy > 1e-12 * math.sqrt(dot(s, s) * dot(y, y)):
            if h is None:
                h = [[sy / dot(y, y) if i == j else 0.0 for j in range(len(x))]
                     for i in range(len(x))]
            # H <- (I - rho s y') H (I - rho y s') + rho s s', with rho = 1/s'y
            hy = [dot(row, y) for row in h]
            c = (1.0 + dot(y, hy) / sy) / sy
            h = [[hij - (si * hyj + hyi * sj) / sy + c * si * sj
                  for hij, hyj, sj in zip(row, hy, s)]
                 for row, hyi, si in zip(h, hy, s)]
    return f, x, nfev


def _usable(gradient) -> bool:
    """Whether a point's gradient exists and is finite (not penalised)."""
    return gradient is not None and all(map(math.isfinite, gradient))


def _lockstep(evaluate: Callable, runs: list) -> list:
    """Drive the `_bfgs_steps` generators `runs` together; returns their
    (fun, x, nfev), in run order.

    Each round, `evaluate` gets the pending point of every run still going,
    in run order, and returns their (value, gradient) in that order.  A run's
    steps do not depend on the others, so each result is the one the run
    gives alone.
    """
    results = [None] * len(runs)
    pending = {}  # run index -> the point it waits on; kept in run order

    def advance(j: int, value) -> None:
        try:
            pending[j] = runs[j].send(value)
        except StopIteration as stop:
            pending.pop(j, None)
            results[j] = stop.value

    for j in range(len(runs)):
        advance(j, None)
    while pending:
        for j, value in zip(list(pending), evaluate(list(pending.values()))):
            advance(j, value)
    return results


def _minimize_restarts(
    evaluate: Callable, x0: np.ndarray, lb: list, ub: list, perturbed: int = 0,
    extra: Sequence = (),
) -> tuple:
    """Projected BFGS in transformed space from `x0`, from `perturbed`
    deterministic perturbations of it, then from each point of `extra`.

    The restarts run in lockstep (see `_lockstep`): `evaluate` gets a list of
    points, one per restart still going, and returns their (value, gradient)
    pairs.
    Returns (best_x, best_f, converged, total_evals, runs), where `runs`
    holds each restart's (start, fun, x, nfev), in restart order.  One run
    has converged when it stopped before `_MAX_EVALS` evaluations; several
    when the best two outside the penalty region agree in value or point.
    """
    rng = np.random.default_rng(20240817)
    offsets = [np.zeros_like(x0)] + [
        0.35 * rng.standard_normal(x0.size) for _ in range(perturbed)
    ]
    points = [x0 + offset for offset in offsets] + list(extra)
    starts = [np.clip(x, lb, ub).tolist() for x in points]
    ends = _lockstep(evaluate, [
        _bfgs_steps(start, lb, ub, _XTOL, _MAX_EVALS) for start in starts
    ])
    runs = [(start, *end) for start, end in zip(starts, ends)]
    evals = sum(nfev for *_, nfev in runs)
    results = [(f, x) for _, f, x, _ in runs if np.isfinite(f) and f < _PENALTY / 2]
    if not results:
        raise FitFailedError("every optimizer restart ended in the penalty region")
    results.sort(key=lambda t: t[0])
    best_f, best_x = results[0]
    converged = False
    if len(runs) == 1:
        converged = runs[0][3] < _MAX_EVALS
    elif len(results) >= 2:
        f2, x2 = results[1]
        close_f = abs(best_f - f2) <= 1e-6 * max(1.0, abs(best_f))
        close_x = np.max(np.abs(np.subtract(best_x, x2))) < 1e-3
        converged = bool(close_f or close_x)
    return best_x, best_f, converged, evals, runs


def _batch_objective(
    sample: OrderedSample, params_of: Callable, model_of: Callable, config: MadConfig
) -> Callable:
    """The fit's objective of a list of candidates, each a list of natural
    values of the free parameters: a list of (value, gradient) pairs, the
    value minimized and the gradient a list of its partial derivatives by
    the free parameters.

    `params_of(*theta)` maps one candidate to the tuple of floats its model
    takes, and raises ValueError outside the model's domain; such a
    candidate, and one with a fitted observation outside its support (an
    infinite log F or log S), gets (`_PENALTY`, None).  `model_of(*columns)`
    takes those parameters as (k, 1) columns of k candidates and returns
    their `_StepModel`, with a (log F, log S, [dlog S, ...]) result: (k, m)
    arrays, the derivatives by the d free parameters.  The others go to
    `mad_objective` in batches of at most `_BATCH_ELEMENTS` elements (one
    candidate where the fitted ranks alone are more).
    """
    direction = _objective_direction(config.weighting)
    i_lo, i_hi = config.resolve_ranks(sample.n)
    per_call = max(1, _BATCH_ELEMENTS // (i_hi - i_lo + 1))

    def objective(candidates: list) -> list:
        results = [(_PENALTY, None)] * len(candidates)
        rows, at = [], []
        for j, theta in enumerate(candidates):
            try:
                rows.append(params_of(*theta))
            except (ValueError, ArithmeticError):
                continue
            at.append(j)
        for lo in range(0, len(rows), per_call):
            columns = np.array(rows[lo : lo + per_call]).T[:, :, None]
            values, grads = mad_objective(sample, model_of(*columns), config)
            for j, v, g in zip(at[lo : lo + per_call], values.tolist(), grads.tolist()):
                if v != math.inf:
                    results[j] = (direction * v, [direction * d for d in g])
        return results

    return objective


def _family_candidates(family: Family, fixed: dict, free: Sequence[str]) -> tuple:
    """(params_of, model_of) of `_batch_objective` for `family` with the
    parameters `fixed` held and `free` fitted, in that order."""
    kernel = KERNELS[family]
    # held parameters enter the kernel as floats, so only the free ones broadcast
    held = {i: float(fixed[nm]) for i, nm in enumerate(kernel.names) if nm in fixed}
    at = [kernel.names.index(nm) for nm in free]

    def params_of(*theta: float) -> tuple:
        merged = {**fixed, **dict(zip(free, theta))}
        params = tuple(float(merged[nm]) for nm in kernel.names)
        check_params(family, params)
        return params

    def model_of(*params) -> _StepModel:
        params = [held.get(i, p) for i, p in enumerate(params)]

        def model(x, _):  # a family's kernel needs no per-point inputs
            log_s, dlog = kernel.log_survival(x, *params)
            return _log1mexp(log_s), log_s, [dlog[i] for i in at]

        return _StepModel(model)

    return params_of, model_of


def _tail_candidates(x_upper: float, ls_tail: np.ndarray, ls_at: float) -> tuple:
    """(params_of, model_of) of `_batch_objective` for the upper step's
    (p_upper, beta, sigma): the tail law of the fixed base, with log survival
    `ls_tail` on the fitted tail and `ls_at` at x_upper, mixed with a shifted
    Weibull adjuster at x_upper.  A step's models run inside
    `mad_objective`, which keeps their infinities from warning."""
    shift = float(x_upper)
    kernel = KERNELS[Family.SHIFTED_WEIBULL]
    ls_rel = ls_tail - ls_at

    def params_of(p: float, beta: float, sigma: float) -> tuple:
        _check_p_upper(p)
        check_params(Family.SHIFTED_WEIBULL, (shift, sigma, beta))
        return p, sigma, beta

    def model_of(p, sigma, beta) -> _StepModel:
        def model(x, at):
            # log S = log S_b - log S_b(x_upper) + log m, m = p S_a + 1 - p:
            # by p its derivative is (S_a - 1)/m, by an adjuster parameter
            # (p S_a/m) dlog S_a, whose limit is 0 where S_a underflows to 0
            # and dlog S_a may be infinite
            log_a, (_, d_sigma, d_beta) = kernel.log_survival(x, shift, sigma, beta)
            log_s = _tail_log_survival(p, log_a, ls_tail[at], ls_at)
            minus_log_m = ls_rel[at] - log_s
            w = p * np.exp(log_a + minus_log_m)
            return _log1mexp(log_s), log_s, [
                np.expm1(log_a) * np.exp(minus_log_m),
                *(np.where(w == 0.0, 0.0, w * d) for d in (d_beta, d_sigma))]

        return _StepModel(model)

    return params_of, model_of


# the upper step's scan grid: p_upper, the adjuster's beta, and at most
# _SCAN_POINTS fitted tail points, between which the sigmas lie; the scan
# adds _SCAN_STARTS restarts
_SCAN_P = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
_SCAN_BETA = tuple(0.5 * 2.0**j for j in range(8))
_SCAN_POINTS = 64
_SCAN_STARTS = 2


def _tail_scan(x_upper: float, values: np.ndarray, ls_tail: np.ndarray, ls_at: float,
               config: MadConfig) -> list:
    """Starts for the upper step besides its perturbed ones: the
    `_SCAN_STARTS` lowest local minima of its objective on a grid, as
    (p_upper, beta, sigma) lists, lowest first.

    A steep adjuster (large beta) places its mass between two tail points,
    so the objective has a basin for each gap, and one near sigma -> 0 with a
    small p_upper; a local search finds the basin it starts in.  So the grid
    puts sigma between each two neighbours of at most `_SCAN_POINTS` evenly
    spaced order statistics of the fitted tail `values` (and at twice the
    largest excess), and the objective is that of those points.  A grid
    point is a local minimum when no neighbour on the grid is lower.
    """
    kernel = KERNELS[Family.SHIFTED_WEIBULL]
    keep = np.unique(np.linspace(0, values.size - 1, _SCAN_POINTS).round().astype(int))
    # the upper step's label: its objective calls, the scan's among them,
    # are told apart from the other steps' by it
    points = OrderedSample.from_values(values[keep], label="upper tail")
    ls_points = ls_tail[keep]
    excess = points.values - x_upper
    sigmas = np.append(np.sqrt(excess[1:] * excess[:-1]), 2.0 * excess[-1])
    beta = np.repeat(_SCAN_BETA, sigmas.size)[:, None]
    sigma = np.tile(sigmas, len(_SCAN_BETA))[:, None]
    p = np.array(_SCAN_P)[:, None, None]
    per_call = max(1, _BATCH_ELEMENTS // (p.size * points.n))
    blocks = []
    for lo in range(0, beta.shape[0], per_call):
        b, sg = beta[lo : lo + per_call], sigma[lo : lo + per_call]

        def model(x):
            log_a = kernel.logsf(x, x_upper, sg, b)
            log_s = _tail_log_survival(p, log_a, ls_points, ls_at).reshape(-1, x.size)
            return _log1mexp(log_s), log_s, None

        blocks.append(mad_objective(points, model, config).reshape(p.size, -1))
    v = np.concatenate(blocks, axis=1)
    grid = np.where(np.isfinite(v), _objective_direction(config.weighting) * v, np.inf)
    grid = grid.reshape(p.size, len(_SCAN_BETA), sigmas.size)
    padded = np.pad(grid, 1, constant_values=np.inf)
    lowest = np.isfinite(grid)
    for shift in itertools.product((0, 1, 2), repeat=3):
        if shift != (1, 1, 1):
            lowest &= grid <= padded[tuple(slice(k, k + n) for k, n in zip(shift, grid.shape))]
    at = np.flatnonzero(lowest)
    at = at[np.argsort(grid.ravel()[at], kind="stable")][:_SCAN_STARTS]
    return [[_SCAN_P[i], _SCAN_BETA[j], float(sigmas[k])]
            for i, j, k in zip(*np.unravel_index(at, grid.shape))]


def _head_candidates(x_lower: float, lf_head: np.ndarray, lf_at: float) -> tuple:
    """(params_of, model_of) of `_batch_objective` for the lower step's
    gamma_adj_l: the head law of the fixed base, with log CDF `lf_head` on
    the fitted head and `lf_at` at x_lower, times an endpoint-pinned GPD
    adjuster."""
    kernel = KERNELS[Family.GPD]

    def params_of(gamma_adj: float) -> tuple:
        params = _lower_gpd_params(gamma_adj, x_lower)
        check_params(Family.GPD, params)
        return params

    def model_of(gamma, sigma, loc) -> _StepModel:
        def model(x, at):
            # log F = log F_b - log F_b(x_lower) + log F_a, so dlog S =
            # (F/S)(S_a/F_a) dlog S_a, and the adjuster's sigma = -gamma
            # x_lower makes d/dgamma of log S_a d_gamma - x_lower d_sigma
            log_a, (d_gamma, d_sigma, _) = kernel.log_survival(x, gamma, sigma, loc)
            log_fa = _log1mexp(log_a)
            log_f = _head_log_cdf(log_fa, lf_head[at], lf_at)
            log_s = _log1mexp(log_f)
            ratio = np.exp(log_f - log_s + log_a - log_fa)
            return log_f, log_s, [ratio * (d_gamma - x_lower * d_sigma)]

        return _StepModel(model)

    return params_of, model_of


def _fit_generic(
    sample: OrderedSample,
    candidates: tuple,
    free_names: Sequence[str],
    x0_natural: dict,
    config: MadConfig,
    bounds: Optional[dict] = None,
    perturbed: int = 0,
    extra: Sequence = (),
) -> FitResult:
    """Minimum-AD fit of `free_names` within their natural (lo, hi) `bounds`,
    whose `candidates` are the (params_of, model_of) pair of `_batch_objective`,
    from `x0_natural` and `perturbed` perturbations of it (see
    `_minimize_restarts`); each point of `extra`, a list of natural values,
    adds a restart."""
    fwd, inv, slope = zip(*map(_transform, free_names))
    bounds = bounds or {}
    box = [(i, *bounds[nm]) for i, nm in enumerate(free_names) if nm in bounds]

    def natural(points: list) -> list:
        # each point's natural values, with one transform call per parameter;
        # beyond the float range a scale is inf, which the domain check
        # refuses, and p_upper is 0.  The box is built in transformed space,
        # so a point on its edge can map a rounding step outside its bound
        columns = np.array(points, dtype=float).T
        with np.errstate(over="ignore"):
            values = [g(c) for g, c in zip(inv, columns)]
        for i, lo, hi in box:
            values[i] = np.minimum(np.maximum(values[i], lo), hi)
        return np.array(values).T.tolist()

    def evaluate(points: list) -> list:
        # the gradient by the natural values, times dv/dt, is the gradient in t
        thetas = natural(points)
        return [
            (f, g if g is None else [d * dv(v) for d, dv, v in zip(g, slope, theta)])
            for theta, (f, g) in zip(thetas, objective(thetas))
        ]

    objective = _batch_objective(sample, *candidates, config)
    x0 = np.array([g(x0_natural[nm]) for g, nm in zip(fwd, free_names)])
    lb, ub = [], []
    for g, nm in zip(fwd, free_names):
        lo, hi = (g(b) for b in bounds[nm]) if nm in bounds else (-np.inf, np.inf)
        lb.append(float(lo))
        ub.append(float(hi))
    extra = [np.array([g(v) for g, v in zip(fwd, point)]) for point in extra]
    best_x, best_f, converged, evals, runs = _minimize_restarts(
        evaluate, x0, lb, ub, perturbed, extra)
    direction = _objective_direction(config.weighting)
    starts, ends = (natural([run[i] for run in runs]) for i in (0, 2))
    restarts = tuple(
        (dict(zip(free_names, start)), dict(zip(free_names, end)), float(direction * f), nfev)
        for start, end, (_, f, _, nfev) in zip(starts, ends, runs)
    )
    theta = dict(zip(free_names, natural([best_x])[0]))
    return FitResult(theta, direction * best_f, converged, evals, config, restarts)


def fit_mad(
    sample: OrderedSample,
    family: Family,
    fixed: Optional[dict] = None,
    config: MadConfig = MadConfig(),
) -> FitResult:
    """Fit a single family by minimum-AD distance over the configured
    rank range; parameters in `fixed` are held constant.

    Fixed parameters outside the family's domain raise `ParameterError`,
    and a left endpoint at or above the smallest fitted observation raises
    `ValueError`, before any restart runs.
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

    return _fit_generic(sample, _family_candidates(family, fixed, free), free, x0, config)


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

def hill_mean(top: np.ndarray, threshold: float) -> float:
    """Hill estimate of the extreme value index: mean log excess over `threshold`."""
    return float(np.mean(np.log(top / threshold)))


def hill_estimate(sample: OrderedSample, k: int) -> dict:
    """Hill estimate of the extreme value index from the top k order
    statistics, with threshold x_{n-k}."""
    n = sample.n
    if not (1 <= k <= n - 1):
        raise ValueError(f"k={k} out of range [1, {n - 1}]")
    threshold = float(sample.values[n - k - 1])
    if threshold <= 0:
        raise ValueError("threshold order statistic must be positive")
    gamma = hill_mean(sample.values[n - k :], threshold)
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
    """Three-step fit plan; leaving x_upper or x_lower unset skips that step.
    Every step uses `config.weighting`, only the base step its `rank_range`."""
    base_family: Family
    base_fixed: dict = field(default_factory=dict)
    x_lower: Optional[float] = None
    x_upper: Optional[float] = None
    config: MadConfig = MadConfig()


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


def fit_pipeline(sample: OrderedSample, plan: PipelinePlan) -> PipelineResult:
    """Three-step composite fit: base on the middle range, upper adjuster and
    transition probability on the tail, lower adjuster on the head.

    The base and lower steps, each with one basin, run from one start.  The
    upper step runs from its x0, `_UPPER_PERTURBED` perturbations of it and
    the two lowest minima of a grid scan (`_tail_scan`).
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
    weighting, rank_range = plan.config.weighting, plan.config.rank_range
    rlo, rhi = int(mid_ranks[0]), int(mid_ranks[-1])
    if rank_range is not None:
        lo, hi = max(rlo, rank_range[0]), min(rhi, rank_range[1])
        if lo > hi:
            raise ValueError(
                f"rank range {tuple(rank_range)} contains none of the ranks "
                f"{rlo}..{rhi} between the thresholds"
            )
        rlo, rhi = lo, hi
    base_fixed = {**KERNELS[plan.base_family].fixed, **plan.base_fixed}
    base_fit = fit_mad(sample, plan.base_family, base_fixed, MadConfig(weighting, (rlo, rhi)))
    base = spec_from_dict(plan.base_family, {**base_fixed, **base_fit.theta})
    config = MadConfig(weighting)  # for the upper and lower steps' whole subsamples

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
            # the base is fixed here: log S_b on the tail and at x_upper, once per step
            ls_tail = _log_survival(base, tail.values)
            ls_at = _log_survival(base, plan.x_upper)

            upper_fit = _fit_generic(
                tail, _tail_candidates(plan.x_upper, ls_tail, ls_at), ["p_upper", "beta", "sigma"],
                x0, config, {"beta": (0.5, 100.0)}, _UPPER_PERTURBED,
                _tail_scan(plan.x_upper, tail.values, ls_tail, ls_at, config),
            )
            p_hat = upper_fit.theta["p_upper"]
            if p_hat < P_UPPER_TOL:
                p_hat = 0.0
            elif p_hat > 1.0 - P_UPPER_TOL:
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
            # F_b is 0 at and below the base's left endpoint, so every candidate's
            # head CDF is 0 there
            x_min = float(head.values[0])
            if x_min <= base.left_endpoint:
                raise ValueError(
                    f"the smallest fitted head observation {x_min:g} (rank 1) is not "
                    f"above the base's left endpoint {base.left_endpoint:g}"
                )
            lf_head = _log1mexp(_log_survival(base, head.values))
            lf_at = _log1mexp(_log_survival(base, plan.x_lower))

            lower_fit = _fit_generic(
                head, _head_candidates(plan.x_lower, lf_head, lf_at), ["gamma_adj_l"],
                {"gamma_adj_l": -0.5}, config, {"gamma_adj_l": (-5.0, -0.01)},
            )
            adjuster = lower_gpd_adjuster(lower_fit.theta["gamma_adj_l"], plan.x_lower)
            lower = LowerAdjustment(adjuster, plan.x_lower)

    model = AdjustedModel(base, upper, lower)
    return PipelineResult(model, base_fit, upper_fit, lower_fit, tuple(warnings))
