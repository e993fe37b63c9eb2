"""Parametric claim-size distribution families and rank-based plotting positions.

Implements the Pareto, generalized Pareto (GPD), exponential, shifted Weibull
and stepped (cascading) Pareto families with CDF/survival/density/quantile
evaluation, inverse-transform sampling and numerical CDF inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np


class ParameterError(ValueError):
    """Raised for a parameter vector outside the family's domain."""


class Family(str, Enum):
    PARETO = "pareto"
    GPD = "gpd"
    EXPONENTIAL = "exponential"
    SHIFTED_WEIBULL = "shifted_weibull"
    STEPPED_PARETO = "stepped_pareto"


@dataclass(frozen=True)
class Kernel:
    """One family's formulas, as plain functions of its parameters in `names` order.

    `logsf(x, *p)` = log S(x), `density(x, *p)`, `quantile(q, *p)` with q = 1 - probability,
    the endpoints `left(*p)` and `right(*p)`, and `requires`: (predicate, requirement)
    pairs.  `start(values, fixed)` seeds a minimum-AD fit (None: no fitting
    support); `fixed` is what a fit holds constant unless told otherwise.  A
    family with fitting support also has `log_survival(x, *p)`, the pair of
    logsf's value and the tuple of its partial derivatives by each parameter,
    in `names` order.  Its logsf and log_survival also take (k, 1) parameter
    columns, one candidate per row (see `_power`).
    """

    names: tuple
    requires: tuple
    left: Callable
    logsf: Callable
    density: Callable
    quantile: Callable
    start: Optional[Callable] = None
    log_survival: Optional[Callable] = None
    right: Callable = lambda *p: np.inf
    fixed: dict = field(default_factory=dict)


def _pareto_start(v, fixed):
    sigma = fixed.get("sigma", float(v[0]) * 0.999)
    logs = np.log(np.maximum(v / sigma, 1.0 + 1e-12))
    return {"alpha": 1.0 / max(float(np.mean(logs)), 1e-6), "sigma": sigma}


def _pareto_terms(xv, alpha, sigma):
    # (log(sigma/x), log S = alpha log(sigma/x)) above sigma, 0 below; a tiny
    # sigma makes sigma/x underflow to 0 and alpha/sigma overflow, where S is 0
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = np.log(sigma / np.maximum(xv, sigma))
        return log_ratio, alpha * log_ratio


def _pareto_log_survival(xv, alpha, sigma):
    log_ratio, log_s = _pareto_terms(xv, alpha, sigma)
    with np.errstate(over="ignore"):
        return log_s, (log_ratio, np.where(xv < sigma, 0.0, alpha / sigma))


def _power(base, exponent):
    """np.power(base, exponent) for a float exponent or a (k, 1) column of them.

    A logsf kernel takes its parameters as floats, or as (k, 1) columns of
    k candidates with a (k, m) result.  A column is applied row by row with a
    Python-float exponent: numpy takes its scalar-exponent fast paths (sqrt at
    0.5, reciprocal at -1, square at 2) only for a scalar, so each row gets the
    bits that one candidate's call gives.
    """
    if not isinstance(exponent, np.ndarray):
        return np.power(base, exponent)
    out = np.empty(np.broadcast(base, exponent).shape)
    if np.shape(base) != out.shape:
        base = np.broadcast_to(base, out.shape)
    for row, b, e in zip(out, base, exponent[:, 0].tolist()):
        np.power(b, e, out=row)
    return out


def _gpd_terms(xv, gamma, sigma, loc):
    """(r, u, log1p(u), log S) of the GPD at xv, with r = z/sigma and u = gamma r.

    S = (1 + u)**(-1/gamma) = exp(-r log1p(u)/u): 1 + u would round gamma's
    digits away as gamma -> 0, log1p(u) keeps them, and log1p(u)/u is 1 at
    u = 0 (gamma = 0 is the exponential law).  u takes r capped at 1e300, so
    that it stays finite at x = inf, and is clamped at -1, beyond a negative
    shape's endpoint, where S = 0.
    """
    r = np.maximum(xv - loc, 0.0) / sigma
    u = np.maximum(gamma * np.minimum(r, 1e300), -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log1p_u = np.log1p(u)
        return r, u, log1p_u, -r * np.where(u == 0.0, 1.0, log1p_u / u)


# h(u) = (log1p(u) - u/(1+u)) / u**2 = sum over j >= 2 of (-1)**j (j-1)/j u**(j-2),
# to the u**7 term: below |u| = 1e-2 it is exact to rounding, and the closed
# form, which cancels as u -> 0, has lost at most ~1e-13 relative there
_H_SERIES = tuple((-1) ** j * (j - 1) / j for j in range(9, 1, -1))


def _gpd_log_survival(xv, gamma, sigma, loc):
    # by gamma log S = log1p(u)/gamma**2 - r/(gamma*(1+u)) = r**2 h(u), finite
    # through gamma = 0; by sigma r/(sigma*(1+u)), by loc 1/(sigma*(1+u)) above loc
    r, u, log1p_u, log_s = _gpd_terms(xv, gamma, sigma, loc)
    # u = -1 lies at or beyond a negative shape's endpoint, where S = 0; u*u
    # underflows to 0 where the series takes over, and the series overflows
    # where the closed form holds
    small = (u < 1e-2) & (u > -1e-2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = (log1p_u - u / (u + 1.0)) / (u * u)
        if small.any():
            hs = _H_SERIES[0]
            for c in _H_SERIES[1:]:
                hs = hs * u + c
            h = np.where(small, hs, h)
        t = 1.0 / ((u + 1.0) * sigma)
    return log_s, (h * r * r, r * t, np.where(r > 0.0, t, 0.0))


def _gpd_density(xv, gamma, sigma, loc):
    # f = S/(sigma (1 + u)); S and 1 + u are 0 at a negative shape's endpoint
    _, u, _, log_s = _gpd_terms(xv, gamma, sigma, loc)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((xv < loc) | (u <= -1.0), 0.0, np.exp(log_s) / (sigma * (1.0 + u)))


def _gpd_quantile(q, gamma, sigma, loc):
    # x = loc + sigma (q**(-gamma) - 1)/gamma, and q**(-gamma) rounds gamma's
    # digits away as gamma -> 0: with L = -log q it is loc + sigma L expm1(w)/w,
    # w = gamma L, and expm1(w)/w is 1 at w = 0 (gamma = 0 is the exponential law)
    big_l = -np.log(q)
    w = gamma * big_l
    with np.errstate(invalid="ignore"):
        return loc + sigma * big_l * np.where(w == 0.0, 1.0, np.expm1(w) / w)


def _weibull_terms(xv, shift, sigma, beta):
    # (y, log S = -y**beta) with y = (x - shift)/sigma, 0 below the shift;
    # far beyond sigma y**beta overflows to inf, where S is 0
    with np.errstate(over="ignore"):
        y = np.maximum(xv - shift, 0.0) / sigma
        return y, -_power(y, beta)


def _weibull_log_survival(xv, shift, sigma, beta):
    # by sigma beta y**beta/sigma, by shift that over y, by beta -y**beta log y;
    # at y = 0 every derivative is 0 (beta > 0), where y**beta log y is 0 * -inf
    y, log_s = _weibull_terms(xv, shift, sigma, beta)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d_sigma = -beta * log_s / sigma
        inside = y > 0.0
        return log_s, (np.where(inside, d_sigma / y, 0.0), d_sigma,
                       np.where(inside, log_s * np.log(y), 0.0))


def _weibull_density(xv, shift, sigma, beta):
    z = (xv - shift) / sigma
    zc = np.maximum(z, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            z < 0,
            0.0,
            beta / sigma * np.power(np.maximum(zc, 1e-300), beta - 1.0) * np.exp(-zc**beta),
        )


def _weibull_start(v, fixed):
    shift = fixed.get("shift", 0.0)
    return {"shift": shift, "sigma": max(float(np.mean(v - shift)), 1e-12), "beta": 1.0}


def _exponential_logsf(xv, sigma):
    return -np.maximum(xv, 0.0) / sigma


def _stepped_levels(a1, a2, s1, s2, s3):
    """Survival c2 = S(sigma2) and c3 = S(sigma3) at the two breaks."""
    c2 = (s2 / s1) ** (-a1)
    c3 = c2 * (s3 / s2) ** (-a2)
    return c2, c3


def _stepped_logsf(xv, a1, a2, s1, s2, s3):
    # log S = log c - a log(x/s) from each break s on, where S = c; 0 below sigma1
    log_c2, log_c3 = np.log(_stepped_levels(a1, a2, s1, s2, s3))
    xc = np.maximum(xv, s1)
    return np.where(
        xv <= s2,
        -a1 * np.log(xc / s1),
        np.where(xv <= s3, log_c2 - a2 * np.log(xc / s2), log_c3 - a1 * np.log(xc / s3)),
    )


def _stepped_density(xv, a1, a2, s1, s2, s3):
    c2, c3 = _stepped_levels(a1, a2, s1, s2, s3)
    xc = np.maximum(xv, s1)
    d = np.where(
        xv <= s2,
        a1 / s1 * np.power(xc / s1, -a1 - 1.0),
        np.where(
            xv <= s3,
            c2 * a2 / s2 * np.power(xc / s2, -a2 - 1.0),
            c3 * a1 / s3 * np.power(xc / s3, -a1 - 1.0),
        ),
    )
    return np.where(xv < s1, 0.0, d)


def _stepped_quantile(q, a1, a2, s1, s2, s3):
    c2, c3 = _stepped_levels(a1, a2, s1, s2, s3)
    return np.where(
        q >= c2,
        s1 * np.power(q, -1.0 / a1),
        np.where(
            q >= c3,
            s2 * np.power(q / c2, -1.0 / a2),
            s3 * np.power(q / c3, -1.0 / a1),
        ),
    )


KERNELS = {
    Family.PARETO: Kernel(
        names=("alpha", "sigma"),
        requires=((lambda alpha, sigma: alpha > 0 and sigma > 0, "Pareto needs alpha>0, sigma>0"),),
        left=lambda alpha, sigma: sigma,
        logsf=lambda xv, alpha, sigma: _pareto_terms(xv, alpha, sigma)[1],
        density=lambda xv, alpha, sigma: np.where(
            xv < sigma, 0.0, alpha * sigma**alpha * np.power(np.maximum(xv, sigma), -alpha - 1.0)
        ),
        quantile=lambda q, alpha, sigma: sigma * np.power(q, -1.0 / alpha),
        start=_pareto_start,
        log_survival=_pareto_log_survival,
    ),
    Family.GPD: Kernel(
        names=("gamma", "sigma", "loc"),
        requires=(
            (lambda gamma, sigma, loc: sigma > 0, "GPD needs sigma>0"),
            (lambda gamma, sigma, loc: loc >= 0, "GPD location must be >=0"),
        ),
        left=lambda gamma, sigma, loc: loc,
        right=lambda gamma, sigma, loc: loc + sigma / (-gamma) if gamma < 0 else np.inf,
        logsf=lambda xv, gamma, sigma, loc: _gpd_terms(xv, gamma, sigma, loc)[3],
        density=_gpd_density,
        quantile=_gpd_quantile,
        start=lambda v, fixed: {"gamma": 0.5, "sigma": max(float(np.median(v - fixed["loc"])), 1e-12)},
        log_survival=_gpd_log_survival,
        # the location is a known threshold, never a fitted quantity
        fixed={"loc": 0.0},
    ),
    Family.EXPONENTIAL: Kernel(
        names=("sigma",),
        requires=((lambda sigma: sigma > 0, "exponential needs sigma>0"),),
        left=lambda sigma: 0.0,
        logsf=_exponential_logsf,
        density=lambda xv, sigma: np.where(xv < 0, 0.0, np.exp(-np.maximum(xv, 0.0) / sigma) / sigma),
        quantile=lambda q, sigma: -sigma * np.log(q),
        start=lambda v, fixed: {"sigma": float(np.mean(v))},
        log_survival=lambda xv, sigma: (_exponential_logsf(xv, sigma),
                                        (np.maximum(xv, 0.0) / (sigma * sigma),)),
    ),
    Family.SHIFTED_WEIBULL: Kernel(
        names=("shift", "sigma", "beta"),
        requires=((lambda shift, sigma, beta: shift >= 0 and sigma > 0 and beta > 0,
                   "shifted Weibull needs shift>=0, sigma>0, beta>0"),),
        left=lambda shift, sigma, beta: shift,
        logsf=lambda xv, shift, sigma, beta: _weibull_terms(xv, shift, sigma, beta)[1],
        density=_weibull_density,
        quantile=lambda q, shift, sigma, beta: shift + sigma * np.power(-np.log(q), 1.0 / beta),
        start=_weibull_start,
        log_survival=_weibull_log_survival,
    ),
    Family.STEPPED_PARETO: Kernel(
        names=("alpha1", "alpha2", "sigma1", "sigma2", "sigma3"),
        requires=(
            (lambda a1, a2, s1, s2, s3: a1 > 0 and a2 > 0, "stepped Pareto needs alpha1,alpha2>0"),
            (lambda a1, a2, s1, s2, s3: 0 < s1 < s2 < s3,
             "stepped Pareto needs 0<sigma1<sigma2<sigma3"),
        ),
        left=lambda a1, a2, s1, s2, s3: s1,
        logsf=_stepped_logsf,
        density=_stepped_density,  # three scaled Pareto density segments
        quantile=_stepped_quantile,  # inverted branch by branch
    ),
}


def check_params(family: Family, p: tuple) -> None:
    """Raise ParameterError unless the tuple `p` lies in the family's domain."""
    kernel = KERNELS[family]
    if len(p) != len(kernel.names):
        raise ParameterError(f"{family.value} needs {len(kernel.names)} parameters, got {len(p)}")
    if not all(map(math.isfinite, p)):
        raise ParameterError(f"non-finite parameter in {p}")
    for holds, requirement in kernel.requires:
        if not holds(*p):
            raise ParameterError(f"{requirement}, got {p}")


@dataclass(frozen=True)
class DistributionSpec:
    """A tagged parametric family with its parameter vector.

    Use the module-level constructors (`pareto`, `gpd`, ...) rather than
    building instances by hand; they validate the parameter domain.
    """

    family: Family
    params: tuple

    def __post_init__(self):
        check_params(self.family, self.params)

    def as_dict(self) -> dict:
        return dict(zip(KERNELS[self.family].names, self.params))

    @property
    def left_endpoint(self) -> float:
        return KERNELS[self.family].left(*self.params)

    @property
    def right_endpoint(self) -> float:
        """Right endpoint of the support; +inf when unbounded."""
        return KERNELS[self.family].right(*self.params)


def pareto(alpha: float, sigma: float) -> DistributionSpec:
    return DistributionSpec(Family.PARETO, (float(alpha), float(sigma)))


def gpd(gamma: float, sigma: float, loc: float = 0.0) -> DistributionSpec:
    return DistributionSpec(Family.GPD, (float(gamma), float(sigma), float(loc)))


def exponential(sigma: float) -> DistributionSpec:
    return DistributionSpec(Family.EXPONENTIAL, (float(sigma),))


def shifted_weibull(shift: float, sigma: float, beta: float) -> DistributionSpec:
    return DistributionSpec(
        Family.SHIFTED_WEIBULL, (float(shift), float(sigma), float(beta))
    )


def stepped_pareto(
    alpha1: float, alpha2: float, sigma1: float, sigma2: float, sigma3: float
) -> DistributionSpec:
    return DistributionSpec(
        Family.STEPPED_PARETO,
        (float(alpha1), float(alpha2), float(sigma1), float(sigma2), float(sigma3)),
    )


def spec_from_dict(family: Family | str, params: dict) -> DistributionSpec:
    fam = Family(family)
    missing = [name for name in KERNELS[fam].names if name not in params]
    if missing:
        raise ParameterError(f"{fam.value} is missing parameters: {', '.join(missing)}")
    return DistributionSpec(fam, tuple(float(params[name]) for name in KERNELS[fam].names))


@dataclass(frozen=True)
class OrderedSample:
    """Sorted positive losses with provenance label."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("sample must be a non-empty 1-d array")
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise ValueError("sample values must be positive and finite")
        if np.any(np.diff(v) < 0):
            raise ValueError("sample values must be sorted non-decreasing")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, values, label: str = "") -> "OrderedSample":
        return cls(np.sort(np.asarray(values, dtype=float)), label)

    @property
    def n(self) -> int:
        return self.values.size


# ---------------------------------------------------------------------------
# survival / cdf / density / quantile

def _log_survival(spec: DistributionSpec, x) -> np.ndarray:
    """log S of `spec` at x, from its kernel's logsf."""
    return KERNELS[spec.family].logsf(np.asarray(x, dtype=float), *spec.params)


def _log1mexp(v):
    """log(1 - e**v) for v <= 0: log F from log S, and log S from log F;
    -inf at v = 0."""
    return np.log(-np.expm1(v))


def survival(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    """Survival function exp(log S(x)); 1 below the left endpoint, 0 above a
    finite right endpoint."""
    s = np.exp(_log_survival(spec, x))
    return s if np.ndim(x) else float(s)


def cdf(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    f = 0.0 - np.expm1(_log_survival(spec, x))  # keeps a small F's digits; +0.0 at log S = 0
    return f if np.ndim(x) else float(f)


def density(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    """Probability density; 0 outside the support."""
    d = KERNELS[spec.family].density(np.asarray(x, dtype=float), *spec.params)
    return d if np.ndim(x) else float(d)


def quantile(spec: DistributionSpec, p) -> Union[float, np.ndarray]:
    """Inverse CDF on (0,1); closed form for every family."""
    pv = np.asarray(p, dtype=float)
    if np.any(pv <= 0) or np.any(pv >= 1):
        raise ValueError("quantile probability must lie strictly in (0,1)")
    x = KERNELS[spec.family].quantile(1.0 - pv, *spec.params)
    return x if np.ndim(p) else float(x)


def as_generator(seed) -> np.random.Generator:
    """A Generator from an int, a SeedSequence or a Generator (used as is)."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def draw(spec: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n unsorted inverse-transform draws from `rng`."""
    # keep u away from exact 0 (quantile requires (0,1))
    u = np.clip(rng.random(n), 1e-16, 1.0 - 1e-16)
    # a draw past the float range is inf, which the sample's check refuses
    with np.errstate(over="ignore"):
        return np.asarray(quantile(spec, u))


def sample(spec: DistributionSpec, n: int, seed) -> OrderedSample:
    """Inverse-transform sample of size n, deterministic given seed.

    `seed` may be an int, a SeedSequence or a Generator.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    values = draw(spec, n, as_generator(seed))
    return OrderedSample.from_values(values, label=f"{spec.family.value} sample")


# ---------------------------------------------------------------------------
# numerical CDF inversion

class BracketError(ArithmeticError):
    """Raised when a target probability is not bracketed: F(lo) < p <= F(hi)
    fails for some element."""


# Geometric bisection halves log2(hi/lo), which is at most ~2100 for positive
# doubles, so it takes at most 12 steps to reach a factor-2 bracket; from there
# arithmetic bisection needs at most 53 steps to reach adjacent floats.
_BISECT_MAX_STEPS = 12 + 53 + 1


def invert_cdf(cdf_fn: Callable, p, lo, hi) -> np.ndarray:
    """Smallest float x in (lo, hi] with cdf_fn(x) >= p, for every element of p.

    `cdf_fn` must be elementwise and non-decreasing; `lo` and `hi` are
    positive finite brackets that broadcast against `p`.  Each element is
    bisected to adjacent floats, with geometric midpoints while its bracket
    spans more than a factor of 2 and arithmetic midpoints after, so the
    result for one element does not depend on the others.
    """
    pv = np.asarray(p, dtype=float)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), pv.shape) for b in (lo, hi))
    if not (np.all(lo > 0) and np.all(lo < hi) and np.all(np.isfinite(hi))):
        raise ValueError("bracket must satisfy 0 < lo < hi < inf")
    missed = ~((cdf_fn(lo) < pv) & (pv <= cdf_fn(hi)))
    if np.any(missed):
        raise BracketError(
            f"{int(np.sum(missed))} target(s) outside [F(lo), F(hi)], "
            f"first p={pv[missed].flat[0]}"
        )
    for _ in range(_BISECT_MAX_STEPS):
        mid = np.where(0.5 * hi > lo, np.sqrt(lo) * np.sqrt(hi), lo + 0.5 * (hi - lo))
        if np.all((mid <= lo) | (mid >= hi)):
            break
        up = cdf_fn(mid) >= pv
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return hi


# ---------------------------------------------------------------------------
# plotting positions

def edf_positions(n: int) -> np.ndarray:
    """Vector of plotting positions i/(n+1) for i = 1..n."""
    return np.arange(1, n + 1) / (n + 1)

