"""Parametric claim-size distribution families and empirical distribution utilities.

Implements the Pareto, generalized Pareto (GPD), exponential, shifted Weibull
and stepped (cascading) Pareto families with CDF/survival/density/quantile
evaluation and inverse-transform sampling, plus rank-based plotting positions.
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

    `survival(x, *p)`, `density(x, *p)`, `quantile(q, *p)` with q = 1 - probability,
    the endpoints `left(*p)` and `right(*p)`, and `requires`: (predicate, requirement)
    pairs.  `start(values, fixed)` seeds a minimum-AD fit (None: no fitting
    support); `fixed` is what a fit holds constant unless told otherwise.  A
    family with fitting support also has `dlog_survival(x, *p)`, the tuple of
    the partial derivatives of log S(x) by each parameter, in `names` order.
    Its survival and dlog_survival also take (k, 1) parameter columns, one
    candidate per row (see `_power`).
    """

    names: tuple
    requires: tuple
    left: Callable
    survival: Callable
    density: Callable
    quantile: Callable
    start: Optional[Callable] = None
    dlog_survival: Optional[Callable] = None
    right: Callable = lambda *p: np.inf
    fixed: dict = field(default_factory=dict)


def _pareto_start(v, fixed):
    sigma = fixed.get("sigma", float(v[0]) * 0.999)
    logs = np.log(np.maximum(v / sigma, 1.0 + 1e-12))
    return {"alpha": 1.0 / max(float(np.mean(logs)), 1e-6), "sigma": sigma}


def _pareto_dlog_survival(xv, alpha, sigma):
    # a tiny sigma makes sigma/x underflow to 0 and alpha/sigma overflow, where S is 0
    with np.errstate(divide="ignore", over="ignore"):
        return np.log(sigma / np.maximum(xv, sigma)), np.where(xv < sigma, 0.0, alpha / sigma)


def _power(base, exponent):
    """np.power(base, exponent) for a float exponent or a (k, 1) column of them.

    A survival kernel takes its parameters as floats, or as (k, 1) columns of
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


def _gpd_survival(xv, gamma, sigma, loc):
    z = np.maximum(xv - loc, 0.0)
    rows = isinstance(gamma, np.ndarray)  # a column of candidates picks a branch per row
    exponential = gamma == 0.0
    if exponential.all() if rows else exponential:
        return np.exp(-z / sigma)
    t = np.maximum(1.0 + gamma * z / sigma, 0.0)
    # a subnormal gamma gives an infinite exponent, as Python's float division does
    with np.errstate(divide="ignore", over="ignore"):
        s = _power(t, -1.0 / gamma)
    return np.where(exponential, np.exp(-z / sigma), s) if rows and exponential.any() else s


# h(u) = (log1p(u) - u/(1+u)) / u**2 = sum over j >= 2 of (-1)**j (j-1)/j u**(j-2),
# to the u**7 term: below |u| = 1e-2 it is exact to rounding, and the closed
# form, which cancels as u -> 0, has lost at most ~1e-13 relative there
_H_SERIES = tuple((-1) ** j * (j - 1) / j for j in range(9, 1, -1))


def _gpd_dlog_survival(xv, gamma, sigma, loc):
    # log S = -log1p(u)/gamma with u = gamma*r, r = z/sigma: by gamma it is
    # log1p(u)/gamma**2 - r/(gamma*(1+u)) = r**2 h(u), finite through gamma = 0;
    # by sigma r/(sigma*(1+u)), by loc 1/(sigma*(1+u)) above loc
    r = np.maximum(xv - loc, 0.0) / sigma
    u = gamma * r
    # 1 + u <= 0 lies beyond a negative shape's endpoint, where S = 0; u*u
    # underflows to 0 where the series takes over, and the series overflows
    # where the closed form holds
    small = (u < 1e-2) & (u > -1e-2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = (np.log1p(u) - u / (u + 1.0)) / (u * u)
        if small.any():
            hs = _H_SERIES[0]
            for c in _H_SERIES[1:]:
                hs = hs * u + c
            h = np.where(small, hs, h)
        t = 1.0 / ((u + 1.0) * sigma)
    return h * r * r, r * t, np.where(r > 0.0, t, 0.0)


def _gpd_density(xv, gamma, sigma, loc):
    z = xv - loc
    if gamma == 0.0:
        return np.where(z < 0, 0.0, np.exp(-np.maximum(z, 0.0) / sigma) / sigma)
    t = 1.0 + gamma * np.maximum(z, 0.0) / sigma
    inside = (z >= 0) & (t > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inside, np.power(np.maximum(t, 1e-300), -1.0 / gamma - 1.0) / sigma, 0.0)


def _gpd_quantile(q, gamma, sigma, loc):
    if gamma == 0.0:
        return loc - sigma * np.log(q)
    return loc + sigma * (np.power(q, -gamma) - 1.0) / gamma


def _weibull_survival(xv, shift, sigma, beta):
    # y**beta overflows to inf far beyond sigma, where S is 0
    with np.errstate(over="ignore"):
        return np.exp(-_power(np.maximum(xv - shift, 0.0) / sigma, beta))


def _weibull_dlog_survival(xv, shift, sigma, beta):
    # log S = -y**beta with y = (x - shift)/sigma; at y = 0 every derivative is
    # 0 (beta > 0), where y**beta * log y is 0 * -inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = np.maximum(xv - shift, 0.0) / sigma
        u = _power(y, beta)
        d_sigma = beta * u / sigma
        inside = y > 0.0
        return (np.where(inside, d_sigma / y, 0.0), d_sigma,
                np.where(inside, -u * np.log(y), 0.0))


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


def _stepped_levels(a1, a2, s1, s2, s3):
    """Survival c2 = S(sigma2) and c3 = S(sigma3) at the two breaks."""
    c2 = (s2 / s1) ** (-a1)
    c3 = c2 * (s3 / s2) ** (-a2)
    return c2, c3


def _stepped_survival(xv, a1, a2, s1, s2, s3):
    c2, c3 = _stepped_levels(a1, a2, s1, s2, s3)
    xc = np.maximum(xv, s1)
    s = np.where(
        xv <= s2,
        np.power(xc / s1, -a1),
        np.where(xv <= s3, c2 * np.power(xc / s2, -a2), c3 * np.power(xc / s3, -a1)),
    )
    return np.where(xv < s1, 1.0, s)


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
        survival=lambda xv, alpha, sigma: np.where(
            xv < sigma, 1.0, _power(sigma / np.maximum(xv, sigma), alpha)
        ),
        density=lambda xv, alpha, sigma: np.where(
            xv < sigma, 0.0, alpha * sigma**alpha * np.power(np.maximum(xv, sigma), -alpha - 1.0)
        ),
        quantile=lambda q, alpha, sigma: sigma * np.power(q, -1.0 / alpha),
        start=_pareto_start,
        dlog_survival=_pareto_dlog_survival,
    ),
    Family.GPD: Kernel(
        names=("gamma", "sigma", "loc"),
        requires=(
            (lambda gamma, sigma, loc: sigma > 0, "GPD needs sigma>0"),
            (lambda gamma, sigma, loc: loc >= 0, "GPD location must be >=0"),
        ),
        left=lambda gamma, sigma, loc: loc,
        right=lambda gamma, sigma, loc: loc + sigma / (-gamma) if gamma < 0 else np.inf,
        survival=_gpd_survival,
        density=_gpd_density,
        quantile=_gpd_quantile,
        start=lambda v, fixed: {"gamma": 0.5, "sigma": max(float(np.median(v - fixed["loc"])), 1e-12)},
        dlog_survival=_gpd_dlog_survival,
        # the location is a known threshold, never a fitted quantity
        fixed={"loc": 0.0},
    ),
    Family.EXPONENTIAL: Kernel(
        names=("sigma",),
        requires=((lambda sigma: sigma > 0, "exponential needs sigma>0"),),
        left=lambda sigma: 0.0,
        survival=lambda xv, sigma: np.exp(-np.maximum(xv, 0.0) / sigma),
        density=lambda xv, sigma: np.where(xv < 0, 0.0, np.exp(-np.maximum(xv, 0.0) / sigma) / sigma),
        quantile=lambda q, sigma: -sigma * np.log(q),
        start=lambda v, fixed: {"sigma": float(np.mean(v))},
        dlog_survival=lambda xv, sigma: (np.maximum(xv, 0.0) / (sigma * sigma),),
    ),
    Family.SHIFTED_WEIBULL: Kernel(
        names=("shift", "sigma", "beta"),
        requires=((lambda shift, sigma, beta: shift >= 0 and sigma > 0 and beta > 0,
                   "shifted Weibull needs shift>=0, sigma>0, beta>0"),),
        left=lambda shift, sigma, beta: shift,
        survival=_weibull_survival,
        density=_weibull_density,
        quantile=lambda q, shift, sigma, beta: shift + sigma * np.power(-np.log(q), 1.0 / beta),
        start=_weibull_start,
        dlog_survival=_weibull_dlog_survival,
    ),
    Family.STEPPED_PARETO: Kernel(
        names=("alpha1", "alpha2", "sigma1", "sigma2", "sigma3"),
        requires=(
            (lambda a1, a2, s1, s2, s3: a1 > 0 and a2 > 0, "stepped Pareto needs alpha1,alpha2>0"),
            (lambda a1, a2, s1, s2, s3: 0 < s1 < s2 < s3,
             "stepped Pareto needs 0<sigma1<sigma2<sigma3"),
        ),
        left=lambda a1, a2, s1, s2, s3: s1,
        survival=_stepped_survival,
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

def survival(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    """Survival function 1 - F(x); 1 below the left endpoint, 0 above a
    finite right endpoint."""
    s = KERNELS[spec.family].survival(np.asarray(x, dtype=float), *spec.params)
    return s if np.ndim(x) else float(s)


def cdf(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    return 1.0 - survival(spec, x)


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
# empirical distribution

def edf_position(i: int, n: int) -> float:
    """Plotting position i/(n+1) for rank i in a sample of size n."""
    if not (1 <= i <= n):
        raise ValueError(f"rank {i} out of range [1, {n}]")
    return i / (n + 1)


def edf_positions(n: int) -> np.ndarray:
    """Vector of plotting positions i/(n+1) for i = 1..n."""
    return np.arange(1, n + 1) / (n + 1)


def empirical_cdf(sample_: OrderedSample) -> Callable:
    """Step-function EDF based on the i/(n+1) plotting positions."""
    values = sample_.values
    n = sample_.n

    def _cdf(x):
        k = np.searchsorted(values, np.asarray(x, dtype=float), side="right")
        out = k / (n + 1)
        return out if np.ndim(x) else float(out)

    return _cdf


def _as_cdf(f) -> Callable:
    if isinstance(f, DistributionSpec):
        return lambda x, _s=f: cdf(_s, x)
    if isinstance(f, OrderedSample):
        return empirical_cdf(f)
    if callable(f):
        return f
    raise TypeError(f"cannot interpret {type(f)} as a CDF")


def mixture_cdf(f1, f2, p: float, x) -> Union[float, np.ndarray]:
    """Discrete mixture (1-p)*F1(x) + p*F2(x).

    Components may be DistributionSpec, OrderedSample (EDF) or plain callables.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"mixing probability must lie in [0,1], got {p}")
    c1, c2 = _as_cdf(f1), _as_cdf(f2)
    out = (1.0 - p) * np.asarray(c1(x)) + p * np.asarray(c2(x))
    return out if np.ndim(x) else float(out)
