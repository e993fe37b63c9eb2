"""Parametric claim-size distribution families and empirical distribution utilities.

Implements the Pareto, generalized Pareto (GPD), exponential, shifted Weibull
and stepped (cascading) Pareto families with CDF/survival/density/quantile
evaluation and inverse-transform sampling, plus rank-based plotting positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Union

import numpy as np


class ParameterError(ValueError):
    """Raised for a parameter vector outside the family's domain."""


class Family(str, Enum):
    PARETO = "pareto"
    GPD = "gpd"
    EXPONENTIAL = "exponential"
    SHIFTED_WEIBULL = "shifted_weibull"
    STEPPED_PARETO = "stepped_pareto"


# Free parameter names per family, in canonical order.
PARAM_NAMES = {
    Family.PARETO: ("alpha", "sigma"),
    Family.GPD: ("gamma", "sigma", "loc"),
    Family.EXPONENTIAL: ("sigma",),
    Family.SHIFTED_WEIBULL: ("shift", "sigma", "beta"),
    Family.STEPPED_PARETO: ("alpha1", "alpha2", "sigma1", "sigma2", "sigma3"),
}


@dataclass(frozen=True)
class DistributionSpec:
    """A tagged parametric family with its parameter vector.

    Use the module-level constructors (`pareto`, `gpd`, ...) rather than
    building instances by hand; they validate the parameter domain.
    """

    family: Family
    params: tuple

    def __post_init__(self):
        p = self.params
        fam = self.family
        n_expected = len(PARAM_NAMES[fam])
        if len(p) != n_expected:
            raise ParameterError(
                f"{fam.value} needs {n_expected} parameters, got {len(p)}"
            )
        if not all(np.isfinite(p)):
            raise ParameterError(f"non-finite parameter in {p}")
        if fam == Family.PARETO:
            alpha, sigma = p
            if alpha <= 0 or sigma <= 0:
                raise ParameterError(f"Pareto needs alpha>0, sigma>0, got {p}")
        elif fam == Family.GPD:
            gamma, sigma, loc = p
            if sigma <= 0:
                raise ParameterError(f"GPD needs sigma>0, got {p}")
            if loc < 0:
                raise ParameterError(f"GPD location must be >=0, got {p}")
        elif fam == Family.EXPONENTIAL:
            if p[0] <= 0:
                raise ParameterError(f"exponential needs sigma>0, got {p}")
        elif fam == Family.SHIFTED_WEIBULL:
            shift, sigma, beta = p
            if shift < 0 or sigma <= 0 or beta <= 0:
                raise ParameterError(
                    f"shifted Weibull needs shift>=0, sigma>0, beta>0, got {p}"
                )
        elif fam == Family.STEPPED_PARETO:
            a1, a2, s1, s2, s3 = p
            if a1 <= 0 or a2 <= 0:
                raise ParameterError(f"stepped Pareto needs alpha1,alpha2>0, got {p}")
            if not (0 < s1 < s2 < s3):
                raise ParameterError(
                    f"stepped Pareto needs 0<sigma1<sigma2<sigma3, got {p}"
                )

    def as_dict(self) -> dict:
        return dict(zip(PARAM_NAMES[self.family], self.params))

    @property
    def left_endpoint(self) -> float:
        fam, p = self.family, self.params
        if fam == Family.PARETO:
            return p[1]
        if fam == Family.GPD:
            return p[2]
        if fam == Family.EXPONENTIAL:
            return 0.0
        if fam == Family.SHIFTED_WEIBULL:
            return p[0]
        return p[2]  # stepped Pareto: sigma1

    @property
    def right_endpoint(self) -> float:
        """Right endpoint of the support; +inf when unbounded."""
        if self.family == Family.GPD:
            gamma, sigma, loc = self.params
            if gamma < 0:
                return loc + sigma / (-gamma)
        return np.inf


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
    values = tuple(float(params[name]) for name in PARAM_NAMES[fam])
    return DistributionSpec(fam, values)


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
    xv = np.asarray(x, dtype=float)
    fam, p = spec.family, spec.params
    if fam == Family.PARETO:
        alpha, sigma = p
        s = np.where(xv < sigma, 1.0, np.power(sigma / np.maximum(xv, sigma), alpha))
    elif fam == Family.GPD:
        gamma, sigma, loc = p
        z = np.maximum(xv - loc, 0.0)
        if gamma == 0.0:
            s = np.exp(-z / sigma)
        else:
            t = np.maximum(1.0 + gamma * z / sigma, 0.0)
            with np.errstate(divide="ignore"):
                s = np.power(t, -1.0 / gamma)
    elif fam == Family.EXPONENTIAL:
        s = np.exp(-np.maximum(xv, 0.0) / p[0])
    elif fam == Family.SHIFTED_WEIBULL:
        shift, sigma, beta = p
        z = np.maximum(xv - shift, 0.0)
        s = np.exp(-np.power(z / sigma, beta))
    else:  # stepped Pareto
        a1, a2, s1, s2, s3 = p
        c2 = (s2 / s1) ** (-a1)
        c3 = c2 * (s3 / s2) ** (-a2)
        xc = np.maximum(xv, s1)
        s = np.where(
            xv <= s2,
            np.power(xc / s1, -a1),
            np.where(xv <= s3, c2 * np.power(xc / s2, -a2), c3 * np.power(xc / s3, -a1)),
        )
        s = np.where(xv < s1, 1.0, s)
    return s if np.ndim(x) else float(s)


def cdf(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    return 1.0 - survival(spec, x)


def density(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    """Probability density; 0 outside the support."""
    xv = np.asarray(x, dtype=float)
    fam, p = spec.family, spec.params
    if fam == Family.PARETO:
        alpha, sigma = p
        d = np.where(
            xv < sigma, 0.0, alpha * sigma**alpha * np.power(np.maximum(xv, sigma), -alpha - 1.0)
        )
    elif fam == Family.GPD:
        gamma, sigma, loc = p
        z = xv - loc
        if gamma == 0.0:
            d = np.where(z < 0, 0.0, np.exp(-np.maximum(z, 0.0) / sigma) / sigma)
        else:
            t = 1.0 + gamma * np.maximum(z, 0.0) / sigma
            inside = (z >= 0) & (t > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.where(inside, np.power(np.maximum(t, 1e-300), -1.0 / gamma - 1.0) / sigma, 0.0)
    elif fam == Family.EXPONENTIAL:
        d = np.where(xv < 0, 0.0, np.exp(-np.maximum(xv, 0.0) / p[0]) / p[0])
    elif fam == Family.SHIFTED_WEIBULL:
        shift, sigma, beta = p
        z = (xv - shift) / sigma
        zc = np.maximum(z, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(
                z < 0,
                0.0,
                beta / sigma * np.power(np.maximum(zc, 1e-300), beta - 1.0) * np.exp(-zc**beta),
            )
    else:  # stepped Pareto: three scaled Pareto density segments
        a1, a2, s1, s2, s3 = p
        c2 = (s2 / s1) ** (-a1)
        c3 = c2 * (s3 / s2) ** (-a2)
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
        d = np.where(xv < s1, 0.0, d)
    return d if np.ndim(x) else float(d)


def quantile(spec: DistributionSpec, p) -> Union[float, np.ndarray]:
    """Inverse CDF on (0,1); closed form for every family."""
    pv = np.asarray(p, dtype=float)
    if np.any(pv <= 0) or np.any(pv >= 1):
        raise ValueError("quantile probability must lie strictly in (0,1)")
    fam, par = spec.family, spec.params
    q = 1.0 - pv  # target survival
    if fam == Family.PARETO:
        alpha, sigma = par
        x = sigma * np.power(q, -1.0 / alpha)
    elif fam == Family.GPD:
        gamma, sigma, loc = par
        if gamma == 0.0:
            x = loc - sigma * np.log(q)
        else:
            x = loc + sigma * (np.power(q, -gamma) - 1.0) / gamma
    elif fam == Family.EXPONENTIAL:
        x = -par[0] * np.log(q)
    elif fam == Family.SHIFTED_WEIBULL:
        shift, sigma, beta = par
        x = shift + sigma * np.power(-np.log(q), 1.0 / beta)
    else:  # stepped Pareto: invert branch by branch
        a1, a2, s1, s2, s3 = par
        c2 = (s2 / s1) ** (-a1)
        c3 = c2 * (s3 / s2) ** (-a2)
        x = np.where(
            q >= c2,
            s1 * np.power(q, -1.0 / a1),
            np.where(
                q >= c3,
                s2 * np.power(q / c2, -1.0 / a2),
                s3 * np.power(q / c3, -1.0 / a1),
            ),
        )
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
