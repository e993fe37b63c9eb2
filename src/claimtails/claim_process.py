"""Generative claim mechanisms: min/max principles, Bernoulli transition
mixing, size-dependent thinning and the inflated point-process demonstration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .core_dist import (
    DistributionSpec,
    Family,
    OrderedSample,
    as_generator,
    cdf,
    density,
    draw,
    invert_cdf,
    pareto,
)
from .tail_model import AdjustedModel


class NumericFailureError(ArithmeticError):
    """Raised when the thinning quadrature cannot reach its tolerance."""


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent random stream `index` derived from a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def sample_min_principle(
    y: DistributionSpec, w: DistributionSpec, n: int, seed
) -> OrderedSample:
    """Draws of min(Y, W); survival function is the product of survivals."""
    rng = as_generator(seed)
    values = np.minimum(draw(y, n, rng), draw(w, n, rng))
    return OrderedSample.from_values(values, label="min principle")


def sample_max_principle(
    y: DistributionSpec, w: DistributionSpec, n: int, seed
) -> OrderedSample:
    """Draws of max(Y, W); CDF is the product of CDFs."""
    rng = as_generator(seed)
    values = np.maximum(draw(y, n, rng), draw(w, n, rng))
    return OrderedSample.from_values(values, label="max principle")


def sample_mechanism(model: AdjustedModel, n: int, seed) -> OrderedSample:
    """Sample the stochastic mechanism behind an adjusted model.

    With probability p_upper the rigorous-management minimum is applied to
    the base draw; a lower adjustment applies the maximum principle to every
    draw.  The result is distributed per the composite adjusted law.
    """
    rng = as_generator(seed)
    x = draw(model.base, n, rng)
    if model.upper is not None:
        u = model.upper
        apply = rng.random(n) < u.p_upper
        w = draw(u.adjuster, n, rng)
        x = np.where(apply, np.minimum(x, w), x)
    if model.lower is not None:
        w = draw(model.lower.adjuster, n, rng)
        x = np.maximum(x, w)
    return OrderedSample.from_values(x, label="mechanism sample")


# ---------------------------------------------------------------------------
# thinning

@dataclass(frozen=True)
class ThinningSpec:
    """Size-dependent claim filing model on the logarithmic loss scale.

    `sigma_t` scales the thinning probability exp(-x/sigma_t) that a loss is
    never filed as a claim; `sigma_t=None` disables thinning entirely.
    """

    base: DistributionSpec
    sigma_t: Optional[float]

    def __post_init__(self):
        if self.sigma_t is not None and self.sigma_t <= 0:
            raise ValueError(f"thinning scale must be positive, got {self.sigma_t}")


def thinning_probability(spec: ThinningSpec, x) -> np.ndarray:
    """Probability that a loss of size x is dropped (never claimed)."""
    if spec.sigma_t is None:
        return np.zeros_like(np.asarray(x, dtype=float))
    return np.exp(-np.asarray(x, dtype=float) / spec.sigma_t)


def thinned_cdf(spec: ThinningSpec, x: float) -> float:
    """CDF of the filed-claim distribution via adaptive quadrature.

    The integrand weights the loss density by the filing (retention)
    probability 1 - exp(-y/sigma_t); this is the weighting under which the
    exponential/exponential case reduces to the printed closed form.
    """
    if x < 0:
        raise ValueError("thinned CDF is defined for x >= 0")
    if x == 0:
        return 0.0
    if spec.sigma_t is None:
        return float(cdf(spec.base, x))
    st = spec.sigma_t

    def integrand(y):
        return density(spec.base, y) * (1.0 - np.exp(-y / st))

    num, err1 = quad(integrand, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=200)
    den, err2 = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    if den <= 0 or err2 > 1e-8 * max(den, 1e-30):
        raise NumericFailureError("thinning normalization integral failed")
    return min(num / den, 1.0)


def thinned_cdf_closed(sigma: float, sigma_t: float, x):
    """Closed-form thinned CDF for an exponential loss law with exponential
    thinning, re-derived from the integral form:

        F(x) = 1 - [(sigma+sigma_t) e^{-x/sigma}
                    - sigma_t e^{-x (sigma+sigma_t)/(sigma sigma_t)}] / sigma

    `x` may be a scalar or an array.
    """
    if sigma <= 0 or sigma_t <= 0:
        raise ValueError("sigma and sigma_t must be positive")
    if np.any(np.asarray(x) < 0):
        raise ValueError("thinned CDF is defined for x >= 0")
    s, st = sigma, sigma_t
    rate2 = (s + st) / (s * st)
    return 1.0 - ((s + st) * np.exp(-x / s) - st * np.exp(-x * rate2)) / s


def sample_thinned(sigma: float, sigma_t: float, n: int, seed) -> OrderedSample:
    """Inverse-transform sample of the closed-form thinned law.

    Uniforms are clipped to [1e-12, 1-1e-12] and inverted on [1e-12, 1e3].
    """
    u = np.clip(as_generator(seed).random(n), 1e-12, 1 - 1e-12)
    values = invert_cdf(lambda x: thinned_cdf_closed(sigma, sigma_t, x), u, 1e-12, 1e3)
    return OrderedSample.from_values(values, label="thinned sample")


# ---------------------------------------------------------------------------
# inflation demonstration

@dataclass(frozen=True)
class InflationScenario:
    """Poisson claim process with power-law intensity and annual inflation."""

    alpha: float
    inflation_factor: float
    years: int
    threshold: float
    base_rate: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.inflation_factor <= 0:
            raise ValueError("inflation factor must be positive")
        if self.years < 1:
            raise ValueError("years must be >= 1")
        if self.threshold <= 0 or self.base_rate <= 0:
            raise ValueError("threshold and base_rate must be positive")


def simulate_inflation_scenario(sc: InflationScenario, seed) -> dict:
    """Simulate claims above the threshold per year, raw and inflated.

    Exceedance sizes of the power-law intensity above threshold u are
    Pareto(alpha, u); annual counts are Poisson with the inflation-scaled
    rate.  Inflated values are scaled from year k to the final year.
    """
    size_spec = pareto(sc.alpha, sc.threshold)
    raw = []
    inflated = []
    for k in range(1, sc.years + 1):
        rng = substream(seed if isinstance(seed, int) else int(seed), k)
        mean_count = sc.base_rate * sc.inflation_factor ** (k - 1)
        count = max(int(rng.poisson(mean_count)), 1)
        values = draw(size_spec, count, rng)
        raw.append(OrderedSample.from_values(values, label=f"year {k} raw"))
        scale = sc.inflation_factor ** (sc.years - k)
        inflated.append(
            OrderedSample.from_values(values * scale, label=f"year {k} inflated")
        )
    return {"raw": raw, "inflated": inflated}
