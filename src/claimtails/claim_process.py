"""Generative claim mechanisms: min/max principles, Bernoulli transition
mixing, size-dependent thinning and the inflated point-process demonstration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_dist import (
    DistributionSpec,
    OrderedSample,
    as_generator,
    draw,
    invert_cdf,
    pareto,
)
from .tail_model import AdjustedModel


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

def thinned_cdf_closed(sigma: float, sigma_t: float, x):
    """Closed-form thinned CDF for an exponential(sigma) loss law whose loss
    of size y is filed as a claim with probability 1 - exp(-y/sigma_t): the
    loss density times that probability, integrated over [0, x] and
    normalised by its integral over [0, inf), is

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
