"""Independent reference computations that tests check closed forms against."""

import math

from scipy.integrate import quad


def quadrature_thinned_cdf(sigma: float, sigma_t: float, x: float) -> float:
    """CDF of filed claims for an exponential(sigma) loss law whose loss of
    size y is filed with probability 1 - exp(-y/sigma_t), by adaptive
    quadrature: the filed-loss density over [0, x], over it on [0, inf)."""

    def filed(y):
        return math.exp(-y / sigma) / sigma * (1.0 - math.exp(-y / sigma_t))

    num, _ = quad(filed, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=200)
    den, _ = quad(filed, 0.0, math.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    return num / den
