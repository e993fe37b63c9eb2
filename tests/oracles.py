"""Independent reference computations that tests check closed forms against."""

import math

import numpy as np
from scipy.integrate import quad

from claimtails import estimation
from claimtails.core_dist import KERNELS, OrderedSample, cdf, edf_positions, survival
from claimtails.estimation import MadConfig
from claimtails.gof import _longest_runs_rows


def _upper_survival(p, s_a, s_b):
    """Survival S_b*(p*S_a + 1-p) above x_upper, from p = p_upper and the
    adjuster and base survivals S_a and S_b at x."""
    return s_b * (p * s_a + (1.0 - p))


def _lower_cdf(f_a, f_b):
    """CDF F_b*F_a below x_lower, from the adjuster and base CDFs at x."""
    return f_b * f_a


def quadrature_thinned_cdf(sigma: float, sigma_t: float, x: float) -> float:
    """CDF of filed claims for an exponential(sigma) loss law whose loss of
    size y is filed with probability 1 - exp(-y/sigma_t), by adaptive
    quadrature: the filed-loss density over [0, x], over it on [0, inf)."""

    def filed(y):
        return math.exp(-y / sigma) / sigma * (1.0 - math.exp(-y / sigma_t))

    num, _ = quad(filed, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=200)
    den, _ = quad(filed, 0.0, math.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    return num / den


def tail_cdf(model, x):
    """CDF of the law conditioned on exceeding x_upper, 1 - S(x)/S_b(x_upper),
    for x >= x_upper (the adjuster leaves S(x_upper) = S_b(x_upper)), in the
    F domain that the log-space `_tail_log_survival` replaces."""
    u = model.upper
    s_x = _upper_survival(u.p_upper, survival(u.adjuster, x), survival(model.base, x))
    return 1.0 - s_x / survival(model.base, u.x_upper)


def head_cdf(model, x):
    """CDF of the law conditioned on falling below x_lower, F(x)/F_b(x_lower),
    for x <= x_lower, in the F domain that the log-space `_head_log_cdf`
    replaces.
    """
    lo = model.lower
    return _lower_cdf(cdf(lo.adjuster, x), cdf(model.base, x)) / cdf(model.base, lo.x_lower)


def pareto_simulated_m(rng, sims, sigma, gamma_hat):
    """Longest-run statistics of tail-test replicates computed on the Pareto
    scale: each row of `sims` (overwritten) becomes k+1 Pareto(1/gamma_hat,
    sigma) draws, the smallest is dropped, gamma is Hill re-estimated at
    sigma, and the EDF positions are compared with 1 - (X/sigma)^(-1/gamma)."""
    rng.random(out=sims)
    np.clip(sims, 1e-16, 1 - 1e-16, out=sims)
    np.power(sims, -gamma_hat, out=sims)
    np.multiply(sigma, sims, out=sims)
    sims.sort(axis=1)
    ratio = np.divide(sims[:, 1:], sigma, out=sims[:, 1:])
    gamma_rep = np.mean(np.log(ratio), axis=1)
    model = np.power(ratio, -1.0 / gamma_rep[:, None], out=ratio)
    np.subtract(1.0, model, out=model)
    return _longest_runs_rows(edf_positions(sims.shape[1] - 1)[None, :] > model)


def five_start_fit_mad(sample, family, fixed=None, config=MadConfig()):
    """`fit_mad` from five starts, its x0 and four perturbations of it, as
    the base step ran before it ran from one start; the best run wins."""
    kernel = KERNELS[family]
    fixed = {**kernel.fixed, **(fixed or {})}
    free = [nm for nm in kernel.names if nm not in fixed]
    start = kernel.start(sample.values, fixed)
    candidates = estimation._family_candidates(family, fixed, free)
    return estimation._fit_generic(sample, candidates, free, {nm: start[nm] for nm in free},
                                   config, perturbed=4)


def five_start_lower_fit(sample, plan, base):
    """`fit_pipeline`'s lower step under the fixed `base`, from five starts,
    as it ran before it ran from one start."""
    head = OrderedSample.from_values(sample.values[sample.values < plan.x_lower])
    lf_head = estimation._log1mexp(estimation._log_survival(base, head.values))
    lf_at = estimation._log1mexp(estimation._log_survival(base, plan.x_lower))
    return estimation._fit_generic(
        head, estimation._head_candidates(plan.x_lower, lf_head, lf_at), ["gamma_adj_l"],
        {"gamma_adj_l": -0.5}, MadConfig(plan.config.weighting), {"gamma_adj_l": (-5.0, -0.01)},
        perturbed=4,
    )
