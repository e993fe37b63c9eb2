"""Goodness-of-fit diagnostics: the longest-run Monte-Carlo test for a
Pareto tail and Q-Q coordinate generation in three margin systems.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Union

import numpy as np

from .core_dist import DistributionSpec, OrderedSample, cdf, edf_positions, pareto
from .tail_model import AdjustedModel, adjusted_cdf, adjusted_quantile


@dataclass(frozen=True)
class TailTestResult:
    k: int
    m: int
    alpha_hat: float
    sigma: float
    p_value: float
    reps: int
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)


def run_lengths(edf_vals, model_vals) -> dict:
    """Run-length sequence of EDF exceedances over the model CDF.

    l_i counts consecutive positions with EDF > model value; m is the
    longest run.  Ties count as non-exceedance.
    """
    e = np.asarray(edf_vals, dtype=float)
    f = np.asarray(model_vals, dtype=float)
    if e.shape != f.shape:
        raise ValueError("EDF and model vectors must have equal length")
    # the current run length is the running count minus its value at the last
    # non-exceedance
    exceeds = e > f
    s = np.cumsum(exceeds)
    l = s - np.maximum.accumulate(np.where(exceeds, 0, s))
    return {"l": l, "m": int(l.max(initial=0))}


def _longest_runs_rows(indicator: np.ndarray) -> np.ndarray:
    """Longest run of True per row, vectorized over a 2-d boolean array.

    Each row is padded with False on both sides, so in the flattened matrix
    runs start and end at alternating value changes and never cross rows.
    """
    rows, c = indicator.shape
    flat = np.pad(indicator, ((0, 0), (1, 1))).ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = edges[0::2], edges[1::2]
    longest = np.zeros(rows, dtype=np.intp)
    np.maximum.at(longest, starts // (c + 2), ends - starts)
    return longest


def _tail_m(values_sorted: np.ndarray, sigma: float, alpha: float) -> int:
    """Observed longest-run statistic for one ordered tail sample above
    sigma."""
    model = cdf(pareto(alpha, sigma), values_sorted)
    return int(_longest_runs_rows((edf_positions(values_sorted.size) > model)[None, :])[0])


# Size of one float64 matrix of tail-test replicates held at a time.
_BLOCK_BYTES = 4 * 2**20


def _simulated_m(
    rng: np.random.Generator, sims: np.ndarray, sigma: float, gamma_hat: float
) -> np.ndarray:
    """Longest-run statistics of simulated Pareto tails of size k, one per
    row of the C-contiguous rows x (k+1) float buffer `sims`, which it
    overwrites."""
    # mirror the observed procedure: the data tail is the top k of the k+1
    # exceedances above the threshold order statistic, so each replicate
    # draws k+1 and drops the smallest
    rng.random(out=sims)
    np.clip(sims, 1e-16, 1 - 1e-16, out=sims)
    # ratio forms, not the Pareto kernel's sigma*q^(-1/alpha) and
    # (sigma/x)^alpha: those differ in the last bit on many points, which
    # can flip an EDF comparison and move recorded p-values
    np.power(sims, -gamma_hat, out=sims)
    np.multiply(sigma, sims, out=sims)
    sims.sort(axis=1)
    ratio = np.divide(sims[:, 1:], sigma, out=sims[:, 1:])
    # per-replicate Hill re-estimation with the same fixed scale
    gamma_rep = np.mean(np.log(ratio), axis=1)
    model = np.power(ratio, -1.0 / gamma_rep[:, None], out=ratio)
    np.subtract(1.0, model, out=model)
    return _longest_runs_rows(edf_positions(sims.shape[1] - 1)[None, :] > model)


def pareto_tail_test(
    sample: OrderedSample, k: int, reps: int = 10_000, seed: int = 0
) -> TailTestResult:
    """Monte-Carlo test of a simple Pareto law for the k largest losses.

    The Pareto exponent is Hill-estimated with scale fixed at the order
    statistic x_{n-1-k}; each replicate re-estimates the exponent the same
    way before computing its longest-run statistic.
    """
    n = sample.n
    if k < 3:
        raise ValueError("tail size k must be at least 3")
    if k > n - 2:
        raise ValueError(f"k={k} too large for sample size {n}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    sigma = float(sample.values[n - 2 - k])  # x_{n-1-k}, 1-based
    if sigma <= 0:
        raise ValueError("tail threshold must be positive")
    tail = sample.values[n - k :]
    if tail[0] <= sigma:
        _warnings.warn("ties at the tail threshold; test proceeds", stacklevel=2)
        tail = np.maximum(tail, sigma * (1 + 1e-12))
    gamma_hat = float(np.mean(np.log(tail / sigma)))
    alpha_hat = 1.0 / gamma_hat
    m_obs = _tail_m(tail, sigma, alpha_hat)

    rng = np.random.default_rng(seed)
    # replicates are drawn and reduced in row blocks of about _BLOCK_BYTES
    # per (rows x k+1) matrix; the draws equal one reps x (k+1) draw
    rows = max(1, _BLOCK_BYTES // (8 * (k + 1)))
    buf = np.empty((min(rows, reps), k + 1))
    exceed = 0
    for start in range(0, reps, rows):
        m_sim = _simulated_m(rng, buf[: reps - start], sigma, gamma_hat)
        exceed += int(np.sum(m_sim >= m_obs))
    p_value = exceed / reps
    return TailTestResult(k, m_obs, alpha_hat, sigma, p_value, reps, seed)


class Margins(str, Enum):
    ORIGINAL = "original"
    STANDARD_NORMAL = "normal"
    STANDARD_FRECHET = "frechet"


def qq_coordinates(
    sample: OrderedSample,
    model: Union[AdjustedModel, DistributionSpec],
    margins: Margins = Margins.ORIGINAL,
) -> dict:
    """Theoretical/empirical Q-Q coordinate pairs under the chosen margins.

    Points whose transform leaves the representable domain are dropped and
    counted rather than propagated as NaN.
    """
    if isinstance(model, DistributionSpec):
        model = AdjustedModel(model)
    n = sample.n
    pos = edf_positions(n)
    theo_q = adjusted_quantile(model, pos)
    f_emp = np.asarray(adjusted_cdf(model, sample.values))
    if margins == Margins.ORIGINAL:
        theoretical = theo_q
        empirical = sample.values.astype(float)
        keep = np.ones(n, dtype=bool)
    elif margins == Margins.STANDARD_NORMAL:
        # ndtri is norm.ppf bit for bit on (0, 1) without loading scipy.stats
        from scipy.special import ndtri

        keep = (f_emp > 0.0) & (f_emp < 1.0)
        theoretical = ndtri(pos)
        empirical = np.full(n, np.nan)
        empirical[keep] = ndtri(f_emp[keep])
    else:  # standard Frechet: z = -1/ln F
        keep = (f_emp > 0.0) & (f_emp < 1.0)
        theoretical = -1.0 / np.log(pos)
        empirical = np.full(n, np.nan)
        empirical[keep] = -1.0 / np.log(f_emp[keep])
    dropped = int(n - np.sum(keep))
    return {
        "theoretical": theoretical[keep],
        "empirical": empirical[keep],
        "dropped": dropped,
        "margins": margins,
    }
