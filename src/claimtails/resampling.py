"""Bootstrap standard errors, percentile confidence regions, and
degenerate-fit accounting for the estimation closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .claim_process import substream
from .core_dist import OrderedSample
from .estimation import P_UPPER_TOL


class BootstrapFailedError(RuntimeError):
    """Every bootstrap replicate failed to fit."""


@dataclass(frozen=True)
class BootstrapSummary:
    B: int
    standard_errors: dict
    intervals: dict  # name -> (lower, upper)
    level: float
    p_upper_at_zero_fraction: float
    p_upper_at_one_fraction: float
    failed: int
    seed: int
    replicates: list  # each fitted replicate's theta, in replicate order

    def as_dict(self) -> dict:
        return {
            "B": self.B,
            "standard_errors": dict(self.standard_errors),
            "intervals": {k: list(v) for k, v in self.intervals.items()},
            "level": self.level,
            "p_upper_at_zero_fraction": self.p_upper_at_zero_fraction,
            "p_upper_at_one_fraction": self.p_upper_at_one_fraction,
            "failed": self.failed,
            "seed": self.seed,
        }


def _replicate(sample: OrderedSample, fit_closure: Callable, seed: int, b: int):
    """Fit replicate `b`: its theta as plain floats, or None if the fit raised."""
    rng = substream(seed, b)
    idx = rng.integers(0, sample.n, size=sample.n)
    resample = OrderedSample.from_values(sample.values[idx], label=f"replicate {b}")
    try:
        theta = fit_closure(resample)
    except Exception:
        return None
    return {k: float(v) for k, v in theta.items()}


def bootstrap_fit(
    sample: OrderedSample,
    fit_closure: Callable,
    B: int,
    seed: int,
    level: float = 0.90,
    workers: int = 1,
) -> BootstrapSummary:
    """Nonparametric bootstrap of any fitting closure.

    `fit_closure(OrderedSample) -> dict[str, float]`; replicates that raise
    are excluded and counted.  The full sample is resampled with
    replacement; per-replicate resampling streams derive deterministically
    from the seed, so the result does not depend on `workers`.

    With `workers > 1`, up to `min(workers, B)` processes (this one and
    forked children, see `fork_map`) share the replicates, so `fit_closure`
    must be a pure function of its resample.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    # imported here: its process pool imports cost every other command ~15 ms
    from .parallel import fork_map

    results = fork_map(partial(_replicate, sample, fit_closure, seed), B, workers)
    params_per_rep = [theta for theta in results if theta is not None]
    failed = B - len(params_per_rep)
    if not params_per_rep:
        raise BootstrapFailedError("all bootstrap replicates failed")

    names = sorted({k for theta in params_per_rep for k in theta})
    se = {}
    intervals = {}
    lo_q = 100 * (1 - level) / 2
    hi_q = 100 - lo_q
    for name in names:
        vals = np.array([t[name] for t in params_per_rep if name in t])
        se[name] = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        intervals[name] = (
            float(np.percentile(vals, lo_q)),
            float(np.percentile(vals, hi_q)),
        )
    p_vals = np.array([t["p_upper"] for t in params_per_rep if "p_upper" in t])
    if p_vals.size:
        at0 = float(np.mean(p_vals <= P_UPPER_TOL))
        at1 = float(np.mean(p_vals >= 1.0 - P_UPPER_TOL))
    else:
        at0 = at1 = 0.0
    return BootstrapSummary(
        B=B,
        standard_errors=se,
        intervals=intervals,
        level=level,
        p_upper_at_zero_fraction=at0,
        p_upper_at_one_fraction=at1,
        failed=failed,
        seed=seed,
        replicates=params_per_rep,
    )
