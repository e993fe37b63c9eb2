"""Bootstrap standard errors, percentile confidence regions, and
degenerate-fit accounting for the estimation closures.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .claim_process import substream
from .core_dist import OrderedSample

# transition probabilities within this distance of 0/1 count as boundary fits
DEGENERACY_TOL = 1e-3


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
    replicates: Optional[list] = None

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


# (sample, fit_closure, seed); set only inside forked pool workers
_worker_args = None


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _run_chunk(indices: range) -> list:
    return [_replicate(*_worker_args, b) for b in indices]


def _run_replicates(sample, fit_closure, B: int, seed: int, workers: int) -> list:
    """Per-replicate results in replicate order, None for a failed fit.

    Replicates are cut into `workers` contiguous chunks; this process runs
    the first and forked workers the rest.  Under `fork` the pool's initargs
    are inherited rather than pickled, so the closure may be a lambda; only
    index ranges and theta dicts cross process boundaries.
    """
    workers = min(workers, B)
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_replicate(sample, fit_closure, seed, b) for b in range(B)]
    bounds = [B * w // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(
        workers - 1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(sample, fit_closure, seed),
    ) as pool:
        futures = [
            pool.submit(_run_chunk, range(bounds[w], bounds[w + 1]))
            for w in range(1, workers)
        ]
        results = [_replicate(sample, fit_closure, seed, b) for b in range(bounds[1])]
        for future in futures:
            results.extend(future.result())
    return results


def bootstrap_fit(
    sample: OrderedSample,
    fit_closure: Callable,
    B: int,
    seed: int,
    level: float = 0.90,
    keep_replicates: bool = False,
    workers: int = 1,
) -> BootstrapSummary:
    """Nonparametric bootstrap of any fitting closure.

    `fit_closure(OrderedSample) -> dict[str, float]`; replicates that raise
    are excluded and counted.  The full sample is resampled with
    replacement; per-replicate resampling streams derive deterministically
    from the seed, so the result does not depend on `workers`.

    With `workers > 1`, up to `min(workers, B)` processes (this one and
    forked children) share the replicates, so `fit_closure` must be a pure
    function of its resample.  Where the platform cannot fork, replicates
    run serially.  A worker that dies raises `BrokenProcessPool`, a
    `RuntimeError`.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    results = _run_replicates(sample, fit_closure, B, seed, workers)
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
        at0 = float(np.mean(p_vals <= DEGENERACY_TOL))
        at1 = float(np.mean(p_vals >= 1.0 - DEGENERACY_TOL))
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
        replicates=params_per_rep if keep_replicates else None,
    )
