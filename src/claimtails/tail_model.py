"""Composite claim-size distributions with adjusted upper and lower tails.

The upper tail above x_upper is a discrete mixture of the base survival
function and the survival product base*adjuster (minimum principle applied
with the transition probability).  The lower tail below x_lower is the CDF
product base*adjuster (maximum principle).  Between the thresholds the base
distribution applies unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core_dist import (
    DistributionSpec,
    _log1mexp,
    _log_survival,
    cdf,
    gpd,
    invert_cdf,
    quantile,
    spec_from_dict,
    survival,
)


class ModelInvalidError(ValueError):
    """Raised when an adjusted model violates its structural invariants."""


class ProbeTooFarError(ArithmeticError):
    """Raised when the base survival underflows at the probe point."""


@dataclass(frozen=True)
class UpperAdjustment:
    adjuster: DistributionSpec
    p_upper: float
    x_upper: float


@dataclass(frozen=True)
class LowerAdjustment:
    adjuster: DistributionSpec
    x_lower: float


@dataclass(frozen=True)
class AdjustedModel:
    base: DistributionSpec
    upper: Optional[UpperAdjustment] = None
    lower: Optional[LowerAdjustment] = None

    def __post_init__(self):
        if self.upper is not None:
            u = self.upper
            _check_p_upper(u.p_upper)
            if u.x_upper <= 0:
                raise ModelInvalidError("x_upper must be positive")
            # the upper mixture is defined for unbounded tails only
            if np.isfinite(self.base.right_endpoint):
                raise ModelInvalidError(
                    "base distribution with finite right endpoint cannot take "
                    "an upper adjustment"
                )
            if np.isfinite(u.adjuster.right_endpoint):
                raise ModelInvalidError(
                    "upper adjuster must have an unbounded right tail"
                )
        if self.lower is not None:
            if self.lower.x_lower <= 0:
                raise ModelInvalidError("x_lower must be positive")
        if self.upper is not None and self.lower is not None:
            if not (self.lower.x_lower < self.upper.x_upper):
                raise ModelInvalidError("x_lower must be below x_upper")


def _check_p_upper(p_upper: float) -> None:
    if not (0.0 <= p_upper <= 1.0):
        raise ModelInvalidError(f"p_upper must lie in [0,1], got {p_upper}")


def _lower_gpd_params(gamma_adj: float, x_lower: float) -> tuple:
    """GPD (gamma, sigma, loc) of the lower adjuster with shape gamma_adj < 0,
    its right endpoint pinned at x_lower."""
    if gamma_adj >= 0:
        raise ModelInvalidError("lower GPD adjuster needs gamma < 0")
    return float(gamma_adj), float(-gamma_adj * x_lower), 0.0


def lower_gpd_adjuster(gamma_adj: float, x_lower: float) -> DistributionSpec:
    """GPD lower adjuster with negative shape whose right endpoint is pinned
    at x_lower, so its CDF is exactly 1 on [x_lower, inf)."""
    return gpd(*_lower_gpd_params(gamma_adj, x_lower))


def _tail_log_survival(p, ls_a, ls_b, ls_at):
    """log S(x) - ls_at, from p = p_upper and log S_a and log S_b at x: the
    log of the mixture S_b (p S_a + 1 - p), log S_b + log1p(p (S_a - 1)).
    ls_at = log S_b(x_upper) conditions the law on exceeding x_upper, and
    ls_at = 0 leaves it unconditioned.  At p = 1 the last term is log S_a
    itself, which stays finite where S_a underflows to 0."""
    with np.errstate(divide="ignore"):  # log1p(-1) where S_a underflows at p = 1
        log_m = np.log1p(p * np.expm1(ls_a))
    if np.any(p == 1.0):
        log_m = np.where(p == 1.0, ls_a, log_m)
    return ls_b - ls_at + log_m


def _head_log_cdf(lf_a, lf_b, lf_at):
    """log F(x) - lf_at, the log of the product F_b F_a from log F_a and
    log F_b at x.  lf_at = log F_b(x_lower) conditions the law on falling
    below x_lower, and lf_at = 0 leaves it unconditioned."""
    return lf_b - lf_at + lf_a


def _composite(model: AdjustedModel, x, of_log_s, of_log_f):
    """The composite law at x: of_log_s(log S), with `_tail_log_survival` above
    x_upper, and along the last axis of_log_f(log F) in its place at and below
    x_lower, with `_head_log_cdf`; each branch formula sees its points only."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    log_s = _log_survival(model.base, xv)
    with np.errstate(divide="ignore"):  # the log of a CDF factor of 0
        if model.upper is not None:
            u = model.upper
            tail = xv >= u.x_upper
            log_s[tail] = _tail_log_survival(
                u.p_upper, _log_survival(u.adjuster, xv[tail]), log_s[tail], 0.0)
        out = of_log_s(log_s)
        if model.lower is not None:
            head = xv <= model.lower.x_lower
            out[..., head] = of_log_f(_head_log_cdf(
                _log1mexp(_log_survival(model.lower.adjuster, xv[head])),
                _log1mexp(log_s[head]), 0.0))
    return out.reshape(out.shape[:-1] + np.shape(x)) if np.ndim(x) else float(out[0])


def adjusted_survival(model: AdjustedModel, x) -> Union[float, np.ndarray]:
    """exp(log S), or -expm1(log F) at and below x_lower."""
    return _composite(model, x, np.exp, lambda log_f: 0.0 - np.expm1(log_f))


def adjusted_cdf(model: AdjustedModel, x) -> Union[float, np.ndarray]:
    """-expm1(log S), or exp(log F) at and below x_lower; see `cdf`."""
    return _composite(model, x, lambda log_s: 0.0 - np.expm1(log_s), np.exp)


def adjusted_quantile(model: AdjustedModel, p) -> Union[float, np.ndarray]:
    """Invert the composite CDF at a scalar or an array of probabilities.

    Closed form for an unadjusted model; otherwise each element's bracket
    is doubled until it covers p, then bisected by `invert_cdf`.
    """
    pv = np.asarray(p, dtype=float)
    if not np.all((pv > 0.0) & (pv < 1.0)):
        raise ValueError(f"probability must lie strictly in (0,1), got {p}")
    if model.upper is None and model.lower is None:
        return quantile(model.base, p)
    lo = 1e-12
    hi = np.maximum(quantile(model.base, pv), model.base.left_endpoint + 1.0)
    short = adjusted_cdf(model, hi) < pv
    while np.any(short):
        hi = np.where(short, 2.0 * hi, hi)
        if np.any(hi > 1e300):
            raise ArithmeticError("quantile bracket exceeded float range")
        short = adjusted_cdf(model, hi) < pv
    x = np.full(pv.shape, lo)  # where F(lo) >= p already
    inside = adjusted_cdf(model, lo) < pv
    x[inside] = invert_cdf(lambda t: adjusted_cdf(model, t), pv[inside], lo, hi[inside])
    return x if np.ndim(p) else float(x)


def transition_probability_limit(model: AdjustedModel, x_probe: float) -> float:
    """Distance 1 - S_adjusted(x)/S_base(x), converging to p_upper far in
    the tail once the adjuster survival has vanished."""
    if model.upper is None:
        raise ModelInvalidError("model has no upper adjustment")
    sb = survival(model.base, x_probe)
    if sb <= 0.0 or not np.isfinite(sb):
        raise ProbeTooFarError(f"base survival underflows at x={x_probe}")
    # algebraically 1 - (S_adj*p + (1-p)) = p*(1 - S_adj); avoids the ratio
    u = model.upper
    if x_probe < u.x_upper:
        return 0.0
    return float(u.p_upper * cdf(u.adjuster, x_probe))


def composed_ev_index(gamma_base: float, gamma_adj: float, p_upper: float) -> float:
    """Extreme value index of the adjusted upper tail.

    Below full transition the base index survives; at p_upper = 1 the
    Pareto exponents add, and a Gumbel-domain adjuster kills the index.
    """
    if gamma_base <= 0:
        raise ValueError(f"gamma_base must be positive, got {gamma_base}")
    if gamma_adj < 0:
        raise ValueError(f"gamma_adj must be >= 0, got {gamma_adj}")
    if not (0.0 <= p_upper <= 1.0):
        raise ValueError(f"p_upper must lie in [0,1], got {p_upper}")
    if p_upper < 1.0:
        return gamma_base
    if gamma_adj == 0.0:
        return 0.0
    return 1.0 / (1.0 / gamma_base + 1.0 / gamma_adj)


@dataclass(frozen=True)
class ConditionReport:
    upper_deviation: float
    lower_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.upper_deviation <= self.tol and self.lower_deviation <= self.tol


def validate_conditions(
    model: AdjustedModel, tol: float = 1e-6, grid_size: int = 2000
) -> ConditionReport:
    """Check the no-distortion conditions: the upper adjuster survival must
    be ~1 below x_upper and the lower adjuster CDF ~1 above x_lower."""
    up_dev = 0.0
    lo_dev = 0.0
    if model.upper is not None:
        u = model.upper
        grid = np.geomspace(u.x_upper * 1e-8, u.x_upper, grid_size)
        up_dev = float(np.max(cdf(u.adjuster, grid)))
    if model.lower is not None:
        lo = model.lower
        grid = np.geomspace(lo.x_lower, lo.x_lower * 1e8, grid_size)
        lo_dev = float(np.max(survival(lo.adjuster, grid)))
    return ConditionReport(up_dev, lo_dev, tol)


# ---------------------------------------------------------------------------
# JSON round-tripping

def _spec_to_dict(spec: DistributionSpec) -> dict:
    return {"family": spec.family.value, "params": spec.as_dict()}


def model_to_dict(model: AdjustedModel) -> dict:
    out: dict = {"base": _spec_to_dict(model.base)}
    if model.upper is not None:
        u = model.upper
        out["upper"] = {
            "adjuster": _spec_to_dict(u.adjuster),
            "p_upper": u.p_upper,
            "x_upper": u.x_upper,
        }
    if model.lower is not None:
        lo = model.lower
        out["lower"] = {"adjuster": _spec_to_dict(lo.adjuster), "x_lower": lo.x_lower}
    return out


def model_from_dict(d: dict) -> AdjustedModel:
    try:
        base = spec_from_dict(d["base"]["family"], d["base"]["params"])
        upper = None
        lower = None
        if "upper" in d and d["upper"] is not None:
            u = d["upper"]
            upper = UpperAdjustment(
                spec_from_dict(u["adjuster"]["family"], u["adjuster"]["params"]),
                float(u["p_upper"]),
                float(u["x_upper"]),
            )
        if "lower" in d and d["lower"] is not None:
            lo = d["lower"]
            lower = LowerAdjustment(
                spec_from_dict(lo["adjuster"]["family"], lo["adjuster"]["params"]),
                float(lo["x_lower"]),
            )
    except KeyError as exc:
        raise ModelInvalidError(f"model is missing the key {exc}") from None
    except TypeError as exc:
        raise ModelInvalidError(f"malformed model: {exc}") from None
    return AdjustedModel(base, upper, lower)


def model_to_json(model: AdjustedModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True)


def model_from_json(text: str) -> AdjustedModel:
    return model_from_dict(json.loads(text))
