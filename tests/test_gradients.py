"""Closed-form gradients of the fit objective: the kernels' `log_survival`,
the three steps' chain rules and `mad_objective`'s sum.  Each gradient
matches central differences of the value, a batched row equals the gradient
the candidate gets alone bit for bit, and the extreme candidates a line
search reaches give their limits without a `RuntimeWarning`."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import claimtails as ct
from claimtails.core_dist import KERNELS
from claimtails.estimation import (
    _PENALTY,
    MadConfig,
    Weighting,
    _batch_objective,
    _family_candidates,
    _head_candidates,
    _log1mexp,
    _log_survival,
    _tail_candidates,
)

WEIGHTINGS = st.sampled_from(list(Weighting))


def objective_of(sample, candidates, config):
    """The batch objective, with every `RuntimeWarning` raised as an error."""
    objective = _batch_objective(sample, *candidates, config)
    params_of, model_of = candidates
    i_lo, i_hi = config.resolve_ranks(sample.n)

    def evaluate(thetas):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return objective([list(t) for t in thetas])

    def cdf(theta):
        # one candidate's CDF at the fitted observations, from its log
        columns = np.array([params_of(*theta)]).T[:, :, None]
        return np.exp(model_of(*columns)(sample.values[i_lo - 1 : i_hi])[0][0])

    evaluate.cdf = cdf
    return evaluate


def central_differences(evaluate, theta, steps):
    """Richardson-extrapolated central differences of the value: the error is
    of order step**4, so steps of 1e-3 relative leave rounding in charge."""
    grad = []
    for j, h in enumerate(steps):
        def diff(h):
            up, down = list(theta), list(theta)
            up[j] += h
            down[j] -= h
            (f_up, g_up), (f_down, g_down) = evaluate([up, down])
            assume(g_up is not None and g_down is not None)
            return (f_up - f_down) / (2.0 * h)

        grad.append((4.0 * diff(h / 2.0) - diff(h)) / 3.0)
    return grad


def assert_gradient_matches(evaluate, theta, steps):
    value, grad = evaluate([theta])[0]
    assume(grad is not None)
    # the value takes log F and log(1 - F) of a rounded F: where either is
    # tiny, rounding is rough on the scale of the differences
    cdf = evaluate.cdf(theta)
    assume(min(cdf.min(), 1.0 - cdf.max()) > 1e-6)
    want = central_differences(evaluate, theta, steps)
    # below ~1e-10 |f| / step the differences are rounding noise
    scale = max(max(map(abs, grad)), 1e-10 * max(1.0, abs(value)) / min(steps))
    assert max(abs(g - w) for g, w in zip(grad, want)) <= 1e-5 * scale, (grad, want)


def assert_rows_match_alone(evaluate, thetas):
    together = evaluate(thetas)
    for theta, (value, grad) in zip(thetas, together):
        alone_value, alone_grad = evaluate([theta])[0]
        assert np.float64(value).tobytes() == np.float64(alone_value).tobytes()
        assert np.array(grad, dtype=float).tobytes() == np.array(alone_grad, dtype=float).tobytes()


def relative_steps(theta, rel=1e-3):
    return [rel * max(abs(v), 1e-2) for v in theta]


# (family, fixed, free, a sample, a strategy for one candidate well inside
# the domain, so that the difference points are valid too)
def below_smallest(sample, lo, hi):
    """A strategy for a fraction lo..hi of the sample's smallest value."""
    return st.floats(lo, hi).map(lambda f: f * float(sample.values[0]))


FAMILIES = {
    "pareto": (ct.Family.PARETO, {}, ["alpha", "sigma"],
               ct.sample(ct.pareto(1.5, 1.0), 80, seed=1),
               lambda s: st.tuples(st.floats(0.3, 5.0), below_smallest(s, 0.2, 0.95))),
    "gpd": (ct.Family.GPD, {"loc": 0.0}, ["gamma", "sigma"],
            ct.sample(ct.gpd(0.3, 2.0), 80, seed=2),
            lambda s: st.tuples(st.one_of(st.floats(-0.3, -0.01), st.floats(0.01, 1.5)),
                                st.floats(0.3, 10.0))),
    "exponential": (ct.Family.EXPONENTIAL, {}, ["sigma"],
                    ct.sample(ct.exponential(2.0), 80, seed=3),
                    lambda s: st.tuples(st.floats(0.3, 10.0))),
    "shifted_weibull": (ct.Family.SHIFTED_WEIBULL, {}, ["shift", "sigma", "beta"],
                        ct.sample(ct.shifted_weibull(0.5, 2.0, 0.7), 80, seed=4),
                        lambda s: st.tuples(below_smallest(s, 0.0, 0.9), st.floats(0.3, 10.0),
                                            st.floats(0.3, 5.0))),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_base_gradients_match_differences(name):
    family, fixed, free, sample, candidate = FAMILIES[name]

    @settings(max_examples=40, deadline=None)
    @given(candidate(sample), WEIGHTINGS, st.sampled_from([None, (5, 70)]))
    def check(theta, weighting, rank_range):
        config = MadConfig(weighting=weighting, rank_range=rank_range)
        evaluate = objective_of(sample, _family_candidates(family, fixed, free), config)
        theta = list(theta)
        # the shift's own scale is the smallest observation's
        steps = relative_steps(theta) if name != "shifted_weibull" else (
            [1e-3 * float(sample.values[0])] + relative_steps(theta[1:]))
        assert_gradient_matches(evaluate, theta, steps)

    check()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_base_gradient_rows_match_one_candidate(name):
    family, fixed, free, sample, candidate = FAMILIES[name]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(candidate(sample), min_size=2, max_size=6), WEIGHTINGS)
    def check(thetas, weighting):
        evaluate = objective_of(sample, _family_candidates(family, fixed, free),
                                MadConfig(weighting=weighting))
        assert_rows_match_alone(evaluate, thetas)

    check()


def composite():
    # a fixed base with a few dozen tail points above 10 and a head below 0.2
    truth = ct.AdjustedModel(
        ct.gpd(0.6, 1.0),
        ct.UpperAdjustment(ct.shifted_weibull(10.0, 15.0, 2.0), 0.5, 10.0),
        ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.5, 0.2), 0.2),
    )
    return ct.sample_mechanism(truth, 800, seed=21), truth.base


SAMPLE, BASE = composite()
X_UPPER, X_LOWER = 10.0, 0.2
TAIL = ct.OrderedSample.from_values(SAMPLE.values[SAMPLE.values > X_UPPER], label="upper tail")
HEAD = ct.OrderedSample.from_values(SAMPLE.values[SAMPLE.values < X_LOWER], label="lower head")


def upper_objective(config):
    i_lo, i_hi = config.resolve_ranks(TAIL.n)
    candidates = _tail_candidates(
        X_UPPER, _log_survival(BASE, TAIL.values[i_lo - 1 : i_hi]), _log_survival(BASE, X_UPPER)
    )
    return objective_of(TAIL, candidates, config)


def lower_objective(config):
    i_lo, i_hi = config.resolve_ranks(HEAD.n)
    candidates = _head_candidates(
        X_LOWER, _log1mexp(_log_survival(BASE, HEAD.values[i_lo - 1 : i_hi])),
        _log1mexp(_log_survival(BASE, X_LOWER))
    )
    return objective_of(HEAD, candidates, config)


UPPER_CANDIDATE = st.tuples(st.floats(0.02, 0.98), st.floats(0.6, 10.0), st.floats(1.0, 60.0))
LOWER_CANDIDATE = st.tuples(st.floats(-4.5, -0.05))


@settings(max_examples=80, deadline=None)
@given(UPPER_CANDIDATE, WEIGHTINGS, st.sampled_from([None, (3, 20)]))
def test_upper_step_gradient_matches_differences(theta, weighting, rank_range):
    evaluate = upper_objective(MadConfig(weighting=weighting, rank_range=rank_range))
    assert_gradient_matches(evaluate, list(theta), relative_steps(theta))


@settings(max_examples=80, deadline=None)
@given(LOWER_CANDIDATE, WEIGHTINGS, st.sampled_from([None, (5, 100)]))
def test_lower_step_gradient_matches_differences(theta, weighting, rank_range):
    evaluate = lower_objective(MadConfig(weighting=weighting, rank_range=rank_range))
    assert_gradient_matches(evaluate, list(theta), relative_steps(theta))


@settings(max_examples=40, deadline=None)
@given(st.lists(UPPER_CANDIDATE, min_size=2, max_size=7), st.lists(LOWER_CANDIDATE, min_size=2,
       max_size=7), WEIGHTINGS)
def test_step_gradient_rows_match_one_candidate(uppers, lowers, weighting):
    config = MadConfig(weighting=weighting)
    assert_rows_match_alone(upper_objective(config), uppers)
    assert_rows_match_alone(lower_objective(config), lowers)


@pytest.mark.parametrize("gamma", [1e-300, -1e-300, 1e-12, -1e-12, 1e-6, -1e-6])
def test_gpd_gradient_is_continuous_through_gamma_zero(gamma):
    x = np.geomspace(1e-3, 30.0, 200)
    def dlog(*args):
        return KERNELS[ct.Family.GPD].log_survival(*args)[1]

    at_zero = dlog(x, 0.0, 2.0, 0.0)
    near = dlog(x, gamma, 2.0, 0.0)
    # at gamma = 0, d/dgamma log S = (z/sigma)**2 / 2 and d/dsigma = z/sigma**2
    assert np.array_equal(at_zero[0], (x / 2.0) ** 2 / 2.0)
    # each derivative's first-order change is below 2 |gamma| z/sigma of it
    tol = 1e-15 + 2.0 * abs(gamma) * (x / 2.0)
    for got, want in zip(near, at_zero):
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= tol * np.abs(want) + 1e-300)
    # a column of candidates with gamma = 0 among them gives the same rows
    column = dlog(x, np.array([[gamma], [0.0]]), 2.0, 0.0)
    for rows, alone in zip(column, near):
        assert rows[0].tobytes() == np.broadcast_to(alone, x.shape).tobytes()


def test_gpd_objective_gradient_is_finite_at_gamma_zero():
    family, fixed, free, sample, _ = FAMILIES["gpd"]
    evaluate = objective_of(sample, _family_candidates(family, fixed, free), MadConfig())
    (v0, g0), (v1, g1), (v2, g2) = evaluate([[0.0, 2.0], [1e-6, 2.0], [-1e-6, 2.0]])
    assert all(map(math.isfinite, g0 + g1 + g2))
    for g in (g1, g2):
        assert max(abs(a - b) for a, b in zip(g, g0)) <= 1e-3 * max(map(abs, g0))


def test_overflowing_adjuster_gives_its_limits():
    # sigma 1e-6 and beta 100 make y**beta overflow at every tail point, so the
    # adjuster's survival is 0 there and the tail CDF does not depend on
    # beta or sigma
    weibull = KERNELS[ct.Family.SHIFTED_WEIBULL]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not weibull.survival(TAIL.values, X_UPPER, 1e-6, 100.0).any()
        _, d_sigma, d_beta = weibull.log_survival(TAIL.values, X_UPPER, 1e-6, 100.0)[1]
        # at the shift itself every derivative is 0
        at_shift = weibull.log_survival(np.array([X_UPPER]), X_UPPER, 2.0, 0.7)[1]
    assert np.all(d_beta == -np.inf) and np.all(d_sigma == np.inf)
    assert [float(d[0]) for d in at_shift] == [0.0, 0.0, 0.0]
    for weighting in Weighting:
        value, grad = upper_objective(MadConfig(weighting=weighting))([[0.4, 100.0, 1e-6]])[0]
        assert value != _PENALTY and math.isfinite(value)
        assert grad[1:] == [0.0, 0.0] and math.isfinite(grad[0])


def test_line_search_on_an_extreme_sample_raises_no_warning():
    # the fit whose line search first met the overflow above
    plan = ct.PipelinePlan(ct.Family.GPD, {"loc": 0.0}, x_lower=0.2, x_upper=20.0)
    truth = ct.AdjustedModel(
        ct.gpd(0.6, 1.0),
        ct.UpperAdjustment(ct.shifted_weibull(20.0, 30.0, 2.0), 0.5, 20.0),
        ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.5, 0.2), 0.2),
    )
    for seed in (306, 309):
        sample = ct.sample_mechanism(truth, 2000, seed)
        for weighting in Weighting:
            weighted = replace(plan, **{
                step: replace(getattr(plan, step), weighting=weighting)
                for step in ("base_config", "upper_config", "lower_config")
            })
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                out = ct.fit_pipeline(sample, weighted)
            assert math.isfinite(out.upper_fit.objective_value)
