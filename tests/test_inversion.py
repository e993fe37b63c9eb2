"""Vectorized CDF inversion: `invert_cdf`, array `adjusted_quantile` and the
thinned-law sampler built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import claimtails as ct

unit = st.floats(min_value=1e-6, max_value=1 - 1e-6)


@st.composite
def composite_models(draw):
    """Continuous composite laws: an upper adjustment, a lower one, or both.

    The upper adjuster is a Weibull shifted to x_upper and the lower one is
    pinned at x_lower, so the composite CDF has no jump at either threshold.
    """
    if draw(st.booleans()):
        base = ct.pareto(draw(st.floats(0.3, 4.0)), draw(st.floats(0.1, 10.0)))
    else:
        base = ct.gpd(draw(st.floats(0.05, 1.5)), draw(st.floats(0.1, 10.0)),
                      loc=draw(st.floats(0.0, 2.0)))
    kind = draw(st.sampled_from(["upper", "lower", "both"]))
    upper = lower = None
    if kind in ("upper", "both"):
        x_upper = ct.quantile(base, draw(st.floats(0.6, 0.99)))
        adjuster = ct.shifted_weibull(x_upper, draw(st.floats(0.5, 100.0)),
                                      draw(st.floats(0.5, 5.0)))
        upper = ct.UpperAdjustment(adjuster, draw(st.floats(0.0, 1.0)), x_upper)
    if kind in ("lower", "both"):
        x_lower = ct.quantile(base, draw(st.floats(0.05, 0.5)))
        lower = ct.LowerAdjustment(
            ct.lower_gpd_adjuster(draw(st.floats(-3.0, -0.05)), x_lower), x_lower)
    return ct.AdjustedModel(base, upper, lower)


probabilities = st.lists(unit, min_size=1, max_size=20).map(np.array)


class TestAdjustedQuantileProperties:
    @settings(max_examples=60, deadline=None)
    @given(composite_models(), probabilities)
    def test_cdf_of_quantile_recovers_p(self, model, p):
        q = ct.adjusted_quantile(model, p)
        assert np.max(np.abs(ct.adjusted_cdf(model, q) - p)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(composite_models(), probabilities)
    def test_non_decreasing(self, model, p):
        p = np.sort(p)
        assert np.all(np.diff(ct.adjusted_quantile(model, p)) >= 0)

    @settings(max_examples=60, deadline=None)
    @given(composite_models(), probabilities)
    def test_array_equals_scalar_calls(self, model, p):
        q = ct.adjusted_quantile(model, p)
        scalars = [ct.adjusted_quantile(model, float(pi)) for pi in p]
        assert all(isinstance(v, float) for v in scalars)
        np.testing.assert_array_equal(q, scalars)

    @settings(max_examples=60, deadline=None)
    @given(composite_models(), unit)
    def test_target_outside_bracket_raises(self, model, p):
        q = ct.adjusted_quantile(model, p)
        cdf = lambda x: ct.adjusted_cdf(model, x)
        with pytest.raises(ct.BracketError):
            ct.invert_cdf(cdf, p, q / 4, q / 2)  # F(hi) < p
        with pytest.raises(ct.BracketError):
            ct.invert_cdf(cdf, p, q, 2 * q)  # F(lo) >= p


class TestInvertCdf:
    def test_adjacent_float_bracket(self):
        # the smallest float with F(x) >= p: its predecessor falls short
        cdf = lambda x: ct.cdf(ct.pareto(1.5, 2.0), x)
        p = np.array([0.1, 0.5, 0.999])
        x = ct.invert_cdf(cdf, p, 1e-12, 1e6)
        assert np.all(cdf(x) >= p)
        assert np.all(cdf(np.nextafter(x, 0)) < p)

    def test_widest_bracket_reaches_adjacent_floats(self):
        # step CDFs jumping at c: the step bound suffices from the smallest
        # subnormal to near the largest double
        c = np.array([1e-320, 1e-300, 1e-12, 1.0, 3.7e150, 1e308])
        step = lambda x: (x >= c).astype(float)
        np.testing.assert_array_equal(ct.invert_cdf(step, np.full(c.size, 0.5), 5e-324, 1.7e308), c)

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            ct.invert_cdf(lambda x: x, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            ct.invert_cdf(lambda x: x, 0.5, 1.0, 0.5)

    def test_quantile_shape_and_domain(self):
        m = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            ct.UpperAdjustment(ct.shifted_weibull(3.0, 25.0, 2.0), 0.5, 3.0),
        )
        q = ct.adjusted_quantile(m, np.array([[0.1, 0.5], [0.9, 0.99]]))
        assert q.shape == (2, 2)
        assert isinstance(ct.adjusted_quantile(m, 0.5), float)
        # F(1e-12) >= p: the lower end of the bracket is returned
        g = ct.AdjustedModel(ct.gpd(0.5, 1.0), m.upper)
        np.testing.assert_array_equal(ct.adjusted_quantile(g, np.array([1e-14, 0.5])) == 1e-12,
                                      [True, False])
        with pytest.raises(ValueError):
            ct.adjusted_quantile(m, np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            ct.adjusted_quantile(m, np.array([np.nan]))


class TestSampleThinned:
    @pytest.mark.parametrize("sigma,sigma_t,seed", [(1.5, 0.7, 21), (1.5, 0.7, 2), (1.0, 1.0, 9)])
    def test_matches_pointwise_brentq(self, sigma, sigma_t, seed):
        n = 3000
        got = ct.sample_thinned(sigma, sigma_t, n, seed).values
        u = np.sort(np.clip(np.random.default_rng(seed).random(n), 1e-12, 1 - 1e-12))
        want = np.array([
            brentq(lambda x, ui=ui: ct.thinned_cdf_closed(sigma, sigma_t, x) - ui, 1e-12, 1e3)
            for ui in u
        ])
        # brentq's own tolerance, plus the width of the run of x over which the
        # computed CDF sits on one float: near the top, F moves by one ulp of u
        # only every spacing(u) / f(x), and brentq may stop anywhere in that run
        rate2 = (sigma + sigma_t) / (sigma * sigma_t)
        density = (sigma + sigma_t) / sigma**2 * (np.exp(-want / sigma) - np.exp(-want * rate2))
        tol = 2e-12 + 4 * np.finfo(float).eps * np.abs(want) + 2 * np.spacing(u) / density
        assert np.all(np.abs(got - want) <= tol)
        # the bisection returns the first float of that run
        F = lambda x: ct.thinned_cdf_closed(sigma, sigma_t, x)
        assert np.all(F(got) >= u) and np.all(F(np.nextafter(got, 0)) < u)

    def test_unbracketed_draw_raises(self):
        # with sigma = 1e6 almost no mass lies below 1e3
        with pytest.raises(ct.BracketError):
            ct.sample_thinned(1e6, 1.0, 10, 0)
