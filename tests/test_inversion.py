"""Vectorized CDF inversion: `invert_cdf` and array `adjusted_quantile`."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

# Near x_upper a Weibull adjuster with beta < 1 makes F rise by 6e-9 in one
# float step, so no float q has |F(q) - p| <= 1e-12 at p = 0.6.
_STEEP_BASE = ct.gpd(1.5, 1.0)
_STEEP_X_UPPER = ct.quantile(_STEEP_BASE, 0.6)
STEEP_AT_THRESHOLD = ct.AdjustedModel(_STEEP_BASE, ct.UpperAdjustment(
    ct.shifted_weibull(_STEEP_X_UPPER, 1.0, 0.5), 1.0, _STEEP_X_UPPER))


class TestAdjustedQuantileProperties:
    @settings(max_examples=60)
    @given(composite_models(), probabilities)
    @example(STEEP_AT_THRESHOLD, np.array([0.6]))
    def test_cdf_of_quantile_recovers_p(self, model, p):
        # the inverter's contract: q is the smallest float with F(q) >= p
        q = ct.adjusted_quantile(model, p)
        at = np.asarray(ct.adjusted_cdf(model, q))
        below = np.asarray(ct.adjusted_cdf(model, np.nextafter(q, 0)))
        assert np.all(below < p) and np.all(p <= at)
        # |F(q) - p| <= 1e-12 wherever one float step of F at q is that fine
        fine = at - below <= 1e-12
        assert np.all(np.abs(at - p)[fine] <= 1e-12)

    @settings(max_examples=60)
    @given(composite_models(), probabilities)
    def test_non_decreasing(self, model, p):
        p = np.sort(p)
        assert np.all(np.diff(ct.adjusted_quantile(model, p)) >= 0)

    @settings(max_examples=60)
    @given(composite_models(), probabilities)
    def test_array_equals_scalar_calls(self, model, p):
        q = ct.adjusted_quantile(model, p)
        scalars = [ct.adjusted_quantile(model, float(pi)) for pi in p]
        assert all(isinstance(v, float) for v in scalars)
        np.testing.assert_array_equal(q, scalars)

    @settings(max_examples=60)
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
