import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import claimtails as ct
from claimtails.core_dist import _log1mexp, _log_survival
from claimtails.tail_model import (
    ModelInvalidError,
    ProbeTooFarError,
    _head_log_cdf,
    _tail_log_survival,
)
from oracles import head_cdf, tail_cdf


def weibull_damped_pareto(p_upper: float) -> ct.AdjustedModel:
    """Pareto(alpha=1, sigma=1) base with the shifted Weibull adjuster
    (shift 3, scale 25, shape 2)."""
    return ct.AdjustedModel(
        ct.pareto(1.0, 1.0),
        ct.UpperAdjustment(ct.shifted_weibull(3.0, 25.0, 2.0), p_upper, 3.0),
    )


class TestAdjustedSurvival:
    def test_full_transition_at_threshold(self):
        m = weibull_damped_pareto(1.0)
        assert ct.adjusted_survival(m, 3.0) == pytest.approx(1 / 3, abs=1e-14)

    def test_zero_transition_equals_base(self):
        m = weibull_damped_pareto(0.0)
        xs = np.geomspace(0.5, 1e4, 200)
        np.testing.assert_allclose(
            np.asarray(ct.adjusted_survival(m, xs)),
            np.asarray(ct.survival(m.base, xs)),
            atol=1e-15,
        )

    def test_half_transition_far_tail_ratio(self):
        m = weibull_damped_pareto(0.5)
        x = 1e4
        ratio = ct.adjusted_survival(m, x) / ct.survival(m.base, x)
        assert ratio == pytest.approx(0.5, abs=1e-6)

    def test_monotone_over_log_grid(self):
        m = ct.AdjustedModel(
            ct.gpd(1.0, 100.0),
            ct.UpperAdjustment(ct.shifted_weibull(800.0, 2000.0, 2.0), 0.6, 800.0),
            ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.7, 30.0), 30.0),
        )
        xs = np.geomspace(1e-2, 1e8, 10**4)
        s = np.asarray(ct.adjusted_survival(m, xs))
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all((s >= 0) & (s <= 1))

    def test_small_head_cdf_keeps_its_digits(self):
        # F = F_b F_a = 2.5e-19 * 2.5e-19; each factor taken as 1 - S would
        # round to 0
        m = ct.AdjustedModel(ct.gpd(1.0, 1.0),
                             lower=ct.LowerAdjustment(ct.lower_gpd_adjuster(-1.0, 1.0), 1.0))
        x = 2.5e-19
        assert ct.adjusted_cdf(m, x) == pytest.approx(6.25e-38, rel=1e-15)
        # conditioned on the head, over F_b(x_lower) = 1/2, in F and in log space
        log_f = _head_log_cdf(*(_log1mexp(_log_survival(spec, v)) for spec, v in
                                ((m.lower.adjuster, x), (m.base, x), (m.base, 1.0))))
        for got in (head_cdf(m, x), np.exp(log_f)):
            assert got == pytest.approx(1.25e-37, rel=1e-15)

    def test_exact_base_between_thresholds(self):
        m = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            ct.UpperAdjustment(ct.shifted_weibull(3.0, 25.0, 2.0), 0.5, 3.0),
            ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.5, 1.5), 1.5),
        )
        xs = np.linspace(1.5, 3.0, 100)
        diff = np.abs(
            np.asarray(ct.adjusted_cdf(m, xs)) - np.asarray(ct.cdf(m.base, xs))
        )
        assert np.max(diff) < 1e-14


@st.composite
def base_laws(draw):
    if draw(st.booleans()):
        return ct.pareto(draw(st.floats(0.3, 4.0)), draw(st.floats(0.1, 10.0)))
    return ct.gpd(draw(st.floats(0.05, 1.5)), draw(st.floats(0.1, 10.0)),
                  loc=draw(st.floats(0.0, 2.0)))


@st.composite
def upper_models(draw):
    base = draw(base_laws())
    x_upper = ct.quantile(base, draw(st.floats(0.6, 0.99)))
    adjuster = ct.shifted_weibull(x_upper, draw(st.floats(0.5, 100.0)), draw(st.floats(0.5, 5.0)))
    return ct.AdjustedModel(base, ct.UpperAdjustment(adjuster, draw(st.floats(0.0, 1.0)), x_upper))


@st.composite
def lower_models(draw):
    base = draw(base_laws())
    x_lower = ct.quantile(base, draw(st.floats(0.05, 0.5)))
    adjuster = ct.lower_gpd_adjuster(draw(st.floats(-3.0, -0.05)), x_lower)
    return ct.AdjustedModel(base, lower=ct.LowerAdjustment(adjuster, x_lower))


class TestConditionalLaws:
    """The oracles `tail_cdf` and `head_cdf` condition the composite law on
    the branch the pipeline fits, in the F domain; the composite law is
    evaluated in log space, so they agree with it within a bound."""

    @settings(max_examples=100)
    @given(upper_models(), st.lists(st.floats(1.0, 100.0, exclude_min=True), min_size=1,
                                    max_size=20).map(np.array))
    def test_tail_cdf_is_survival_ratio(self, m, ratio):
        # S(x_upper) = S_b(x_upper): S_a(x_upper) = 1.  Each survival is
        # exp(log S), off by a few eps per unit of |log S| and of 1/m, m =
        # p S_a + 1 - p (see below), the oracle's products by a few eps, and
        # each 1 - ratio by eps/2
        x = m.upper.x_upper * ratio
        s_x, s_at = ct.adjusted_survival(m, x), ct.adjusted_survival(m, m.upper.x_upper)
        expected = 1.0 - s_x / s_at
        mix = m.upper.p_upper * ct.survival(m.upper.adjuster, x) + (1.0 - m.upper.p_upper)
        eps = np.finfo(float).eps
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = (2.0 - np.log(s_x) - np.log(s_at) + 1.0 / mix) * (s_x / s_at)
        bound = 8 * eps * np.where(s_x > 0.0, rel, 0.0) + eps
        assert np.all(np.abs(tail_cdf(m, x) - expected) <= bound)

    @settings(max_examples=100)
    @given(lower_models(), st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                    min_size=1, max_size=20).map(np.array))
    def test_head_cdf_times_base_cdf_is_composite_cdf(self, m, frac):
        x = m.lower.x_lower * frac
        scaled = head_cdf(m, x) * ct.cdf(m.base, m.lower.x_lower)
        eps = np.finfo(float).eps
        assert np.max(np.abs(scaled - ct.adjusted_cdf(m, x))) <= 4 * eps

    # the pipeline's steps take the fixed base's logs, once per step, and go
    # through the log-space branch formulas; tail_cdf and head_cdf round F
    @settings(max_examples=100)
    @given(upper_models(), st.lists(st.floats(1.0, 100.0), min_size=1,
                                    max_size=20).map(np.array))
    def test_tail_log_survival_matches_tail_cdf(self, m, ratio):
        x = m.upper.x_upper * ratio
        logs = [_log_survival(m.upper.adjuster, x), _log_survival(m.base, x),
                _log_survival(m.base, m.upper.x_upper)]
        log_s = _tail_log_survival(m.upper.p_upper, *logs)
        eps = np.finfo(float).eps
        assert np.all(log_s <= 0.0)
        assert np.max(np.abs(-np.expm1(log_s) - tail_cdf(m, x))) <= 4 * eps
        # the survival ratio itself: each log is off by a few eps of its size,
        # and log1p(p (S_a - 1)) by a few eps of 1/m, m = p S_a + 1 - p
        s = ct.adjusted_survival(m, x) / ct.survival(m.base, m.upper.x_upper)
        scale = 1.0 + sum(np.abs(v) for v in logs)
        mix = m.upper.p_upper * ct.survival(m.upper.adjuster, x) + (1.0 - m.upper.p_upper)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = 16 * eps * (scale + 1.0 / mix) * s
        assert np.all((np.abs(np.exp(log_s) - s) <= bound) | (np.exp(log_s) == s))

    def test_full_transition_keeps_the_adjuster_log(self):
        # at p = 1 the mixture is S_a itself: its log stays finite where S_a
        # underflows to 0
        got = _tail_log_survival(1.0, np.array([-0.5, -800.0]), np.array([-2.0, -3.0]), -1.0)
        np.testing.assert_array_equal(got, [-1.5, -802.0])

    @settings(max_examples=100)
    @given(lower_models(), st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1,
                                    max_size=20).map(np.array))
    def test_head_log_cdf_matches_head_cdf(self, m, frac):
        x = m.lower.x_lower * frac
        with np.errstate(divide="ignore"):  # F_b is 0 at the base's left endpoint
            logs = [_log1mexp(_log_survival(m.lower.adjuster, x)),
                    _log1mexp(_log_survival(m.base, x)),
                    _log1mexp(_log_survival(m.base, m.lower.x_lower))]
        f = head_cdf(m, x)
        log_f = _head_log_cdf(*logs)
        # where head_cdf is positive: each log is off by a few eps of its
        # size, and head_cdf's factors by at most eps absolute
        inside = f > 0.0
        parts = [ct.cdf(m.lower.adjuster, x), ct.cdf(m.base, x), ct.cdf(m.base, m.lower.x_lower)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scale = 1.0 + sum(np.abs(v) + 1.0 / p for v, p in zip(logs, parts))
            bound = 16 * np.finfo(float).eps * scale * f
        assert np.all(np.abs(np.exp(log_f) - f)[inside] <= bound[inside])


class TestAdjustedQuantile:
    def test_unadjusted_uses_base(self):
        m = ct.AdjustedModel(ct.pareto(2.0, 1.0))
        assert ct.adjusted_quantile(m, 0.9) == ct.quantile(ct.pareto(2.0, 1.0), 0.9)

    def test_below_threshold_equals_base(self):
        m = weibull_damped_pareto(1.0)
        p = ct.cdf(m.base, 2.0)  # quantile lands below x_upper
        assert ct.adjusted_quantile(m, p) == pytest.approx(2.0, rel=1e-9)

    def test_forward_evaluation(self):
        m = weibull_damped_pareto(0.5)
        for p in (0.5, 0.9, 0.99, 0.9999):
            x = ct.adjusted_quantile(m, p)
            assert ct.adjusted_cdf(m, x) == pytest.approx(p, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            ct.adjusted_quantile(weibull_damped_pareto(0.5), 1.0)


class TestTransitionProbabilityLimit:
    def test_half(self):
        m = weibull_damped_pareto(0.5)
        assert ct.transition_probability_limit(m, 1e4) == pytest.approx(0.5, abs=1e-6)

    def test_zero(self):
        m = weibull_damped_pareto(0.0)
        for x in (10.0, 1e3, 1e6):
            assert ct.transition_probability_limit(m, x) == 0.0

    def test_monotone_below_one_for_slow_adjuster(self):
        # Pareto adjuster decays slowly: limit approached but not reached
        m = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            ct.UpperAdjustment(ct.pareto(0.5, 2.0), 1.0, 2.0),
        )
        probes = [10.0, 100.0, 1000.0]
        vals = [ct.transition_probability_limit(m, x) for x in probes]
        assert all(v < 1.0 for v in vals)
        assert vals[0] < vals[1] < vals[2]

    def test_probe_too_far(self):
        m = ct.AdjustedModel(
            ct.gpd(0.0, 1.0),
            ct.UpperAdjustment(ct.shifted_weibull(5.0, 10.0, 2.0), 0.5, 5.0),
        )
        with pytest.raises(ProbeTooFarError):
            ct.transition_probability_limit(m, 1e6)

    def test_no_upper_adjustment(self):
        with pytest.raises(ModelInvalidError):
            ct.transition_probability_limit(ct.AdjustedModel(ct.pareto(1, 1)), 10.0)


class TestComposedEvIndex:
    def test_pareto_product(self):
        assert ct.composed_ev_index(1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_partial_transition_keeps_base(self):
        assert ct.composed_ev_index(0.76, 0.3, 0.404) == 0.76
        assert ct.composed_ev_index(0.76, 99.0, 0.404) == 0.76

    def test_gumbel_adjuster_kills_index(self):
        assert ct.composed_ev_index(1.0, 0.0, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            ct.composed_ev_index(0.0, 1.0, 1.0)

    def test_hill_on_pareto_product(self):
        m = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            ct.UpperAdjustment(ct.pareto(1.0, 1.0), 1.0, 1.0),
        )
        s = ct.sample_mechanism(m, 10**6, seed=77)
        est = ct.hill_estimate(s, 10**4)
        assert 0.45 <= est["gamma_hat"] <= 0.55

    def test_mixing_asymptote(self):
        m = weibull_damped_pareto(0.5)
        x = ct.quantile(m.base, 1 - 1e-6)
        assert ct.survival(m.upper.adjuster, x) < 1e-9
        val = ct.transition_probability_limit(m, x)
        assert val == pytest.approx(0.5, abs=1e-3)


class TestValidateConditions:
    def test_shifted_weibull_is_exact(self):
        rep = ct.validate_conditions(weibull_damped_pareto(0.5), tol=1e-12)
        assert rep.upper_deviation == 0.0
        assert rep.passed

    def test_endpoint_pinned_lower_gpd(self):
        m = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            lower=ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.75, 2.0), 2.0),
        )
        rep = ct.validate_conditions(m, tol=1e-12)
        assert rep.lower_deviation == 0.0

    def test_overlapping_adjuster_reports_deviation(self):
        # exponential adjuster has mass below x_upper: condition violated
        m = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            ct.UpperAdjustment(ct.exponential(5.0), 0.5, 3.0),
        )
        rep = ct.validate_conditions(m, tol=1e-6)
        assert rep.upper_deviation > 0.1
        assert not rep.passed


class TestModelValidation:
    def test_bad_p_upper(self):
        with pytest.raises(ModelInvalidError):
            ct.AdjustedModel(
                ct.pareto(1, 1),
                ct.UpperAdjustment(ct.shifted_weibull(3, 25, 2), 1.5, 3.0),
            )

    def test_threshold_order(self):
        with pytest.raises(ModelInvalidError):
            ct.AdjustedModel(
                ct.pareto(1, 1),
                ct.UpperAdjustment(ct.shifted_weibull(3, 25, 2), 0.5, 3.0),
                ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.5, 4.0), 4.0),
            )

    def test_finite_endpoint_rejected_in_upper_mixture(self):
        with pytest.raises(ModelInvalidError):
            ct.AdjustedModel(
                ct.gpd(-0.5, 1.0),
                ct.UpperAdjustment(ct.shifted_weibull(3, 25, 2), 0.5, 3.0),
            )
        with pytest.raises(ModelInvalidError):
            ct.AdjustedModel(
                ct.pareto(1, 1),
                ct.UpperAdjustment(ct.gpd(-0.5, 1.0), 0.5, 3.0),
            )

    def test_lower_gpd_adjuster_requires_negative_shape(self):
        with pytest.raises(ModelInvalidError):
            ct.lower_gpd_adjuster(0.5, 2.0)


class TestSerialization:
    def test_round_trip(self):
        m = ct.AdjustedModel(
            ct.gpd(1.792, 1.122e7),
            ct.UpperAdjustment(ct.shifted_weibull(8e5, 9.144e6, 1.898), 0.661, 8e5),
            ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.75, 3500.0), 3500.0),
        )
        back = ct.model_from_json(ct.model_to_json(m))
        assert back == m

    def test_base_only(self):
        m = ct.AdjustedModel(ct.pareto(1.5, 2.0))
        assert ct.model_from_json(ct.model_to_json(m)) == m


class TestMechanismEquivalence:
    def test_ks_against_analytic(self):
        m = weibull_damped_pareto(0.5)
        n = 10**5
        s = ct.sample_mechanism(m, n, seed=31)
        stat = kstest(s.values, lambda x: ct.adjusted_cdf(m, x)).statistic
        assert stat < 1.63 / np.sqrt(n)
