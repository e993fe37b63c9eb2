import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

import claimtails as ct
from claimtails.core_dist import ParameterError

STEPPED = ct.stepped_pareto(1.0, 1.42, 1.0, 11.0, 52.0)

ALL_SPECS = [
    ct.pareto(1.0, 1.0),
    ct.pareto(2.5, 3.0),
    ct.gpd(0.65, 600.0),
    ct.gpd(0.0, 1.0),
    ct.gpd(-0.4, 2.0),
    ct.exponential(1.0),
    ct.shifted_weibull(3.0, 25.0, 2.0),
    STEPPED,
]


class TestCdfSurvival:
    def test_pareto_left_endpoint(self):
        assert ct.cdf(ct.pareto(1.0, 1.0), 1.0) == 0.0
        assert ct.survival(ct.pareto(1.0, 1.0), 1.0) == 1.0

    def test_gpd_exponential_branch(self):
        assert ct.cdf(ct.gpd(0.0, 1.0), 1.0) == pytest.approx(1 - np.exp(-1), abs=1e-12)

    def test_stepped_continuity_both_branches(self):
        # first branch at sigma2 and second branch limit coincide
        a1, a2, s1, s2, s3 = STEPPED.params
        first = (s2 / s1) ** (-a1)
        second = (s2 / s1) ** (-a1) * (s2 / s2) ** (-a2)
        assert first == pytest.approx(second, abs=1e-14)
        assert ct.survival(STEPPED, s2) == pytest.approx(1 / 11, abs=1e-14)
        # continuity at sigma3
        below = ct.survival(STEPPED, s3 * (1 - 1e-12))
        above = ct.survival(STEPPED, s3 * (1 + 1e-12))
        assert below == pytest.approx(above, abs=1e-12)

    def test_pareto_survival(self):
        assert ct.survival(ct.pareto(1.0, 1.0), 10.0) == pytest.approx(0.1, abs=1e-14)

    def test_shifted_weibull_survival(self):
        w = ct.shifted_weibull(3.0, 25.0, 2.0)
        assert ct.survival(w, 3.0) == 1.0
        assert ct.survival(w, 28.0) == pytest.approx(np.exp(-1), abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_cdf_survival_complement(self, spec):
        left = spec.left_endpoint
        xs = left + np.geomspace(1e-6, 100.0, 50) * max(left, 1.0)
        c = np.asarray(ct.cdf(spec, xs))
        s = np.asarray(ct.survival(spec, xs))
        assert np.all(np.abs(c + s - 1.0) < 1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_survival_monotone_with_boundary_values(self, spec):
        right = spec.right_endpoint
        hi = right if np.isfinite(right) else spec.left_endpoint * 100 + 1e4
        xs = np.linspace(max(spec.left_endpoint - 1.0, 0.0), hi, 500)
        s = np.asarray(ct.survival(spec, xs))
        assert np.all(np.diff(s) <= 1e-15)
        assert ct.survival(spec, spec.left_endpoint) == pytest.approx(1.0, abs=1e-12)
        if np.isfinite(right):
            assert ct.survival(spec, right) == pytest.approx(0.0, abs=1e-12)
        else:
            assert ct.survival(spec, 1e15) < 1e-6 or spec.family == ct.Family.PARETO


class TestDensity:
    def test_exponential_at_zero(self):
        assert ct.density(ct.exponential(1.0), 0.0) == pytest.approx(1.0)

    def test_pareto_density(self):
        assert ct.density(ct.pareto(1.0, 1.0), 2.0) == pytest.approx(0.25)

    def test_stepped_density_integrates_to_cdf(self):
        a1, a2, s1, s2, s3 = STEPPED.params
        total, err = quad(lambda x: ct.density(STEPPED, x), s1, s3,
                          points=[s2], limit=200)
        assert total == pytest.approx(ct.cdf(STEPPED, s3), abs=1e-8)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_density_matches_cdf_increment(self, spec):
        a = spec.left_endpoint + 0.5
        b = a + 2.0
        integral, _ = quad(lambda x: ct.density(spec, x), a, b, limit=200)
        assert integral == pytest.approx(
            ct.cdf(spec, b) - ct.cdf(spec, a), abs=1e-8
        )


class TestQuantile:
    def test_pareto(self):
        assert ct.quantile(ct.pareto(1.0, 1.0), 0.9) == pytest.approx(10.0, rel=1e-12)

    def test_gpd_exponential_branch(self):
        assert ct.quantile(ct.gpd(0.0, 2.0), 1 - np.exp(-1)) == pytest.approx(2.0)

    def test_stepped_at_breakpoint(self):
        assert ct.quantile(STEPPED, 1 - 1 / 11) == pytest.approx(11.0, rel=1e-10)

    def test_stepped_bisection_cross_check(self):
        # independent monotone bisection oracle for the branch inversion
        from scipy.optimize import brentq

        for p in [0.3, 1 - 1 / 11, 0.95, 0.999]:
            closed = ct.quantile(STEPPED, p)
            oracle = brentq(lambda x: ct.cdf(STEPPED, x) - p, 1.0, 1e9, rtol=1e-13)
            assert closed == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_roundtrip_grid(self, spec):
        ps = np.arange(0.001, 1.0, 0.001)
        xs = ct.quantile(spec, ps)
        back = np.asarray(ct.cdf(spec, xs))
        assert np.max(np.abs(back - ps)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ct.quantile(ct.pareto(1, 1), 0.0)
        with pytest.raises(ValueError):
            ct.quantile(ct.pareto(1, 1), 1.0)


class TestSample:
    def test_deterministic(self):
        a = ct.sample(ct.gpd(0.3, 2.0), 5, seed=123)
        b = ct.sample(ct.gpd(0.3, 2.0), 5, seed=123)
        np.testing.assert_array_equal(a.values, b.values)
        single = ct.sample(ct.exponential(1.0), 1, seed=9)
        assert single.n == 1

    def test_matches_clipped_inverse_transform(self):
        # pins the draw: uniforms clipped to [1e-16, 1-1e-16], then quantile
        spec = ct.gpd(0.3, 2.0)
        u = np.clip(np.random.default_rng(42).random(1000), 1e-16, 1 - 1e-16)
        want = np.sort(ct.quantile(spec, u))
        np.testing.assert_array_equal(ct.sample(spec, 1000, seed=42).values, want)
        gen = ct.sample(spec, 1000, seed=np.random.default_rng(42))
        np.testing.assert_array_equal(gen.values, want)

    def test_pareto_ks(self):
        spec = ct.pareto(1.0, 1.0)
        n = 10**5
        crit = 1.63 / np.sqrt(n)
        passes = 0
        for seed in (1, 2, 3):
            s = ct.sample(spec, n, seed)
            stat = kstest(s.values, lambda x: ct.cdf(spec, x)).statistic
            passes += stat < crit
        assert passes >= 2

    def test_exponential_mean(self):
        s = ct.sample(ct.exponential(1.0), 10**5, seed=4)
        assert abs(float(np.mean(s.values)) - 1.0) < 0.02

    def test_empirical_quantiles_match(self):
        spec = ct.gpd(0.65, 600.0)
        s = ct.sample(spec, 10**6, seed=5)
        for p in (0.5, 0.9, 0.99):
            emp = float(np.quantile(s.values, p))
            theo = ct.quantile(spec, p)
            assert abs(emp - theo) / theo < 0.01

    def test_log_transform_is_exponential(self):
        # Pareto log-excesses are exponential with scale 1/alpha
        alpha = 2.0
        s = ct.sample(ct.pareto(alpha, 3.0), 10**5, seed=11)
        logs = np.log(s.values / 3.0)
        stat = kstest(logs, lambda x: 1 - np.exp(-alpha * np.maximum(x, 0))).statistic
        assert stat < 1.63 / np.sqrt(10**5)


class TestEdf:
    def test_single_observation(self):
        assert ct.edf_position(1, 1) == 0.5

    def test_large_sample_position(self):
        assert ct.edf_position(9181, 9181) == pytest.approx(9181 / 9182)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ct.edf_position(0, 5)
        with pytest.raises(ValueError):
            ct.edf_position(6, 5)

    @given(st.integers(min_value=2, max_value=10_000))
    def test_strictly_increasing(self, n):
        pos = ct.edf_positions(n)
        assert np.all(np.diff(pos) > 0)
        assert 0 < pos[0] and pos[-1] < 1


class TestMixture:
    def test_endpoints(self):
        f1 = ct.exponential(1.0)
        f2 = ct.pareto(1.0, 1.0)
        assert ct.mixture_cdf(f1, f2, 0.0, 2.0) == ct.cdf(f1, 2.0)
        assert ct.mixture_cdf(f1, f2, 1.0, 2.0) == ct.cdf(f2, 2.0)

    def test_identical_components(self):
        f = ct.exponential(1.0)
        assert ct.mixture_cdf(f, f, 0.081, 1.7) == pytest.approx(ct.cdf(f, 1.7))

    def test_edf_component(self):
        s = ct.OrderedSample.from_values([1.0, 2.0, 3.0])
        assert ct.mixture_cdf(s, s, 0.3, 2.5) == pytest.approx(2 / 4)

    @given(st.floats(min_value=-2, max_value=3))
    def test_bad_probability(self, p):
        if 0 <= p <= 1:
            return
        with pytest.raises(ValueError):
            ct.mixture_cdf(ct.exponential(1.0), ct.exponential(2.0), p, 1.0)


class TestParameterDomain:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ct.pareto(0.0, 1.0),
            lambda: ct.pareto(1.0, -1.0),
            lambda: ct.gpd(0.5, 0.0),
            lambda: ct.exponential(-2.0),
            lambda: ct.shifted_weibull(-1.0, 1.0, 1.0),
            lambda: ct.shifted_weibull(1.0, 1.0, 0.0),
            lambda: ct.stepped_pareto(1.0, 1.0, 2.0, 1.0, 3.0),
        ],
    )
    def test_invalid_parameters_raise(self, build):
        with pytest.raises(ParameterError):
            build()

    def test_gpd_negative_shape_endpoint(self):
        spec = ct.gpd(-0.5, 2.0, loc=1.0)
        assert spec.right_endpoint == pytest.approx(1.0 + 2.0 / 0.5)
        assert ct.cdf(spec, spec.right_endpoint) == 1.0

    def test_ordered_sample_validation(self):
        with pytest.raises(ValueError):
            ct.OrderedSample(np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            ct.OrderedSample.from_values([1.0, -2.0])
        s = ct.OrderedSample.from_values([3.0, 1.0, 1.0], label="ties ok")
        assert s.n == 3 and s.values[0] == 1.0
