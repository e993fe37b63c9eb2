import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

import claimtails as ct
from oracles import quadrature_thinned_cdf


class TestPrinciples:
    def test_min_of_two_exponentials(self):
        # min(Exp(1), Exp(1)) is Exp with rate 2
        n = 10**5
        s = ct.sample_min_principle(ct.exponential(1.0), ct.exponential(1.0), n, 3)
        stat = kstest(s.values, lambda x: 1 - np.exp(-2 * x)).statistic
        assert stat < 1.63 / np.sqrt(n)

    def test_max_of_two_exponentials(self):
        # max(Exp(1), Exp(1)) has cdf (1 - e^-x)^2
        n = 10**5
        s = ct.sample_max_principle(ct.exponential(1.0), ct.exponential(1.0), n, 3)
        stat = kstest(s.values, lambda x: (1 - np.exp(-x)) ** 2).statistic
        assert stat < 1.63 / np.sqrt(n)

    def test_survival_product_identity(self):
        # empirical survival of the min matches the product of survivals
        y, w = ct.pareto(1.0, 1.0), ct.shifted_weibull(0.0, 5.0, 2.0)
        s = ct.sample_min_principle(y, w, 10**5, 8)
        xs = np.array([1.5, 2.0, 3.0, 5.0])
        emp = np.array([np.mean(s.values > x) for x in xs])
        theo = np.asarray(ct.survival(y, xs)) * np.asarray(ct.survival(w, xs))
        assert np.max(np.abs(emp - theo)) < 0.01


class TestMechanism:
    @pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
    def test_ks_against_composite_cdf(self, seed):
        rng = np.random.default_rng(seed)
        p = float(rng.uniform(0.2, 0.9))
        x_up = float(rng.uniform(2.0, 6.0))
        x_lo = float(rng.uniform(0.3, 1.0))
        m = ct.AdjustedModel(
            ct.pareto(float(rng.uniform(0.8, 2.0)), 0.2),
            ct.UpperAdjustment(
                ct.shifted_weibull(x_up, float(rng.uniform(5.0, 30.0)), 2.0), p, x_up
            ),
            ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.6, x_lo), x_lo),
        )
        n = 2 * 10**4
        s = ct.sample_mechanism(m, n, seed)
        stat = kstest(s.values, lambda x: ct.adjusted_cdf(m, x)).statistic
        # 1% critical value; all five fixed seeds pass comfortably
        assert stat < 1.63 / np.sqrt(n)

    def test_generator_seed_accepted(self):
        m = ct.AdjustedModel(ct.pareto(1.0, 1.0))
        g1 = ct.sample_mechanism(m, 10, np.random.default_rng(5))
        g2 = ct.sample_mechanism(m, 10, np.random.default_rng(5))
        np.testing.assert_array_equal(g1.values, g2.values)


NON_FINITE_SCALES = [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)]


class TestThinning:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sigma_t", [0.5, 1.0, 2.0])
    def test_quadrature_matches_closed_form(self, sigma, sigma_t):
        for x in (0.1, 0.5, 1.0, 2.5, 8.0):
            assert quadrature_thinned_cdf(sigma, sigma_t, x) == pytest.approx(
                ct.thinned_cdf_closed(sigma, sigma_t, x), abs=1e-8
            )

    def test_unit_scales_equal_max_principle(self):
        # sigma = sigma_t = 1 collapses to the max of two unit exponentials
        xs = np.linspace(0.05, 10.0, 80)
        closed = np.array([ct.thinned_cdf_closed(1.0, 1.0, x) for x in xs])
        np.testing.assert_allclose(closed, (1 - np.exp(-xs)) ** 2, atol=1e-12)

    def test_thinned_stochastically_larger(self):
        # removing small losses shifts the claim distribution upward
        for x in (0.2, 1.0, 3.0):
            assert ct.thinned_cdf_closed(1.0, 1.0, x) < ct.cdf(ct.exponential(1.0), x)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ct.thinned_cdf_closed(1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            ct.thinned_cdf_closed(1.0, 1.0, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            ct.thinned_cdf_closed(1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            ct.thinned_cdf_closed(1.0, -1.0, 2.0)

    @pytest.mark.parametrize("sigma,sigma_t", NON_FINITE_SCALES)
    def test_non_finite_scales(self, sigma, sigma_t):
        with pytest.raises(ValueError, match="^sigma and sigma_t must be positive and finite$"):
            ct.thinned_cdf_closed(sigma, sigma_t, 1.0)


class TestSampleThinned:
    @pytest.mark.parametrize("sigma,sigma_t,seed", [
        (1.0, 1.0, 0), (0.5, 2.0, 1), (2.0, 0.5, 2), (1.5, 0.7, 3), (1e6, 1.0, 4),
    ])
    def test_ks_against_closed_form(self, sigma, sigma_t, seed):
        n = 20_000
        s = ct.sample_thinned(sigma, sigma_t, n, seed)
        stat = kstest(s.values, lambda x: ct.thinned_cdf_closed(sigma, sigma_t, x)).statistic
        assert stat < 1.63 / np.sqrt(n)

    @pytest.mark.parametrize("sigma,sigma_t", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
    def test_equal_in_law_to_the_filing_mechanism(self, sigma, sigma_t):
        # losses Exp(sigma), each filed as a claim with probability
        # 1 - exp(-y/sigma_t)
        rng = np.random.default_rng(5)
        losses = rng.exponential(sigma, 60_000)
        filed = losses[rng.random(losses.size) < -np.expm1(-losses / sigma_t)]
        drawn = ct.sample_thinned(sigma, sigma_t, 20_000, 6).values
        stat = ks_2samp(filed, drawn).statistic
        assert stat < 1.63 * np.sqrt((filed.size + drawn.size) / (filed.size * drawn.size))

    def test_large_scale_draws(self):
        # nearly all the mass lies above 1e3, which bounded inversion missed
        s = ct.sample_thinned(1e6, 1.0, 10, 0)
        assert s.n == 10 and np.all(np.diff(s.values) >= 0) and s.values[0] > 0

    @pytest.mark.parametrize("sigma,sigma_t", [(1.0, -2.0), (-1.0, 2.0), (0.0, 1.0), (1.0, 0.0)])
    def test_domain_errors(self, sigma, sigma_t):
        # (1, -2) would give the second exponential a positive mean, 2
        with pytest.raises(ValueError, match="sigma and sigma_t must be positive"):
            ct.sample_thinned(sigma, sigma_t, 10, 0)

    @pytest.mark.parametrize("sigma,sigma_t", NON_FINITE_SCALES)
    def test_non_finite_scales(self, sigma, sigma_t):
        with pytest.raises(ValueError, match="^sigma and sigma_t must be positive and finite$"):
            ct.sample_thinned(sigma, sigma_t, 10, 0)


class TestSubstream:
    def test_deterministic_and_distinct(self):
        a = ct.substream(7, 3).random(5)
        b = ct.substream(7, 3).random(5)
        c = ct.substream(7, 4).random(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestInflation:
    def scenario(self, factor):
        return ct.InflationScenario(
            alpha=1.5, inflation_factor=factor, years=10, threshold=1.0, base_rate=300.0
        )

    def test_factor_one_identity(self):
        out = ct.simulate_inflation_scenario(self.scenario(1.0), 12)
        for raw, infl in zip(out["raw"], out["inflated"]):
            np.testing.assert_array_equal(raw.values, infl.values)

    def test_structure(self):
        out = ct.simulate_inflation_scenario(self.scenario(1.05), 12)
        assert len(out["raw"]) == 10 and len(out["inflated"]) == 10
        for raw, infl in zip(out["raw"], out["inflated"]):
            assert raw.n == infl.n

    def test_reproducible(self):
        a = ct.simulate_inflation_scenario(self.scenario(1.05), 12)
        b = ct.simulate_inflation_scenario(self.scenario(1.05), 12)
        np.testing.assert_array_equal(a["inflated"][3].values, b["inflated"][3].values)

    @staticmethod
    def _tail_gamma(values, threshold):
        tail = values[values > threshold]
        g = float(np.mean(np.log(tail / threshold)))
        return g, g / np.sqrt(tail.size)

    def test_inflated_tail_keeps_exponent(self):
        # re-thresholding the inflated pool at the final-year level recovers
        # a Pareto tail with the original exponent
        sc = self.scenario(1.05)
        u_max = sc.threshold * sc.inflation_factor ** (sc.years - 1)
        out = ct.simulate_inflation_scenario(sc, 21)
        pooled = np.concatenate([s.values for s in out["inflated"]])
        g, se = self._tail_gamma(pooled, u_max)
        assert abs(g - 1 / sc.alpha) < 3 * se

    def test_exponent_unbiased_over_seeds(self):
        sc = self.scenario(1.05)
        u_max = sc.threshold * sc.inflation_factor ** (sc.years - 1)
        gs = []
        for seed in range(20):
            out = ct.simulate_inflation_scenario(sc, seed)
            pooled = np.concatenate([s.values for s in out["inflated"]])
            gs.append(self._tail_gamma(pooled, u_max)[0])
        assert abs(float(np.mean(gs)) - 1 / sc.alpha) < 0.05

    def test_rethresholding_costs_precision(self):
        # the inflated pool keeps fewer exceedances above the final-year
        # threshold than the raw pool above the original one
        sc = self.scenario(1.05)
        u_max = sc.threshold * sc.inflation_factor ** (sc.years - 1)
        out = ct.simulate_inflation_scenario(sc, 30)
        raw = np.concatenate([s.values for s in out["raw"]])
        infl = np.concatenate([s.values for s in out["inflated"]])
        _, se_raw = self._tail_gamma(raw, sc.threshold)
        _, se_infl = self._tail_gamma(infl, u_max)
        assert se_infl > se_raw

    def test_invalid_scenario(self):
        with pytest.raises(ValueError):
            ct.InflationScenario(0.0, 1.05, 10, 1.0, 300.0)
        with pytest.raises(ValueError):
            ct.InflationScenario(1.5, 1.05, 0, 1.0, 300.0)

    @pytest.mark.parametrize("years", [math.nan, 2.5])
    def test_years_must_be_an_integer(self, years):
        with pytest.raises(ValueError, match=f"^years must be an integer >= 1, got {years}$"):
            ct.InflationScenario(1.5, 1.05, years, 1.0, 300.0)

    @pytest.mark.parametrize("factor,years,base_rate", [
        (100.0, 10, 100.0),  # 1.01e20 claims
        (1e300, 10**6, 1.0),  # factor**years overflows a float
        (1.0, 10**5, 101.0),  # 1.01e7 claims at a flat rate
    ])
    def test_too_many_expected_claims_are_refused(self, factor, years, base_rate):
        with pytest.raises(ValueError) as info:
            ct.InflationScenario(1.5, factor, years, 1.0, base_rate)
        message = str(info.value)
        for name in ("inflation_factor", "years", "base_rate"):
            assert name in message
        assert "more than 10,000,000" in message

    def test_expected_claims_below_the_cap_pass(self):
        # 0.5 ** (k-1) sums to just under 2: 4.9e6 * 2 claims stay below 1e7
        ct.InflationScenario(1.5, 0.5, 60, 1.0, 4.9e6)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["alpha", "inflation_factor", "threshold", "base_rate"])
    def test_non_finite_scenario(self, name, value):
        given = dict(alpha=1.5, inflation_factor=1.05, years=10, threshold=1.0, base_rate=300.0)
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            ct.InflationScenario(**{**given, name: value})
