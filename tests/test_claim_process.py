import numpy as np
import pytest
from scipy.stats import kstest

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
