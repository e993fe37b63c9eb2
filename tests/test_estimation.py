import os
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import claimtails as ct
from claimtails import estimation, resampling
from claimtails.estimation import FitFailedError, LogDomainError, MadConfig, Weighting, mad_weights
from claimtails.tail_model import ModelInvalidError, head_cdf, tail_cdf


def half_cdf(x):
    return np.full_like(np.asarray(x, dtype=float), 0.5)


class TestAdStatistic:
    def test_single_observation_closed_form(self):
        s = ct.OrderedSample.from_values([1.0])
        assert ct.ad_statistic(s, half_cdf) == pytest.approx(2 * np.log(2) - 1)

    def test_brute_force_summation(self):
        rng = np.random.default_rng(42)
        n = 37
        f_vals = np.sort(rng.uniform(0.01, 0.99, n))
        s = ct.OrderedSample.from_values(np.arange(1.0, n + 1.0))
        got = ct.ad_statistic(s, lambda x: f_vals)
        total = 0.0
        for i in range(1, n + 1):
            fi = f_vals[i - 1]
            total += (2 * i - 1) * np.log(fi) + (2 * (n - i) + 1) * np.log(1 - fi)
        assert got == pytest.approx(-n - total / n, rel=1e-12)

    def test_mean_near_one_under_true_model(self):
        n = 10**4
        vals = []
        for seed in range(100):
            u = np.sort(np.random.default_rng(seed).uniform(1e-6, 1 - 1e-6, n))
            s = ct.OrderedSample.from_values(u)
            vals.append(ct.ad_statistic(s, lambda x: x))
        assert 0.8 <= float(np.mean(vals)) <= 1.2

    def test_degenerate_cdf_raises_with_rank(self):
        s = ct.OrderedSample.from_values([0.5, 1.5, 2.5])
        with pytest.raises(LogDomainError) as ei:
            ct.ad_statistic(s, ct.pareto(1.0, 1.0))
        assert ei.value.rank == 1


class TestMadObjective:
    def test_normalized_summand_is_one_at_edf_match(self):
        # sample placed exactly at the order-statistic expectations makes
        # every normalized summand equal 1, so the objective equals n
        spec = ct.gpd(0.5, 2.0)
        for n in (10, 100, 1000):
            pos = ct.edf_positions(n)
            s = ct.OrderedSample.from_values(np.asarray(ct.quantile(spec, pos)))
            obj = ct.mad_objective(s, spec, MadConfig(weighting=Weighting.NORMALIZED))
            assert obj == pytest.approx(n, abs=1e-9)

    def test_unweighted_single_observation(self):
        s = ct.OrderedSample.from_values([1.0])
        obj = ct.mad_objective(s, half_cdf, MadConfig(weighting=Weighting.UNWEIGHTED))
        assert obj == pytest.approx(np.log(0.5))

    def test_sqrt_weights_oracle(self):
        n = 100
        ranks = np.array([1.0, 37.0, 100.0])
        w = mad_weights(Weighting.SQRT_PREFERENCE, ranks, n)
        for j, i in enumerate(ranks):
            p = i / (n + 1)
            denom = i * np.log(p) + (n - i + 1) * np.log(1 - p)
            assert w[j] == pytest.approx(np.sqrt(i) / denom, rel=1e-12)
        assert np.all(w < 0)  # the normalizing denominator is negative

    def test_subrange_uses_global_ranks(self):
        spec = ct.gpd(0.5, 2.0)
        n = 200
        pos = ct.edf_positions(n)
        s = ct.OrderedSample.from_values(np.asarray(ct.quantile(spec, pos)))
        cfg = MadConfig(weighting=Weighting.NORMALIZED, rank_range=(51, 150))
        assert ct.mad_objective(s, spec, cfg) == pytest.approx(100, abs=1e-9)

    def test_invalid_rank_range(self):
        s = ct.OrderedSample.from_values([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ct.mad_objective(s, half_cdf, MadConfig(rank_range=(0, 3)))
        with pytest.raises(ValueError):
            ct.mad_objective(s, half_cdf, MadConfig(rank_range=(2, 5)))

    def test_model_sees_only_the_rank_range(self):
        s = ct.OrderedSample.from_values(np.arange(1.0, 11.0))
        seen = []

        def model(x):
            seen.append(np.array(x))
            return np.where(x == 6.0, 1.0, x / 11.0)

        with pytest.raises(LogDomainError) as info:
            ct.mad_objective(s, model, MadConfig(rank_range=(3, 7)))
        np.testing.assert_array_equal(seen[0], [3.0, 4.0, 5.0, 6.0, 7.0])
        assert info.value.rank == 6  # the global rank, not the position in the range

    def test_out_of_range_degeneracy_is_ignored(self):
        # the benchmark's composite law; the candidate's CDF rounds to 1 at
        # rank 49998, above the first range, and its log survival stays
        # finite there, so both ranges have finite values
        truth = ct.AdjustedModel(
            ct.gpd(0.6, 1.0),
            ct.UpperAdjustment(ct.shifted_weibull(20.0, 30.0, 2.0), 0.5, 20.0),
            ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.5, 0.2), 0.2),
        )
        rng = np.random.default_rng(np.random.SeedSequence([9001, 0]))
        s = ct.sample_mechanism(truth, 50_000, rng)
        candidate = ct.gpd(0.1, 1.0)
        value = ct.mad_objective(s, candidate, MadConfig(rank_range=(8515, 49288)))
        assert np.isfinite(value)
        assert ct.cdf(candidate, s.values[49997]) == 1.0
        whole = ct.mad_objective(s, candidate, MadConfig(rank_range=(8515, 50_000)))
        assert np.isfinite(whole) and whole > value

    def test_cdf_that_rounds_to_one_keeps_a_finite_value(self):
        # a heavy Pareto(0.3) sample under a Pareto(1.5) candidate: F rounds
        # to 1 from rank 99953 on, where log S = 1.5 log(1/x) is finite
        s = ct.sample(ct.pareto(0.3, 1.0), 100_000, seed=1)
        candidate = ct.pareto(1.5, 1.0)
        assert ct.cdf(candidate, s.values[99952]) == 1.0 > ct.cdf(candidate, s.values[99951])
        for weighting in Weighting:
            assert np.isfinite(ct.mad_objective(s, candidate, MadConfig(weighting=weighting)))


def reference_mad_objective(sample, cdf_fn, config):
    """`mad_objective` as written before its rank terms were cached."""
    n = sample.n
    i_lo, i_hi = config.resolve_ranks(n)
    f = np.asarray(cdf_fn(sample.values))[i_lo - 1 : i_hi]
    ranks = np.arange(i_lo, i_hi + 1, dtype=float)
    if config.weighting == Weighting.UNWEIGHTED:
        s = (ranks - 0.5) * np.log(f) + (n - ranks + 0.5) * np.log1p(-f)
        return float(np.sum(s) / n)
    w = mad_weights(config.weighting, ranks, n)
    s = ranks * np.log(f) + (n - ranks + 1) * np.log1p(-f)
    return float(np.sum(w * s))


class TestCachedRankTerms:
    @settings(max_examples=100)
    @given(st.integers(1, 300), st.integers(0, 300), st.integers(0, 200),
           st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_matches_reference_bit_for_bit(self, i_lo, width, extra, gap, seed):
        # two sample sizes share one rank range; alternating sizes, ranges and
        # weightings between calls would expose a stale cache entry
        rng = np.random.default_rng(seed)
        i_hi = i_lo + width
        samples = [
            ct.OrderedSample.from_values(rng.uniform(1e-3, 1 - 1e-3, i_hi + extra + k * gap))
            for k in (0, 1)
        ]
        configs = [
            MadConfig(weighting=w, rank_range=r)
            for r in ((i_lo, i_hi), None) for w in Weighting
        ]
        for s in samples + samples:
            for cfg in configs:
                got = ct.mad_objective(s, lambda x: x, cfg)
                assert got == reference_mad_objective(s, lambda x: x, cfg)

    def test_cached_arrays_are_read_only(self):
        for weighting in Weighting:
            for arr in estimation._rank_terms(50, 3, 40, weighting):
                if arr is not None:
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[0] = 0.0


class TestFitMad:
    def test_gpd_recovery_normalized(self):
        spec = ct.gpd(0.65, 600.0)
        s = ct.sample(spec, 9181, seed=1)
        fit = ct.fit_mad(s, ct.Family.GPD)
        assert abs(fit.theta["gamma"] - 0.65) < 0.05
        assert abs(fit.theta["sigma"] / 600.0 - 1.0) < 0.1
        assert fit.converged

    def test_scale_equivariance(self):
        spec = ct.gpd(0.65, 600.0)
        s = ct.sample(spec, 2000, seed=2)
        s_big = ct.OrderedSample.from_values(s.values * 1000.0)
        f1 = ct.fit_mad(s, ct.Family.GPD)
        f2 = ct.fit_mad(s_big, ct.Family.GPD)
        assert f2.theta["gamma"] == pytest.approx(f1.theta["gamma"], abs=1e-6)
        assert f2.theta["sigma"] / f1.theta["sigma"] == pytest.approx(1000.0, rel=1e-6)

    def test_pareto_fixed_sigma(self):
        spec = ct.pareto(1.4, 2.0)
        s = ct.sample(spec, 4000, seed=3)
        fit = ct.fit_mad(s, ct.Family.PARETO, fixed={"sigma": 2.0})
        assert set(fit.theta) == {"alpha"}
        assert abs(fit.theta["alpha"] - 1.4) < 0.1

    def test_subrange_fit_unbiased(self):
        spec = ct.gpd(0.5, 1.0)
        cfg = MadConfig(rank_range=(201, 1800), restarts=2)
        gammas = []
        for seed in range(50):
            s = ct.sample(spec, 2000, seed=seed)
            gammas.append(ct.fit_mad(s, ct.Family.GPD, config=cfg).theta["gamma"])
        assert abs(float(np.mean(gammas)) - 0.5) < 0.06

    def test_exponential_recovery(self):
        s = ct.sample(ct.exponential(3.0), 5000, seed=4)
        fit = ct.fit_mad(s, ct.Family.EXPONENTIAL)
        assert abs(fit.theta["sigma"] - 3.0) < 0.2

    def test_unweighted_close_to_ml(self):
        spec = ct.gpd(0.65, 600.0)
        s = ct.sample(spec, 9181, seed=1)
        mad = ct.fit_mad(s, ct.Family.GPD, config=MadConfig(weighting=Weighting.UNWEIGHTED))
        ml = ct.fit_gpd_ml(s)
        assert abs(mad.theta["gamma"] - ml["gamma"]) < 0.05

    def test_no_free_parameters(self):
        s = ct.sample(ct.exponential(1.0), 50, seed=0)
        with pytest.raises(ValueError):
            ct.fit_mad(s, ct.Family.EXPONENTIAL, fixed={"sigma": 1.0})

    def test_stepped_pareto_has_no_fitting_support(self):
        s = ct.sample(ct.stepped_pareto(1.0, 1.42, 1.0, 11.0, 52.0), 200, seed=0)
        with pytest.raises(ValueError, match="^no MAD fitting support for family"):
            ct.fit_mad(s, ct.Family.STEPPED_PARETO)

    def test_as_dict(self):
        s = ct.sample(ct.exponential(1.0), 200, seed=0)
        d = ct.fit_mad(s, ct.Family.EXPONENTIAL).as_dict()
        assert {"theta", "objective_value", "converged", "weighting"} <= set(d)

    @pytest.mark.parametrize("family,fixed,error,message", [
        pytest.param(ct.Family.GPD, {"loc": -1.0}, ct.ParameterError,
                     r"^GPD location must be >=0, got \(0\.5, ", id="outside-domain"),
        pytest.param(ct.Family.PARETO, {"sigma": 5.0}, ValueError,
                     r"^pareto left endpoint 5 is not below the smallest fitted observation "
                     r"0\.00\d+ \(rank 1\)$", id="left-endpoint"),
        pytest.param(ct.Family.GPD, {"loc": 0.5}, ValueError,
                     r"^gpd left endpoint 0\.5 is not below", id="gpd-left-endpoint"),
    ])
    def test_bad_fixed_parameter_fails_before_any_restart(self, family, fixed, error, message,
                                                          monkeypatch):
        s = ct.sample(ct.gpd(0.5, 1.0), 600, seed=3)
        monkeypatch.setattr(estimation, "_bfgs_steps", _no_optimizer_run)
        with pytest.raises(error, match=message):
            ct.fit_mad(s, family, fixed)


def _no_optimizer_run(*args, **kwargs):
    raise AssertionError("no optimizer restart expected")


class TestGpdMl:
    def test_recovery(self):
        s = ct.sample(ct.gpd(0.4, 2.0), 20000, seed=5)
        out = ct.fit_gpd_ml(s)
        assert abs(out["gamma"] - 0.4) < 0.03
        assert abs(out["sigma"] - 2.0) < 0.1

    def test_location_validation(self):
        s = ct.sample(ct.gpd(0.4, 2.0), 100, seed=5)
        with pytest.raises(ValueError):
            ct.fit_gpd_ml(s, loc=float(s.values[10]))


class TestHill:
    def test_two_point_oracle(self):
        # single top observation at e times the threshold gives gamma = 1
        s = ct.OrderedSample.from_values([1.0, 1.0, 2.0, 2.0 * np.e])
        out = ct.hill_estimate(s, 1)
        assert out["gamma_hat"] == pytest.approx(1.0)
        assert out["se"] == pytest.approx(1.0)
        assert out["threshold"] == 2.0

    def test_pareto_consistency(self):
        s = ct.sample(ct.pareto(2.0, 1.0), 10**5, seed=6)
        out = ct.hill_estimate(s, 10**4)
        assert abs(out["gamma_hat"] - 0.5) < 3 * out["se"]

    def test_confidence_coverage(self):
        hits = 0
        for seed in range(200):
            s = ct.sample(ct.pareto(1.0, 1.0), 500, seed=seed)
            out = ct.hill_estimate(s, 100)
            hits += abs(out["gamma_hat"] - 1.0) < 1.645 * out["se"]
        assert hits / 200 >= 0.85

    def test_k_domain(self):
        s = ct.sample(ct.pareto(1.0, 1.0), 10, seed=0)
        with pytest.raises(ValueError):
            ct.hill_estimate(s, 0)
        with pytest.raises(ValueError):
            ct.hill_estimate(s, 10)


class TestSpacings:
    def test_pareto_consistency(self):
        s = ct.sample(ct.pareto(1.25, 1.0), 5000, seed=7)
        lo = float(np.quantile(s.values, 0.90))
        out = ct.spacings_estimate(s, (lo, np.inf))
        assert abs(out["gamma_hat"] - 0.8) < 4 * out["se"]

    def test_agrees_with_hill(self):
        s = ct.sample(ct.pareto(1.0, 1.0), 10**4, seed=8)
        k = 1000
        hill = ct.hill_estimate(s, k)
        lo = float(s.values[s.n - k - 1])
        spac = ct.spacings_estimate(s, (lo, np.inf))
        assert abs(hill["gamma_hat"] - spac["gamma_hat"]) < 3 * hill["se"]

    def test_degenerate_ties(self):
        s = ct.OrderedSample.from_values([2.0, 2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            ct.spacings_estimate(s, (1.0, 3.0))

    def test_too_few_in_range(self):
        s = ct.sample(ct.pareto(1.0, 1.0), 100, seed=9)
        with pytest.raises(ValueError):
            ct.spacings_estimate(s, (1e6, 1e7))


def full_recovery_inputs():
    truth = ct.AdjustedModel(
        ct.gpd(1.0, 100.0),
        ct.UpperAdjustment(ct.shifted_weibull(800.0, 2000.0, 2.0), 0.6, 800.0),
        ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.7, 30.0), 30.0),
    )
    s = ct.sample_mechanism(truth, 20000, seed=11)
    return s, ct.PipelinePlan(base_family=ct.Family.GPD, x_lower=30.0, x_upper=800.0)


# recorded with the projected BFGS steps, then with the fit in log space
FULL_RECOVERY_MODEL_JSON = (
    '{"base": {"family": "gpd", "params": {"gamma": 1.008761869415543, "loc": 0.0, '
    '"sigma": 97.58165822626461}}, "lower": {"adjuster": {"family": "gpd", "params": '
    '{"gamma": -0.7314034678146389, "loc": 0.0, "sigma": 21.94210403443917}}, '
    '"x_lower": 30.0}, "upper": {"adjuster": {"family": "shifted_weibull", "params": '
    '{"beta": 1.9317516999358049, "shift": 800.0, "sigma": 2071.5630715434468}}, '
    '"p_upper": 0.6028004564430982, "x_upper": 800.0}}'
)


class TestPipeline:
    def test_base_only(self):
        spec = ct.gpd(0.5, 2.0)
        s = ct.sample(spec, 3000, seed=10)
        plan = ct.PipelinePlan(base_family=ct.Family.GPD)
        out = ct.fit_pipeline(s, plan)
        assert out.model.upper is None and out.model.lower is None
        assert abs(out.model.base.params[0] - 0.5) < 0.08

    @pytest.fixture(scope="class")
    def full_fit(self):
        return ct.fit_pipeline(*full_recovery_inputs())

    def test_full_recovery(self, full_fit):
        out = full_fit
        assert abs(out.model.base.params[0] - 1.0) < 0.1
        assert abs(out.model.upper.p_upper - 0.6) < 0.1
        assert abs(out.lower_fit.theta["gamma_adj_l"] + 0.7) < 0.15
        # the parameter vector the CLI bootstraps, in this key order
        expected = {
            **out.base_fit.theta,
            "p_upper": out.model.upper.p_upper,
            "beta_adj_u": out.upper_fit.theta["beta"],
            "sigma_adj_u": out.upper_fit.theta["sigma"],
            "gamma_adj_l": out.lower_fit.theta["gamma_adj_l"],
        }
        assert list(out.theta.items()) == list(expected.items())

    def test_full_recovery_model_is_reproduced(self, full_fit):
        assert ct.model_to_json(full_fit.model) == FULL_RECOVERY_MODEL_JSON

    def test_bounded_base_rejected_before_upper_fit(self, monkeypatch):
        s = ct.sample(ct.gpd(-0.3, 1.0), 3000, seed=5)
        plan = ct.PipelinePlan(base_family=ct.Family.GPD, x_upper=float(s.values[-40]))
        labels = []
        objective = estimation.mad_objective

        def recording(sample, model, config):
            labels.append(sample.label)
            return objective(sample, model, config)

        monkeypatch.setattr(estimation, "mad_objective", recording)
        with pytest.raises(ModelInvalidError, match="finite right endpoint"):
            ct.fit_pipeline(s, plan)
        assert labels and "upper tail" not in labels

    @staticmethod
    def small_composite():
        truth = ct.AdjustedModel(
            ct.gpd(0.6, 1.0),
            ct.UpperAdjustment(ct.shifted_weibull(10.0, 15.0, 2.0), 0.5, 10.0),
            ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.5, 0.2), 0.2),
        )
        s = ct.sample_mechanism(truth, 800, seed=21)  # 26 tail, 130 head points
        return s, ct.PipelinePlan(base_family=ct.Family.GPD, x_lower=0.2, x_upper=10.0)

    def test_rank_weights_built_once_per_step(self, monkeypatch):
        s, plan = self.small_composite()
        weight_calls = []
        evaluations = []
        weights = estimation.mad_weights
        objective = estimation.mad_objective

        def counting_weights(weighting, ranks, n):
            weight_calls.append(n)
            return weights(weighting, ranks, n)

        def counting_objective(sample, model, config):
            evaluations.append(sample.label)
            return objective(sample, model, config)

        monkeypatch.setattr(estimation, "mad_weights", counting_weights)
        monkeypatch.setattr(estimation, "mad_objective", counting_objective)
        ct.fit_pipeline(s, plan)
        # each step calls the objective more often than it has restarts
        calls = Counter(evaluations)
        assert set(calls) == {s.label, "upper tail", "lower head"}
        assert min(calls.values()) > plan.base_config.restarts
        assert len(weight_calls) <= 3

    def test_bootstrap_replicates_are_reproduced(self):
        # recorded with the projected BFGS steps, the upper step's scan starts
        # and the fit in log space; the first replicate's upper step ends on
        # a ridge at the beta bound, where its value is flat to ~1e-9
        # relative along p_upper, so p_upper is loosely determined; the third
        # ends on the bound too
        recorded = [
            {"gamma": 0.5250016384242905, "sigma": 0.9750144446860092,
             "p_upper": 0.3796112176096061, "beta_adj_u": 100.0,
             "sigma_adj_u": 20.206748695328013, "gamma_adj_l": -0.39131835874713516},
            {"gamma": 0.5184657902836243, "sigma": 1.1099919664713025,
             "p_upper": 0.32992435332611114, "beta_adj_u": 3.802077764957307,
             "sigma_adj_u": 2.9093297608263033, "gamma_adj_l": -0.24972074618225634},
            {"gamma": 0.6700798774502413, "sigma": 0.908677630171837,
             "p_upper": 0.5668012456788248, "beta_adj_u": 100.0,
             "sigma_adj_u": 11.83439524354227, "gamma_adj_l": -0.48666580250583014},
        ]
        s, plan = self.small_composite()
        for workers in (1, 2, 3):
            out = resampling.bootstrap_fit(
                s, lambda r: ct.fit_pipeline(r, plan).theta, 3, 5, keep_replicates=True,
                workers=workers,
            )
            assert out.replicates == recorded, f"workers={workers}"

    def test_fitted_parameters_stay_inside_their_bounds(self):
        # the bootstrap's third replicate (seed 5): its upper step ends on the
        # beta bound, which maps to transformed space and back a rounding step
        # above 100
        s, plan = self.small_composite()
        idx = ct.substream(5, 2).integers(0, s.n, size=s.n)
        out = ct.fit_pipeline(ct.OrderedSample.from_values(s.values[idx]), plan)
        hi = plan.upper_config.bounds["beta"][1]
        assert out.upper_fit.theta["beta"] == hi
        assert out.theta["beta_adj_u"] == hi
        for start, end, _, _ in out.upper_fit.restarts:
            assert start["beta"] <= hi and end["beta"] <= hi

    def test_adjuster_steps_honour_their_rank_range(self):
        # the base values computed once per step cover the fitted ranks only
        s, plan = self.small_composite()
        plan = replace(plan, upper_config=replace(plan.upper_config, rank_range=(3, 20)),
                       lower_config=replace(plan.lower_config, rank_range=(5, 100)))
        out = ct.fit_pipeline(s, plan)
        tail = ct.OrderedSample.from_values(s.values[s.values > plan.x_upper])
        head = ct.OrderedSample.from_values(s.values[s.values < plan.x_lower])
        upper = ct.AdjustedModel(out.model.base, ct.UpperAdjustment(
            ct.shifted_weibull(plan.x_upper, out.upper_fit.theta["sigma"],
                               out.upper_fit.theta["beta"]),
            out.upper_fit.theta["p_upper"], plan.x_upper))
        lower = ct.AdjustedModel(out.model.base, lower=out.model.lower)
        assert out.upper_fit.objective_value == ct.mad_objective(
            tail, partial(tail_cdf, upper), plan.upper_config)
        assert out.lower_fit.objective_value == ct.mad_objective(
            head, partial(head_cdf, lower), plan.lower_config)

    def test_swapped_thresholds_are_named(self):
        s, _ = self.small_composite()
        plan = ct.PipelinePlan(base_family=ct.Family.GPD, x_lower=5.0, x_upper=2.0)
        with pytest.raises(ValueError, match=r"^x_lower \(5\.0\) must be below x_upper \(2\.0\)$"):
            ct.fit_pipeline(s, plan)

    def test_rank_range_outside_thresholds_is_named(self):
        s = ct.sample(ct.gpd(0.5, 2.0), 600, seed=17)
        plan = ct.PipelinePlan(
            base_family=ct.Family.GPD,
            x_lower=float(s.values[10]),
            x_upper=float(s.values[400]),
            base_config=MadConfig(rank_range=(590, 600)),
        )
        with pytest.raises(ValueError, match=r"rank range \(590, 600\) contains none of "
                                             r"the ranks 11\.\.401 between the thresholds"):
            ct.fit_pipeline(s, plan)

    @pytest.mark.parametrize("rank_range", [None, (3, 40)])
    def test_head_below_the_base_support_is_named(self, rank_range, monkeypatch):
        # a GPD base located at 0.5 gives the head below it probability 0
        s = ct.sample(ct.gpd(0.5, 2.0), 600, seed=3)
        lower_config = replace(ct.PipelinePlan.lower_config, rank_range=rank_range)
        plan = ct.PipelinePlan(ct.Family.GPD, {"loc": 0.5}, x_lower=0.7,
                               lower_config=lower_config)
        rank = rank_range[0] if rank_range else 1
        runs = []
        steps = estimation._bfgs_steps
        monkeypatch.setattr(estimation, "_bfgs_steps",
                            lambda *args: runs.append(args) or steps(*args))
        with pytest.raises(ValueError, match=(
            rf"^the smallest fitted head observation {s.values[rank - 1]:g} \(rank {rank}\) "
            r"is not above the base's left endpoint 0\.5$"
        )):
            ct.fit_pipeline(s, plan)
        assert len(runs) == plan.base_config.restarts  # the base step's only

    def test_sparse_tail_warns_and_skips(self):
        s = ct.sample(ct.gpd(0.5, 2.0), 500, seed=12)
        plan = ct.PipelinePlan(
            base_family=ct.Family.GPD, x_upper=float(s.values[-1]) * 2
        )
        out = ct.fit_pipeline(s, plan)
        assert out.model.upper is None
        assert any("upper step skipped" in w for w in out.warnings)


def _no_fork(*args, **kwargs):
    raise AssertionError("no process expected")


# the composite law of the benchmark's inputs: a GPD base, a shifted-Weibull
# upper adjuster mixed in with p_upper 0.5 above 20, a lower adjuster below 0.2
BENCH_LAW = ct.AdjustedModel(
    ct.gpd(0.6, 1.0),
    ct.UpperAdjustment(ct.shifted_weibull(20.0, 30.0, 2.0), 0.5, 20.0),
    ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.5, 0.2), 0.2),
)


class TestUpperScan:
    """The upper step's grid scan and the restarts it adds."""

    @pytest.mark.parametrize("seed,weighting,recorded", [
        (12, Weighting.UNWEIGHTED, -16.68348453116333),
        (1018, Weighting.UNWEIGHTED, -16.744207029127935),
        (2005, Weighting.NORMALIZED, 15.13078526481886),
        (2015, Weighting.UNWEIGHTED, -21.140126720242016),
        (2015, Weighting.NORMALIZED, 42.2887481679251),
        (2015, Weighting.SQRT_PREFERENCE, 185.9220481019744),
        (2019, Weighting.NORMALIZED, 22.363677112448713),
    ])
    def test_upper_step_reaches_the_recorded_basins(self, seed, weighting, recorded):
        # upper-step values the adaptive Nelder-Mead reached on these samples:
        # a steep adjuster between two tail points, or one collapsed just above
        # x_upper with p_upper near 0.02, basins that the perturbed restarts
        # alone miss by 1.5e-4 to 7.5e-3 relative; the bases differ from
        # Nelder-Mead's by ~1e-9, so the bar is 1e-7
        config = MadConfig(weighting=weighting)
        plan = ct.PipelinePlan(
            ct.Family.GPD, x_lower=0.2, x_upper=20.0, base_config=config,
            upper_config=replace(config, bounds={"beta": (0.5, 100.0)}),
            lower_config=replace(config, bounds={"gamma_adj_l": (-5.0, -0.01)}),
        )
        s = ct.sample_mechanism(BENCH_LAW, 2000, seed)
        value = ct.fit_pipeline(s, plan).upper_fit.objective_value
        direction = -1.0 if weighting == Weighting.UNWEIGHTED else 1.0
        assert direction * (value - recorded) <= 1e-7 * abs(recorded)

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_starts_are_the_lowest_grid_minima(self, weighting):
        # every grid point's value from the one-candidate model, then the
        # points none of whose up to 26 grid neighbours is lower
        s, plan = TestPipeline.small_composite()
        base = ct.gpd(0.6, 1.0)
        tail = ct.OrderedSample.from_values(s.values[s.values > 10.0], label="upper tail")
        config = MadConfig(weighting=weighting)
        excess = tail.values - 10.0
        sigmas = [float(np.sqrt(a * b)) for a, b in zip(excess[:-1], excess[1:])] + [2 * excess[-1]]
        grid = [estimation._SCAN_P, estimation._SCAN_BETA, sigmas]
        direction = -1.0 if weighting == Weighting.UNWEIGHTED else 1.0

        def value(i, j, k):
            model = ct.AdjustedModel(base, ct.UpperAdjustment(
                ct.shifted_weibull(10.0, grid[2][k], grid[1][j]), grid[0][i], 10.0))
            return direction * estimation.mad_objective(tail, lambda x: tail_cdf(model, x), config)

        shape = [len(axis) for axis in grid]
        values = {at: value(*at) for at in np.ndindex(*shape)}
        offsets = [np.subtract(d, 1) for d in np.ndindex(3, 3, 3) if d != (1, 1, 1)]
        minima = [at for at in values
                  if all(values.get(tuple(np.add(at, d)), np.inf) >= values[at] for d in offsets)]
        minima.sort(key=lambda at: values[at])
        lowest = minima[: estimation._SCAN_STARTS]
        want = [[grid[0][i], grid[1][j], grid[2][k]] for i, j, k in lowest]
        ls_tail = estimation._log_survival(base, tail.values)
        ls_at = estimation._log_survival(base, 10.0)
        assert estimation._tail_scan(10.0, tail.values, ls_tail, ls_at, config) == want


class TestRestartWorkers:
    """Each step's restarts run in lockstep in this process."""

    @pytest.mark.parametrize("weighting", [Weighting.NORMALIZED, Weighting.UNWEIGHTED])
    def test_restart_record(self, weighting):
        s, plan = TestPipeline.small_composite()
        plan = replace(plan, base_config=MadConfig(weighting=weighting))
        out = ct.fit_pipeline(s, plan)
        for step in ("base_fit", "upper_fit", "lower_fit"):
            fit = getattr(out, step)
            # the upper step adds a restart at each of its scan's lowest grid minima
            scan = estimation._SCAN_STARTS if step == "upper_fit" else 0
            assert len(fit.restarts) == fit.config.restarts + scan
            assert sum(nfev for *_, nfev in fit.restarts) == fit.evaluations
            direction = -1.0 if fit.config.weighting == Weighting.UNWEIGHTED else 1.0
            best = min(fit.restarts, key=lambda restart: direction * restart[2])
            assert best[2] == fit.objective_value and best[1] == fit.theta
            assert all(list(start) == list(fit.theta) for start, *_ in fit.restarts)
            assert "restarts" not in fit.as_dict()

    @pytest.mark.parametrize("restarts", [1, 5])
    def test_every_restart_penalised(self, restarts, monkeypatch):
        objective = estimation.mad_objective

        def out_of_domain(sample, model, config):
            # every candidate's CDF is 1 at every fitted observation
            def ones(x):
                log_f, log_s, dlog = model(x)
                return np.zeros_like(log_f), np.full_like(log_s, -np.inf), dlog

            return objective(sample, ones, config)

        monkeypatch.setattr(estimation, "mad_objective", out_of_domain)
        s = ct.sample(ct.gpd(0.5, 1.0), 200, seed=0)
        with pytest.raises(FitFailedError,
                           match="^every optimizer restart ended in the penalty region$"):
            ct.fit_mad(s, ct.Family.GPD, config=MadConfig(restarts=restarts))

    @pytest.mark.parametrize("restarts", [1, 5])
    def test_fit_starts_no_process(self, restarts, monkeypatch):
        monkeypatch.setattr(os, "fork", _no_fork)
        s = ct.sample(ct.gpd(0.5, 1.0), 200, seed=0)
        fit = ct.fit_mad(s, ct.Family.GPD, config=MadConfig(restarts=restarts))
        assert fit.evaluations > 0
