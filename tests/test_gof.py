import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import claimtails as ct
from claimtails import gof
from claimtails.estimation import hill_mean
from claimtails.gof import Margins, _longest_runs_rows
from oracles import pareto_simulated_m


def longest_run_loop(ind):
    best = run = 0
    for b in ind:
        run = run + 1 if b else 0
        best = max(best, run)
    return best


class TestRunLengths:
    def test_known_pattern(self):
        edf = np.array([0.2, 0.2, 0.5, 0.6, 0.7])
        model = np.array([0.1, 0.3, 0.4, 0.5, 0.6])
        out = ct.run_lengths(edf, model)
        np.testing.assert_array_equal(out["l"], [1, 0, 1, 2, 3])
        assert out["m"] == 3

    def test_all_below(self):
        out = ct.run_lengths([0.1, 0.2], [0.5, 0.6])
        assert out["m"] == 0

    def test_ties_do_not_count(self):
        out = ct.run_lengths([0.5, 0.5], [0.5, 0.4])
        np.testing.assert_array_equal(out["l"], [0, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ct.run_lengths([0.1], [0.1, 0.2])

    def test_brute_force_random_vectors(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            size = int(rng.integers(1, 60))
            e = rng.random(size)
            f = rng.random(size)
            assert ct.run_lengths(e, f)["m"] == longest_run_loop(e > f)

    def test_vectorized_rows_match_loop(self):
        rng = np.random.default_rng(7)
        ind = rng.random((300, 40)) < 0.5
        got = _longest_runs_rows(ind)
        want = np.array([longest_run_loop(row) for row in ind])
        np.testing.assert_array_equal(got, want)

    @given(hnp.arrays(np.bool_, st.tuples(st.integers(1, 40), st.integers(1, 60))))
    @example(np.ones((4, 7), dtype=bool))
    @example(np.zeros((4, 7), dtype=bool))
    @example(np.array([[True], [False], [True], [True]]))
    # a run reaching a row's last column, then a row starting with True
    @example(np.array([[False, True, True], [True, True, False], [True, False, True]]))
    def test_rows_match_loop_property(self, ind):
        got = _longest_runs_rows(ind)
        want = np.array([longest_run_loop(row) for row in ind])
        np.testing.assert_array_equal(got, want)


# SHA-256 prefixes of repr(pareto_tail_test(...).as_dict()), recorded before
# the replicate path was rewritten; reps are given relative to the row block
_GOLDEN_REPS = {
    "1": lambda rows: 1,
    "rows-1": lambda rows: rows - 1,
    "rows": lambda rows: rows,
    "2rows+17": lambda rows: 2 * rows + 17,
    "10000": lambda rows: 10_000,
}
_GOLDEN_TAIL_TESTS = {
    ('pareto', 3, '1', 4): '9df95e66a499623b',
    ('pareto', 3, '1', 11): 'fe5453676d836f1d',
    ('pareto', 3, 'rows-1', 4): '709b3c90d4e7795a',
    ('pareto', 3, 'rows-1', 11): 'c7d3ef76c5a027a2',
    ('pareto', 3, 'rows', 4): 'fffa68bdea9d183d',
    ('pareto', 3, 'rows', 11): 'a51eba9c6d1c4bf8',
    ('pareto', 3, '2rows+17', 4): '8835122452aa893a',
    ('pareto', 3, '2rows+17', 11): 'd2436a3ac667feb0',
    ('pareto', 3, '10000', 4): '7714dbaa7846dc48',
    ('pareto', 3, '10000', 11): 'ed101260c6ff7f77',
    ('pareto', 50, '1', 4): '54ae24910c992f91',
    ('pareto', 50, '1', 11): '25b855dd0ae627a7',
    ('pareto', 50, 'rows-1', 4): '5aeff5caf572461b',
    ('pareto', 50, 'rows-1', 11): 'b487ca27d2b6720f',
    ('pareto', 50, 'rows', 4): 'e2c714162dd3512e',
    ('pareto', 50, 'rows', 11): '99927bb54ea434f7',
    ('pareto', 50, '2rows+17', 4): 'e6adec8b1cd1c6db',
    ('pareto', 50, '2rows+17', 11): '870282b8d086ebeb',
    ('pareto', 50, '10000', 4): '7bb18bf7bf3bfb5c',
    ('pareto', 50, '10000', 11): 'cb79ea7f603f30d0',
    ('pareto', 500, '1', 4): 'f986c6826b20584b',
    ('pareto', 500, '1', 11): '1bb938fa357e900d',
    ('pareto', 500, 'rows-1', 4): '166ac5a62827e7f1',
    ('pareto', 500, 'rows-1', 11): 'a5d9ad28ae788899',
    ('pareto', 500, 'rows', 4): 'fd1db23829610867',
    ('pareto', 500, 'rows', 11): '7120a6cc73e84924',
    ('pareto', 500, '2rows+17', 4): 'c20878666bd7c2fc',
    ('pareto', 500, '2rows+17', 11): '5f000edef8962256',
    ('pareto', 500, '10000', 4): '9607618ad768610e',
    ('pareto', 500, '10000', 11): 'd90909a38927f8b6',
    ('ties', 6, '1', 4): 'b12ae5d3e0fd9002',
    ('ties', 6, '1', 11): '4c98181b4210fbd8',
    ('ties', 6, 'rows-1', 4): 'c21c5e9bc70ca081',
    ('ties', 6, 'rows-1', 11): '875752e983316409',
    ('ties', 6, 'rows', 4): 'a8298437a52132a9',
    ('ties', 6, 'rows', 11): 'e6e90f72121d9478',
    ('ties', 6, '2rows+17', 4): '032cf973b3385d04',
    ('ties', 6, '2rows+17', 11): 'c0c7347dea6f877c',
    ('ties', 6, '10000', 4): '41ba09fe19849805',
    ('ties', 6, '10000', 11): '7bc6f44012dd7b17',
}


def _golden_sample(name):
    if name == "pareto":
        return ct.sample(ct.pareto(1.2, 1.0), 2000, seed=3)
    # the sample of test_ties_at_threshold_warn
    vals = np.concatenate([np.linspace(1, 2, 60), np.full(5, 2.0), [3.0, 4.0]])
    return ct.OrderedSample.from_values(vals)


class TestParetoTailTest:
    @pytest.mark.parametrize("key", list(_GOLDEN_TAIL_TESTS), ids=str)
    def test_results_match_recorded_bits(self, key):
        name, k, reps_label, seed = key
        rows = max(1, gof._BLOCK_BYTES // (8 * (k + 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = ct.pareto_tail_test(_golden_sample(name), k,
                                      reps=_GOLDEN_REPS[reps_label](rows), seed=seed)
        digest = hashlib.sha256(repr(res.as_dict()).encode()).hexdigest()[:16]
        assert digest == _GOLDEN_TAIL_TESTS[key]

    def test_deterministic(self):
        s = ct.sample(ct.pareto(1.2, 1.0), 300, seed=5)
        a = ct.pareto_tail_test(s, 50, reps=2000, seed=1)
        b = ct.pareto_tail_test(s, 50, reps=2000, seed=1)
        assert a == b
        assert 0.0 <= a.p_value <= 1.0
        assert a.alpha_hat > 0
        assert a.sigma == float(s.values[s.n - 2 - 50])

    def test_hill_mean_over_the_threshold_below_the_tail(self):
        # the test's scale is x_{n-1-k}, one below hill_estimate's x_{n-k}
        s = ct.sample(ct.pareto(1.2, 1.0), 300, seed=5)
        got = ct.pareto_tail_test(s, 50, reps=10, seed=1)
        assert got.alpha_hat == 1.0 / hill_mean(s.values[-50:], float(s.values[-52]))
        assert ct.hill_estimate(s, 50)["gamma_hat"] == hill_mean(s.values[-50:],
                                                                 float(s.values[-51]))

    @pytest.mark.parametrize("k", [50, 500])
    def test_row_blocks_match_one_block(self, k):
        s = ct.sample(ct.pareto(1.2, 1.0), 2000, seed=3)
        rows = gof._BLOCK_BYTES // (8 * (k + 1))
        reps = 2 * rows + 17  # two full blocks and a partial one
        got = ct.pareto_tail_test(s, k, reps=reps, seed=4)

        # the whole reps x (k+1) simulation as one block, on the Pareto scale
        m_sim = pareto_simulated_m(np.random.default_rng(4), np.empty((reps, k + 1)),
                                   got.sigma, 1.0 / got.alpha_hat)
        assert got.p_value == float(np.mean(m_sim >= got.m))

    @pytest.mark.parametrize("k", [3, 16, 50, 500])
    def test_pivotal_replicates_match_pareto_form(self, k):
        # the replicates on the Pareto scale, at any (sigma, gamma_hat), give
        # the pivotal form's longest runs bit for bit
        scales = [(1.0, 1 / 1.2), (3.7, 0.25), (1e3, 2.0), (1e-3, 5.0)]
        for seed, (sigma, gamma_hat) in enumerate(scales):
            want = pareto_simulated_m(np.random.default_rng(seed), np.empty((2000, k + 1)),
                                      sigma, gamma_hat)
            got = gof._simulated_m(np.random.default_rng(seed), np.empty((2000, k + 1)))
            np.testing.assert_array_equal(got, want)

    def test_monte_carlo_error_across_seeds(self):
        s = ct.sample(ct.pareto(1.2, 1.0), 300, seed=5)
        reps = 4000
        ps = [ct.pareto_tail_test(s, 50, reps=reps, seed=sd).p_value for sd in range(5)]
        p = float(np.mean(ps))
        assert max(ps) - min(ps) < 4 * np.sqrt(p * (1 - p) / reps) + 1e-9

    def test_power_against_smoothed_step(self):
        # partial transition to a light-tailed adjuster bends the tail in a
        # way the longest-run statistic detects well above the 5% level
        alt = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            ct.UpperAdjustment(ct.shifted_weibull(3.0, 6.0, 4.0), 0.5, 3.0),
        )
        rejections = 0
        trials = 150
        for seed in range(trials):
            s = ct.sample_mechanism(alt, 350, seed=seed)
            res = ct.pareto_tail_test(s, 50, reps=1000, seed=seed)
            rejections += res.p_value < 0.05
        assert rejections / trials >= 0.20

    def test_ties_at_threshold_warn(self):
        vals = np.concatenate([np.linspace(1, 2, 60), np.full(5, 2.0), [3.0, 4.0]])
        s = ct.OrderedSample.from_values(vals)
        with pytest.warns(UserWarning):
            ct.pareto_tail_test(s, 6, reps=200, seed=0)

    def test_k_domain(self):
        s = ct.sample(ct.pareto(1.0, 1.0), 20, seed=0)
        with pytest.raises(ValueError):
            ct.pareto_tail_test(s, 2)
        with pytest.raises(ValueError):
            ct.pareto_tail_test(s, 19)

    def test_as_dict(self):
        s = ct.sample(ct.pareto(1.2, 1.0), 100, seed=5)
        d = ct.pareto_tail_test(s, 20, reps=500, seed=0).as_dict()
        assert {"k", "m", "alpha_hat", "sigma", "p_value", "reps", "seed"} == set(d)


class TestQqCoordinates:
    def test_exact_diagonal_all_margins(self):
        spec = ct.gpd(0.5, 2.0)
        n = 500
        s = ct.OrderedSample.from_values(
            np.asarray(ct.quantile(spec, ct.edf_positions(n)))
        )
        for margins in Margins:
            out = ct.qq_coordinates(s, spec, margins)
            assert out["dropped"] == 0
            np.testing.assert_allclose(
                out["theoretical"], out["empirical"], rtol=1e-8, atol=1e-10
            )

    def test_frechet_unit_point(self):
        # F = exp(-1) maps to z = 1 on standard Frechet margins
        spec = ct.exponential(1.0)
        x = ct.quantile(spec, float(np.exp(-1)))
        s = ct.OrderedSample.from_values([x])
        out = ct.qq_coordinates(s, spec, Margins.STANDARD_FRECHET)
        assert out["empirical"][0] == pytest.approx(1.0, rel=1e-12)
        # single observation plots at position 1/2 -> -1/ln(0.5)
        assert out["theoretical"][0] == pytest.approx(-1 / np.log(0.5))

    def test_normal_margins_close_for_true_model(self):
        spec = ct.gpd(0.65, 600.0)
        n = 2000
        s = ct.sample(spec, n, seed=13)
        out = ct.qq_coordinates(s, spec, Margins.STANDARD_NORMAL)
        assert out["dropped"] == 0
        corr = np.corrcoef(out["theoretical"], out["empirical"])[0, 1]
        assert corr > 0.99
        mid = slice(n // 10, -n // 10)
        assert np.max(np.abs(out["theoretical"][mid] - out["empirical"][mid])) < 4 / np.sqrt(n)

    def test_dropped_points_counted(self):
        spec = ct.gpd(-0.5, 1.0)  # right endpoint at 2
        s = ct.OrderedSample.from_values([0.5, 1.0, 2.5])
        out = ct.qq_coordinates(s, spec, Margins.STANDARD_NORMAL)
        assert out["dropped"] == 1
        assert out["empirical"].size == 2

    def test_accepts_adjusted_model(self):
        m = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            ct.UpperAdjustment(ct.shifted_weibull(3.0, 25.0, 2.0), 0.5, 3.0),
        )
        s = ct.sample_mechanism(m, 200, seed=14)
        out = ct.qq_coordinates(s, m, Margins.ORIGINAL)
        assert out["theoretical"].size == 200

    @pytest.mark.parametrize("margins,unused", [
        (Margins.STANDARD_NORMAL, "adjusted_quantile"),
        (Margins.STANDARD_FRECHET, "adjusted_quantile"),
        (Margins.ORIGINAL, "adjusted_cdf"),
    ])
    def test_margins_skip_the_unused_law(self, margins, unused, monkeypatch):
        # only original margins invert the CDF; the others only evaluate it
        m = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            ct.UpperAdjustment(ct.shifted_weibull(3.0, 25.0, 2.0), 0.5, 3.0),
        )
        s = ct.sample_mechanism(m, 200, seed=14)
        want = ct.qq_coordinates(s, m, margins)

        def fail(*args, **kwargs):
            raise AssertionError(f"{unused} called")

        monkeypatch.setattr(gof, unused, fail)
        got = ct.qq_coordinates(s, m, margins)
        np.testing.assert_array_equal(got["theoretical"], want["theoretical"])
        np.testing.assert_array_equal(got["empirical"], want["empirical"])

    def test_normal_margins_leave_scipy_stats_unloaded(self):
        code = ("import sys, claimtails as ct; "
                "s = ct.sample(ct.gpd(0.5, 2.0), 50, seed=1); "
                "ct.qq_coordinates(s, ct.gpd(0.5, 2.0), ct.Margins.STANDARD_NORMAL); "
                "print('scipy.stats' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(ct.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_ndtri_matches_norm_ppf_bits(self):
        from scipy.special import ndtri
        from scipy.stats import norm

        rng = np.random.default_rng(21)
        tiny = np.finfo(float).tiny
        p = np.concatenate([
            rng.random(100_000),
            10.0 ** rng.uniform(-320, 0, 50_000),
            1.0 - 10.0 ** rng.uniform(-16, 0, 50_000),
            ct.edf_positions(2_000),
            [5e-324, tiny, 2.0**-53, 0.5, 1 - 2.0**-53, np.nextafter(1.0, 0)],
        ])
        p = p[(p > 0) & (p < 1)]
        np.testing.assert_array_equal(ndtri(p).view(np.int64), norm.ppf(p).view(np.int64))
