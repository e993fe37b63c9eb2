import numpy as np
import pytest

import claimtails as ct
from claimtails import gof
from claimtails.gof import Margins, _longest_runs_rows


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


class TestParetoTailTest:
    def test_deterministic(self):
        s = ct.sample(ct.pareto(1.2, 1.0), 300, seed=5)
        a = ct.pareto_tail_test(s, 50, reps=2000, seed=1)
        b = ct.pareto_tail_test(s, 50, reps=2000, seed=1)
        assert a == b
        assert 0.0 <= a.p_value <= 1.0
        assert a.alpha_hat > 0
        assert a.sigma == float(s.values[s.n - 2 - 50])

    @pytest.mark.parametrize("k", [50, 500])
    def test_row_blocks_match_one_block(self, k):
        s = ct.sample(ct.pareto(1.2, 1.0), 2000, seed=3)
        rows = gof._BLOCK_BYTES // (8 * (k + 1))
        reps = 2 * rows + 17  # two full blocks and a partial one
        got = ct.pareto_tail_test(s, k, reps=reps, seed=4)

        # the whole reps x (k+1) simulation as one block
        sigma, gamma_hat = got.sigma, 1.0 / got.alpha_hat
        u = np.clip(np.random.default_rng(4).random((reps, k + 1)), 1e-16, 1 - 1e-16)
        sims = np.sort(sigma * np.power(u, -gamma_hat), axis=1)[:, 1:]
        gamma_rep = np.mean(np.log(sims / sigma), axis=1)
        model = 1.0 - np.power(sims / sigma, -1.0 / gamma_rep[:, None])
        m_sim = _longest_runs_rows(ct.edf_positions(k)[None, :] > model)
        assert got.p_value == float(np.mean(m_sim >= got.m))

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
