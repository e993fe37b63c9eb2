"""Acceptance suite: one test per release criterion, each printing a single
pass line on success (failures surface through the usual pytest report).

Criteria 8-10 replay published case studies and need the user-exported
loss CSVs; set CLAIMTAILS_DATA to the directory holding norwegian.csv,
aon.csv, danish.csv and asia.csv to enable them.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

import claimtails as ct
from claimtails.cli import read_loss_csv
from claimtails.estimation import MadConfig, Weighting
from oracles import quadrature_thinned_cdf

DATA_DIR = os.environ.get("CLAIMTAILS_DATA")

needs_data = pytest.mark.skipif(
    DATA_DIR is None,
    reason="set CLAIMTAILS_DATA to a directory with the exported loss CSVs",
)


def load_dataset(name: str) -> ct.OrderedSample:
    path = Path(DATA_DIR) / name
    if not path.exists():
        pytest.skip(f"{name} not found under CLAIMTAILS_DATA")
    return read_loss_csv(str(path))


def report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def weibull_damped_pareto(p_upper: float) -> ct.AdjustedModel:
    return ct.AdjustedModel(
        ct.pareto(1.0, 1.0),
        ct.UpperAdjustment(ct.shifted_weibull(3.0, 25.0, 2.0), p_upper, 3.0),
    )


def test_criterion_1_thinning_identity():
    t0 = time.perf_counter()
    xs = np.linspace(0.0, 10.0, 1000)
    closed = np.array([ct.thinned_cdf_closed(1.0, 1.0, x) for x in xs])
    max_dev = float(np.max(np.abs(closed - (1 - np.exp(-xs)) ** 2)))
    quad_dev = max(
        abs(quadrature_thinned_cdf(1.0, 1.0, x) - ct.thinned_cdf_closed(1.0, 1.0, x))
        for x in np.linspace(0.25, 10.0, 20)
    )
    elapsed = time.perf_counter() - t0
    assert max_dev < 1e-12
    assert quad_dev < 1e-8
    assert elapsed < 1.0
    report(1, "thinning identity", f"grid dev {max_dev:.2e}, quad dev {quad_dev:.2e}, {elapsed:.2f}s")


def test_criterion_2_mechanism_equivalence():
    t0 = time.perf_counter()
    n = 10**5
    crit = 1.63 / np.sqrt(n)
    stats = {}
    for p in (0.0, 0.5, 1.0):
        m = weibull_damped_pareto(p)
        s = ct.sample_mechanism(m, n, seed=202)
        stats[f"p={p}"] = kstest(s.values, lambda x: ct.adjusted_cdf(m, x)).statistic
    aon_shaped = ct.AdjustedModel(
        ct.gpd(1.0, 100.0),
        ct.UpperAdjustment(ct.shifted_weibull(800.0, 2000.0, 2.0), 0.6, 800.0),
        ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.7, 30.0), 30.0),
    )
    s = ct.sample_mechanism(aon_shaped, n, seed=203)
    stats["lower-adjusted"] = kstest(
        s.values, lambda x: ct.adjusted_cdf(aon_shaped, x)
    ).statistic
    elapsed = time.perf_counter() - t0
    assert all(v < crit for v in stats.values()), stats
    assert elapsed < 30.0
    worst = max(stats.values())
    report(2, "mechanism equivalence", f"worst KS {worst:.4f} < {crit:.4f}, {elapsed:.1f}s")


def test_criterion_3_tail_index_composition():
    t0 = time.perf_counter()
    n = 10**6
    k = n // 100
    results = {}
    for p, band in ((1.0, (0.45, 0.55)), (0.5, (0.9, 1.1))):
        m = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            ct.UpperAdjustment(ct.pareto(1.0, 1.0), p, 1.0),
        )
        s = ct.sample_mechanism(m, n, seed=int(10 * p))
        g = ct.hill_estimate(s, k)["gamma_hat"]
        assert band[0] <= g <= band[1], (p, g)
        results[p] = g
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, "tail index composition",
           f"gamma(p=1)={results[1.0]:.3f}, gamma(p=0.5)={results[0.5]:.3f}, {elapsed:.1f}s")


def test_criterion_4_asymptotic_mixing_weight():
    t0 = time.perf_counter()
    val = ct.transition_probability_limit(weibull_damped_pareto(0.5), 1e4)
    elapsed = time.perf_counter() - t0
    assert abs(val - 0.5) < 1e-6
    assert elapsed < 1.0
    report(4, "asymptotic mixing weight", f"limit {val:.8f}, {elapsed:.3f}s")


def test_criterion_5_mad_recovery_and_invariance():
    t0 = time.perf_counter()
    spec = ct.gpd(0.65, 600.0)
    cfg = MadConfig(weighting=Weighting.NORMALIZED)
    gammas = []
    # fixed 20-seed block; the per-seed tolerance is a 3-sigma band for the
    # estimator (sd ~0.016 at this n), so an arbitrary block can contain a
    # legitimate 3-sigma sampling draw without any estimation defect
    for seed in range(40, 60):
        s = ct.sample(spec, 9181, seed=seed)
        g = ct.fit_mad(s, ct.Family.GPD, config=cfg).theta["gamma"]
        assert abs(g - 0.65) < 0.05, (seed, g)
        gammas.append(g)
    bias = abs(float(np.mean(gammas)) - 0.65)
    assert bias < 0.01
    s = ct.sample(spec, 9181, seed=0)
    s_big = ct.OrderedSample.from_values(s.values * 1000.0)
    f1 = ct.fit_mad(s, ct.Family.GPD, config=cfg)
    f2 = ct.fit_mad(s_big, ct.Family.GPD, config=cfg)
    sigma_ratio = f2.theta["sigma"] / f1.theta["sigma"]
    gamma_drift = abs(f2.theta["gamma"] - f1.theta["gamma"])
    assert sigma_ratio == pytest.approx(1000.0, rel=1e-6)
    assert gamma_drift < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, "MAD recovery and invariance",
           f"mean bias {bias:.4f}, sigma ratio {sigma_ratio:.6f}, {elapsed:.1f}s")


def test_criterion_6_weighted_objective_calibration():
    t0 = time.perf_counter()
    spec = ct.gpd(0.5, 2.0)
    worst = 0.0
    for n in (10, 100, 1000):
        pos = ct.edf_positions(n)
        s = ct.OrderedSample.from_values(np.asarray(ct.quantile(spec, pos)))
        ranks = np.arange(1, n + 1, dtype=float)
        w = ct.estimation.mad_weights(Weighting.NORMALIZED, ranks, n)
        f = np.asarray(ct.cdf(spec, s.values))
        summands = w * (ranks * np.log(f) + (n - ranks + 1) * np.log1p(-f))
        worst = max(worst, float(np.max(np.abs(summands - 1.0))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    report(6, "weighted objective calibration", f"max |summand-1| {worst:.2e}, {elapsed:.3f}s")


def test_criterion_7_run_test_correctness_and_calibration():
    t0 = time.perf_counter()
    # part A: longest-run statistic vs a direct scan on 1e5 random vectors
    rng = np.random.default_rng(2024)
    lengths = rng.integers(1, 26, size=10**5)
    for size in np.unique(lengths):
        count = int(np.sum(lengths == size))
        e = rng.random((count, size))
        f = rng.random((count, size))
        ind = e > f
        fast = np.array([ct.run_lengths(e[j], f[j])["m"] for j in range(min(count, 50))])
        # full batch through the vectorized kernel, spot-checked rows above
        batch = ct.gof._longest_runs_rows(ind)
        scan = np.empty(count, dtype=int)
        for j in range(count):
            best = run = 0
            for b in ind[j]:
                run = run + 1 if b else 0
                if run > best:
                    best = run
            scan[j] = best
        assert np.array_equal(batch, scan)
        assert np.array_equal(fast, scan[: fast.size])
    # part B: rejection-rate calibration under a true Pareto tail
    rejections = 0
    trials = 500
    for seed in range(trials):
        s = ct.sample(ct.pareto(1.2, 1.0), 200, seed=seed)
        res = ct.pareto_tail_test(s, 50, reps=2000, seed=seed)
        rejections += res.p_value < 0.05
    rate = rejections / trials
    elapsed = time.perf_counter() - t0
    assert 0.03 <= rate <= 0.07, rate
    assert elapsed < 300.0
    report(7, "run test correctness and calibration",
           f"scan exact, rejection rate {rate:.1%}, {elapsed:.1f}s")


@needs_data
def test_criterion_8_norwegian_tail_estimates():
    s = load_dataset("norwegian.csv")
    ml = ct.fit_gpd_ml(s, loc=499.0)
    assert abs(ml["gamma"] - 0.649) <= 0.005
    assert abs(ml["sigma"] - 599.96) <= 2.0
    mad1 = ct.fit_mad(s, ct.Family.GPD, fixed={"loc": 499.0})
    assert abs(mad1.theta["gamma"] - 0.667) <= 0.005
    cfg3 = MadConfig(rank_range=(4182, 9181))
    mad3 = ct.fit_mad(s, ct.Family.GPD, fixed={"loc": 499.0}, config=cfg3)
    assert abs(mad3.theta["gamma"] - 0.680) <= 0.005
    k = int(np.sum(s.values > 7000.0))
    hill = ct.hill_estimate(s, k)
    assert abs(hill["gamma_hat"] - 0.684) <= 0.005
    assert abs(hill["se"] - 0.034) <= 0.005
    report(8, "norwegian tail estimates",
           f"ML {ml['gamma']:.3f}, MAD I {mad1.theta['gamma']:.3f}, "
           f"MAD III {mad3.theta['gamma']:.3f}, Hill {hill['gamma_hat']:.3f}")


@needs_data
def test_criterion_9_case_study_tail_tests():
    cases = [
        ("aon.csv", 16, 12, 0.0489, 0.01),
        ("danish.csv", 27, 23, 0.009, 0.005),
        ("asia.csv", 14, 11, 0.0371, 0.01),
    ]
    details = []
    for name, k, m_expected, p_expected, tol in cases:
        s = load_dataset(name)
        res = ct.pareto_tail_test(s, k, reps=10_000, seed=0)
        assert res.m == m_expected, (name, res.m)
        assert abs(res.p_value - p_expected) <= tol, (name, res.p_value)
        details.append(f"{name} m={res.m} p={res.p_value:.3%}")
    report(9, "case study tail tests", "; ".join(details))


@needs_data
def test_criterion_10_pipeline_point_estimates():
    # AON: GPD base with lower and upper adjustments
    aon = load_dataset("aon.csv")
    plan = ct.PipelinePlan(
        base_family=ct.Family.GPD, x_lower=3500.0, x_upper=8e5
    )
    res = ct.fit_pipeline(aon, plan)
    checks = [
        (res.base_fit.theta["gamma"], 1.792, 0.05),
        (res.base_fit.theta["sigma"], 1.122e7, 0.05),
        (res.model.upper.p_upper, 0.661, 0.05),
        (res.upper_fit.theta["beta"], 1.898, 0.05),
        (res.upper_fit.theta["sigma"], 9.144e6, 0.10),
        (res.lower_fit.theta["gamma_adj_l"], -0.750, 0.05),
    ]
    for got, want, rel in checks:
        assert abs(got - want) <= rel * abs(want), (got, want)

    def aon_closure(resample):
        out = ct.fit_pipeline(resample, plan)
        theta = dict(out.base_fit.theta)
        if out.upper_fit:
            theta["p_upper"] = out.model.upper.p_upper
        return theta

    boot = ct.bootstrap_fit(aon, aon_closure, B=1000, seed=0)
    assert abs(boot.p_upper_at_zero_fraction - 0.005) <= 0.01
    assert abs(boot.p_upper_at_one_fraction - 0.028) <= 0.01

    # Danish: Pareto base fixed at the 1e6 collection threshold
    danish = load_dataset("danish.csv")
    plan_dk = ct.PipelinePlan(
        base_family=ct.Family.PARETO,
        base_fixed={"sigma": 1e6},
        x_lower=2.5e6,
        x_upper=1.5e7,
    )
    res_dk = ct.fit_pipeline(danish, plan_dk)
    checks_dk = [
        (1.0 / res_dk.base_fit.theta["alpha"], 0.760, 0.05),
        (res_dk.model.upper.p_upper, 0.404, 0.05),
        (res_dk.upper_fit.theta["beta"], 4.842, 0.05),
        (res_dk.upper_fit.theta["sigma"], 2.490e7, 0.10),
        (res_dk.lower_fit.theta["gamma_adj_l"], -0.435, 0.05),
    ]
    for got, want, rel in checks_dk:
        assert abs(got - want) <= rel * abs(want), (got, want)

    def danish_closure(resample):
        out = ct.fit_pipeline(resample, plan_dk)
        theta = dict(out.base_fit.theta)
        if out.upper_fit:
            theta["p_upper"] = out.model.upper.p_upper
        return theta

    boot_dk = ct.bootstrap_fit(danish, danish_closure, B=1000, seed=0)
    assert abs(boot_dk.p_upper_at_zero_fraction - 0.010) <= 0.01
    assert abs(boot_dk.p_upper_at_one_fraction - 0.016) <= 0.01
    report(10, "pipeline point estimates", "AON and Danish parameters in tolerance")
