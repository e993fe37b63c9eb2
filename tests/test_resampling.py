import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import claimtails as ct
from claimtails import parallel
from claimtails.resampling import BootstrapFailedError


def gpd_fit(resample):
    return ct.fit_mad(resample, ct.Family.GPD).theta


class TestBootstrapFit:
    def test_constant_closure_zero_se(self):
        s = ct.sample(ct.exponential(1.0), 100, seed=0)
        out = ct.bootstrap_fit(s, lambda r: {"c": 3.0}, B=25, seed=1)
        assert out.standard_errors["c"] == 0.0
        assert out.intervals["c"] == (3.0, 3.0)
        assert out.failed == 0

    def test_deterministic(self):
        s = ct.sample(ct.exponential(2.0), 150, seed=0)

        def mean_fit(r):
            return {"mu": float(np.mean(r.values))}

        a = ct.bootstrap_fit(s, mean_fit, B=50, seed=7)
        b = ct.bootstrap_fit(s, mean_fit, B=50, seed=7)
        assert a.standard_errors == b.standard_errors
        assert a.intervals == b.intervals

    def test_mean_se_matches_classical_formula(self):
        s = ct.sample(ct.exponential(1.0), 400, seed=2)

        def mean_fit(r):
            return {"mu": float(np.mean(r.values))}

        out = ct.bootstrap_fit(s, mean_fit, B=500, seed=3)
        classical = float(np.std(s.values, ddof=1)) / np.sqrt(s.n)
        assert out.standard_errors["mu"] == pytest.approx(classical, rel=0.2)

    def test_se_of_huge_values_is_finite(self):
        # squared deviations of ~1e306 overflow; the scaled std does not
        s = ct.sample(ct.exponential(1.0), 100, seed=0)

        def huge_fit(r):
            return {"c": float(np.mean(r.values)) * 1e306}

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ct.bootstrap_fit(s, huge_fit, B=10, seed=1)
        se = out.standard_errors["c"]
        vals = np.array([t["c"] for t in out.replicates])
        assert np.isfinite(se) and se > 0.0
        assert se == pytest.approx(float(np.std(vals / 1e300, ddof=1)) * 1e300, rel=1e-12)

    def test_gpd_shape_se_plausible(self):
        s = ct.sample(ct.gpd(0.65, 600.0), 9181, seed=1)
        out = ct.bootstrap_fit(s, gpd_fit, B=60, seed=4)
        assert 0.008 <= out.standard_errors["gamma"] <= 0.03
        lo, hi = out.intervals["gamma"]
        assert lo < 0.65 < hi

    def test_interval_coverage(self):
        # percentile intervals at 80% cover the truth in most outer draws
        spec = ct.gpd(0.5, 1.0)
        hits = 0
        outer = 30
        for trial in range(outer):
            s = ct.sample(spec, 400, seed=trial)
            # the draws do not depend on the worker count; two only save time
            out = ct.bootstrap_fit(s, gpd_fit, B=60, seed=trial, level=0.80,
                                   workers=2)
            lo, hi = out.intervals["gamma"]
            hits += lo <= 0.5 <= hi
        assert hits / outer >= 0.6

    def test_failures_counted(self):
        s = ct.sample(ct.exponential(1.0), 50, seed=5)
        calls = {"b": 0}

        def flaky(r):
            calls["b"] += 1
            if calls["b"] % 3 == 0:
                raise RuntimeError("boom")
            return {"mu": float(np.mean(r.values))}

        out = ct.bootstrap_fit(s, flaky, B=30, seed=6)
        assert out.failed == 10
        assert out.B == 30

    def test_all_failures_raise(self):
        s = ct.sample(ct.exponential(1.0), 50, seed=5)

        def broken(r):
            raise RuntimeError("boom")

        with pytest.raises(BootstrapFailedError):
            ct.bootstrap_fit(s, broken, B=5, seed=0)

    def test_degenerate_transition_fractions(self):
        s = ct.sample(ct.exponential(1.0), 50, seed=5)
        seq = iter([0.0, 1e-4, 0.5, 0.9999, 1.0])

        def canned(r):
            return {"p_upper": next(seq)}

        out = ct.bootstrap_fit(s, canned, B=5, seed=0)
        assert out.p_upper_at_zero_fraction == pytest.approx(2 / 5)
        assert out.p_upper_at_one_fraction == pytest.approx(2 / 5)

    def test_keep_replicates(self):
        s = ct.sample(ct.exponential(1.0), 60, seed=8)

        def mean_fit(r):
            return {"mu": float(np.mean(r.values))}

        out = ct.bootstrap_fit(s, mean_fit, B=10, seed=9)
        assert len(out.replicates) == 10
        assert out.replicates[0] == mean_fit(ct.OrderedSample.from_values(
            s.values[ct.substream(9, 0).integers(0, s.n, size=s.n)]))

    def test_invalid_b(self):
        s = ct.sample(ct.exponential(1.0), 10, seed=0)
        with pytest.raises(ValueError):
            ct.bootstrap_fit(s, lambda r: {"c": 1.0}, B=0, seed=0)

    def test_as_dict(self):
        s = ct.sample(ct.exponential(1.0), 40, seed=0)
        d = ct.bootstrap_fit(s, lambda r: {"c": 1.0}, B=3, seed=0).as_dict()
        assert d["B"] == 3
        assert "replicates" not in d


def _no_pool(*args, **kwargs):
    raise AssertionError("no process pool expected")


class TestWorkers:
    """Forked workers share the replicates; results do not depend on how many."""

    @pytest.mark.parametrize("B", [1, 5, 17])
    def test_worker_count_invariance(self, B):
        s = ct.sample(ct.exponential(1.0), 80, seed=11)
        runs = {
            workers: ct.bootstrap_fit(
                s, lambda r: {"mu": float(np.mean(r.values)), "top": float(r.values[-1])},
                B=B, seed=4, workers=workers,
            )
            for workers in (1, 2, 3, B + 3)
        }
        serial = runs[1]
        assert len(serial.replicates) == B
        for workers, out in runs.items():
            assert out.as_dict() == serial.as_dict(), workers
            assert out.replicates == serial.replicates, workers

    def test_failure_count_invariance(self):
        s = ct.sample(ct.exponential(1.0), 60, seed=12)
        mean = float(np.mean(s.values))

        def fails_above_mean(r):
            # chosen by the resample's values, not by call order
            if np.mean(r.values) > mean:
                raise RuntimeError("boom")
            return {"mu": float(np.mean(r.values))}

        runs = [
            ct.bootstrap_fit(s, fails_above_mean, B=17, seed=2, workers=workers)
            for workers in (1, 2, 3, 20)
        ]
        assert 0 < runs[0].failed < 17
        for out in runs[1:]:
            assert out.failed == runs[0].failed
            assert out.replicates == runs[0].replicates

    def test_dead_worker_raises(self):
        s = ct.sample(ct.exponential(1.0), 40, seed=0)
        parent = os.getpid()

        def dies_in_worker(r):
            if os.getpid() != parent:
                os._exit(3)
            return {"c": 1.0}

        with pytest.raises(RuntimeError) as info:
            ct.bootstrap_fit(s, dies_in_worker, B=4, seed=0, workers=2)
        assert isinstance(info.value, BrokenProcessPool)

    def test_pool_size_is_capped_by_replicates(self, monkeypatch):
        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        s = ct.sample(ct.exponential(1.0), 40, seed=0)
        ct.bootstrap_fit(s, lambda r: {"c": float(r.values[0])}, B=3, seed=0, workers=8)
        assert sizes == [2]  # this process and two workers

    @pytest.mark.parametrize("B,workers", [(10, 1), (1, 4)])
    def test_one_worker_starts_no_process(self, B, workers, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        s = ct.sample(ct.exponential(1.0), 40, seed=0)
        out = ct.bootstrap_fit(s, lambda r: {"c": float(r.values[0])}, B=B, seed=0,
                               workers=workers)
        assert out.B == B

    def test_serial_without_fork(self, monkeypatch):
        s = ct.sample(ct.exponential(1.0), 40, seed=0)

        def fit(r):
            return {"c": float(r.values[0])}

        forked = ct.bootstrap_fit(s, fit, B=6, seed=1, workers=3)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        monkeypatch.setattr(parallel.multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        serial = ct.bootstrap_fit(s, fit, B=6, seed=1, workers=3)
        assert serial.replicates == forked.replicates

    def test_invalid_workers(self):
        s = ct.sample(ct.exponential(1.0), 10, seed=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ct.bootstrap_fit(s, lambda r: {"c": 1.0}, B=2, seed=0, workers=0)
