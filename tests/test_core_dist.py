import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

import claimtails as ct
from claimtails.core_dist import DistributionSpec, ParameterError

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e-320, 1e-300, -1e-300, 1e-17, 1e-12, -1e-12, 1e-8])
    def test_gpd_small_shapes(self, gamma):
        # 1 + gamma z/sigma rounds the shape's digits away as gamma -> 0
        z = np.array([0.5, 5.0, 40.0])
        u = gamma * z / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = np.where(u == 0.0, np.exp(-z / 2.0), np.exp(-np.log1p(u) / gamma))
        np.testing.assert_allclose(ct.survival(ct.gpd(gamma, 2.0), z), exact,
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e-6, -1e-6])
    def test_gpd_shapes_at_the_old_power_gate(self, gamma):
        # the power form (1 + u)**(-1/gamma), u = gamma z/sigma, once took over
        # at |gamma| = 1e-6 and lost ~1e-16/|gamma| relative there (3.3e-11
        # at z = 5); log S = -(z/sigma) log1p(u)/u, and at |u| <= 5e-6 the
        # series of log1p(u)/u to u**3 is exact to rounding
        z = np.array([0.5, 2.0, 5.0])
        u = gamma * z
        log_s = -z * (1.0 - u / 2.0 + u * u / 3.0 - u * u * u / 4.0)
        from claimtails.core_dist import KERNELS
        kernel = KERNELS[ct.Family.GPD]
        np.testing.assert_allclose(kernel.log_survival(z, gamma, 1.0, 0.0)[0], log_s,
                                   rtol=1e-15, atol=0.0)
        spec = ct.gpd(gamma, 1.0)
        np.testing.assert_allclose(ct.survival(spec, z), np.exp(log_s), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(ct.density(spec, z), np.exp(log_s) / (1.0 + u),
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("error")
    def test_gpd_shape_column_equals_its_rows(self):
        from claimtails.core_dist import KERNELS
        gammas = [1e-17, 0.5, 0.0, -0.3, 1e-9, -2e-7]
        sigmas = [1.0, 2.0, 1.5, 3.0, 1.0, 0.5]
        x = np.array([0.0, 0.5, 3.0, 9.9, 40.0, 1e8, np.inf])
        survival = KERNELS[ct.Family.GPD].survival
        column = survival(x, np.array(gammas)[:, None], np.array(sigmas)[:, None], 0.0)
        for row, gamma, sigma in zip(column, gammas, sigmas):
            np.testing.assert_array_equal(row, survival(x, gamma, sigma, 0.0))

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


# parameters of each family with a log_survival kernel, in `names` order
FITTED = {
    "pareto": st.tuples(st.floats(0.1, 10.0), st.floats(0.01, 100.0)),
    "gpd": st.tuples(st.floats(-2.0, 3.0), st.floats(0.01, 100.0), st.floats(0.0, 10.0)),
    "exponential": st.tuples(st.floats(0.01, 100.0)),
    "shifted_weibull": st.tuples(st.floats(0.0, 10.0), st.floats(0.01, 100.0),
                                 st.floats(0.1, 10.0)),
}


class TestLogSurvival:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", list(FITTED))
    def test_log_survival_properties(self, family):
        from claimtails.core_dist import KERNELS
        kernel = KERNELS[ct.Family(family)]
        eps = np.finfo(float).eps

        @settings(max_examples=100)
        @given(FITTED[family], st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30))
        def check(params, xs):
            x = np.sort(np.array(xs))
            log_s, dlog = kernel.log_survival(x, *params)
            # non-increasing in x, to a few eps of its size (-inf beyond an endpoint)
            with np.errstate(invalid="ignore"):
                step = np.diff(log_s)
            assert np.all((step <= 4 * eps * np.abs(log_s[1:])) | (log_s[1:] == log_s[:-1]))
            # exp(log S) is the survival to a few eps relative per unit of |log S|
            s = kernel.survival(x, *params)
            with np.errstate(invalid="ignore"):
                bound = 4 * eps * (1.0 - log_s) * s
            assert np.all((np.abs(np.exp(log_s) - s) <= bound) | (np.exp(log_s) == s))
            # every derivative is finite where S > 0
            for d in dlog:
                assert np.all(np.isfinite(np.broadcast_to(d, x.shape)[s > 0.0]))

        check()


class TestDensity:
    def test_exponential_at_zero(self):
        assert ct.density(ct.exponential(1.0), 0.0) == pytest.approx(1.0)

    def test_pareto_density(self):
        assert ct.density(ct.pareto(1.0, 1.0), 2.0) == pytest.approx(0.25)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e-320, 1e-300, -1e-300, 1e-17, 1e-12, -1e-12])
    def test_gpd_small_shapes(self, gamma):
        # f = (1 + u)**(-1/gamma - 1)/sigma with u = gamma z/sigma, whose power
        # rounds the shape's digits away as gamma -> 0
        z = np.array([0.5, 5.0, 40.0])
        u = gamma * z / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(u == 0.0, np.exp(-z / 2.0), np.exp(-np.log1p(u) / gamma))
        np.testing.assert_allclose(ct.density(ct.gpd(gamma, 2.0), z), s / (2.0 * (1.0 + u)),
                                   rtol=1e-15, atol=0.0)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e-320, 1e-300, -1e-300, 1e-17, 1e-12, -1e-12, 1e-6, -1e-6])
    def test_gpd_small_shapes(self, gamma):
        # x = sigma (q**(-gamma) - 1)/gamma = sigma L (1 + w/2 + w**2/6 + w**3/24 + ...)
        # with L = -log q and w = gamma L; here |w| < 1e-5, so the first four
        # terms are exact to rounding, but q**(-gamma) rounds gamma's digits away
        p = np.array([0.1, 0.5, 0.99])
        big_l = -np.log(1.0 - p)
        w = gamma * big_l
        exact = 2.0 * big_l * (1.0 + w / 2.0 + w * w / 6.0 + w * w * w / 24.0)
        np.testing.assert_allclose(ct.quantile(ct.gpd(gamma, 2.0), p), exact,
                                   rtol=1e-15, atol=0.0)

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

    def test_gpd_small_shape_draws_the_exponential_law(self):
        # q**(-gamma) rounds to 1 at gamma = 1e-17, which once drew only zeros
        s = ct.sample(ct.gpd(1e-17, 1.0), 1000, seed=8)
        np.testing.assert_allclose(s.values, ct.sample(ct.exponential(1.0), 1000, seed=8).values,
                                   rtol=1e-15, atol=0.0)

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
        assert ct.edf_positions(1).tolist() == [0.5]

    def test_large_sample_position(self):
        assert ct.edf_positions(9181)[-1] == pytest.approx(9181 / 9182)

    @given(st.integers(min_value=2, max_value=10_000))
    def test_strictly_increasing(self, n):
        pos = ct.edf_positions(n)
        assert np.all(np.diff(pos) > 0)
        assert 0 < pos[0] and pos[-1] < 1


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
            lambda: ct.gpd(0.5, 1.0, loc=-1.0),
            lambda: ct.stepped_pareto(0.0, 1.0, 1.0, 2.0, 3.0),
            lambda: ct.shifted_weibull(0.0, np.inf, 1.0),
            lambda: DistributionSpec(ct.Family.PARETO, (1.0,)),
        ],
    )
    def test_invalid_parameters_raise(self, build):
        with pytest.raises(ParameterError):
            build()

    @pytest.mark.parametrize("build,message", [
        (lambda: ct.pareto(0.0, 1.0), "Pareto needs alpha>0, sigma>0, got (0.0, 1.0)"),
        (lambda: ct.gpd(0.5, 0.0), "GPD needs sigma>0, got (0.5, 0.0, 0.0)"),
        (lambda: ct.gpd(0.5, 0.0, loc=-1.0), "GPD needs sigma>0, got (0.5, 0.0, -1.0)"),
        (lambda: ct.gpd(0.5, 1.0, loc=-1.0), "GPD location must be >=0, got (0.5, 1.0, -1.0)"),
        (lambda: ct.exponential(-2.0), "exponential needs sigma>0, got (-2.0,)"),
        (lambda: ct.shifted_weibull(1.0, 1.0, 0.0),
         "shifted Weibull needs shift>=0, sigma>0, beta>0, got (1.0, 1.0, 0.0)"),
        (lambda: ct.stepped_pareto(0.0, 1.0, 2.0, 1.0, 3.0),
         "stepped Pareto needs alpha1,alpha2>0, got (0.0, 1.0, 2.0, 1.0, 3.0)"),
        (lambda: ct.stepped_pareto(1.0, 1.0, 2.0, 1.0, 3.0),
         "stepped Pareto needs 0<sigma1<sigma2<sigma3, got (1.0, 1.0, 2.0, 1.0, 3.0)"),
        (lambda: ct.shifted_weibull(0.0, np.inf, 1.0), "non-finite parameter in (0.0, inf, 1.0)"),
        (lambda: DistributionSpec(ct.Family.PARETO, (1.0,)), "pareto needs 2 parameters, got 1"),
    ])
    def test_messages_name_the_requirement(self, build, message):
        # recorded before the domain checks moved into the kernel table; the
        # first violated requirement, in the family's order, is reported
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == message

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


# Kernel outputs recorded before the per-family formulas moved into one
# table: the first 16 hex digits of the SHA-256 of the float64 values of
# survival, cdf and density on GOLDEN_X, quantile on GOLDEN_P, and scalar
# calls of all four; then the left and right endpoints.  The GPD rows with
# gamma != 0 were re-recorded when its survival, density and quantile took
# the log1p/expm1 forms for every shape.
GOLDEN_X = np.concatenate(([0.0, 1.0, 3.0, 5.0, 11.0, 52.0, 600.0], np.geomspace(1e-3, 1e6, 91)))
GOLDEN_P = np.array([1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1 - 1 / 11, 0.99, 0.999,
                     1 - 1e-6, 1 - 1e-12])
GOLDEN_EXTRA = [ct.gpd(0.3, 2.0, loc=1.5), ct.gpd(-0.5, 2.0, loc=1.0),
                ct.shifted_weibull(20.0, 30.0, 0.5)]
GOLDEN = {
    ("pareto", (1.0, 1.0)): ("0c828f49eac22e86", "b41d63cb4cc7a2a1", "b4827669cb3e6d65",
                             "d8b3b90dc4c9459e", "25194bc7cdafb7ba", 1.0, np.inf),
    ("pareto", (2.5, 3.0)): ("e0537e0bf9da9057", "21ef089da85c7625", "9a1607ce770cc6af",
                             "e24c3075421c6286", "1c2f496b2f6e48fa", 3.0, np.inf),
    ("gpd", (0.65, 600.0, 0.0)): ("166b4c86a468a03a", "425714d676c21578", "b6042073d686633c",
                                  "67a3c42b881952d7", "a374ba4e15f92296", 0.0, np.inf),
    ("gpd", (0.0, 1.0, 0.0)): ("654d420abb102a68", "023804b29666716b", "654d420abb102a68",
                               "83588e7cbd17f963", "61579135d4945745", 0.0, np.inf),
    ("gpd", (-0.4, 2.0, 0.0)): ("4a3c2c64cb95cde2", "e2dcff29cb41feac", "b782ce46bff7c2f6",
                                "76a9eea88225ffab", "7a3fc00deeb78b79", 0.0, 5.0),
    ("exponential", (1.0,)): ("654d420abb102a68", "023804b29666716b", "654d420abb102a68",
                              "83588e7cbd17f963", "61579135d4945745", 0.0, np.inf),
    ("shifted_weibull", (3.0, 25.0, 2.0)): ("c2d9e89ad3f2cd15", "2cb966eca9616625",
                                            "8803289a72e5a007", "081821f8ec4b1f33",
                                            "450ba3c8132b2e01", 3.0, np.inf),
    ("stepped_pareto", (1.0, 1.42, 1.0, 11.0, 52.0)): ("8f6bc6ec31565cef", "c329fe55d8de89a9",
                                                       "8a85b4bdfe662f63", "7215512adb348ae6",
                                                       "9d11ba6452240c9f", 1.0, np.inf),
    ("gpd", (0.3, 2.0, 1.5)): ("af719257a42c1016", "ee3988b723f59074", "81f4f6cf1e67fa81",
                               "e9b24eb35d58fee9", "8e22dddd8bfec8ca", 1.5, np.inf),
    ("gpd", (-0.5, 2.0, 1.0)): ("613d5441e249a4a3", "7d09cbda6822f273", "bf581c2ff8925801",
                                "9155c79e13012e38", "bda198eb75d9ffe2", 1.0, 5.0),
    ("shifted_weibull", (20.0, 30.0, 0.5)): ("b480c166b4c3fcac", "d182f252fe18eb0a",
                                             "dba13517d9c49880", "ca0ec82bd0ebbf82",
                                             "6cb4382b27bf862f", 20.0, np.inf),
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


class TestKernelTable:
    @pytest.mark.parametrize("spec", ALL_SPECS + GOLDEN_EXTRA,
                             ids=lambda s: f"{s.family.value}{s.params}")
    def test_outputs_match_recorded_bits(self, spec):
        scalars = [f(spec, v) for f in (ct.survival, ct.cdf, ct.density) for v in GOLDEN_X[::7]]
        scalars += [ct.quantile(spec, v) for v in GOLDEN_P[::3]]
        got = (
            _digest(ct.survival(spec, GOLDEN_X)),
            _digest(ct.cdf(spec, GOLDEN_X)),
            _digest(ct.density(spec, GOLDEN_X)),
            _digest(ct.quantile(spec, GOLDEN_P)),
            _digest(scalars),
            spec.left_endpoint,
            spec.right_endpoint,
        )
        assert got == GOLDEN[(spec.family.value, spec.params)]

    def test_every_family_has_an_entry(self):
        from claimtails.core_dist import KERNELS

        assert set(KERNELS) == set(ct.Family)
        for family, kernel in KERNELS.items():
            assert len(kernel.names) == len(set(kernel.names)) > 0, family
