"""A fit evaluates its candidates in batches, one row per candidate: each
value equals, bit for bit, the one the candidate gets in a batch of its own,
and the one it gets alone through its model object and `mad_objective`: bit
for bit for a family's spec, which takes the same log-space kernel, and to a
stated bound for the adjuster steps, whose models are CDFs."""

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import claimtails as ct
from claimtails import estimation
from claimtails.core_dist import _power, spec_from_dict
from claimtails.estimation import (
    _PENALTY,
    MadConfig,
    Weighting,
    _batch_objective,
    _family_candidates,
    _head_candidates,
    _log1mexp,
    _log_survival,
    _rank_terms,
    _tail_candidates,
    mad_objective,
)
from oracles import head_cdf, tail_cdf

WEIGHTINGS = st.sampled_from(list(Weighting))


def alone(sample, model_of, theta, config):
    """One candidate's value through the public model path: the penalty where
    its model cannot be built or a log is infinite at a fitted observation."""
    direction = -1.0 if config.weighting == Weighting.UNWEIGHTED else 1.0
    try:
        return direction * mad_objective(sample, model_of(*theta), config)
    except ValueError:
        return _PENALTY


def rounding_slack(sample, model, config):
    """How far a value through a model that returns its CDF can stray for
    F's own rounding: an error of eps in F moves log F by eps/F and
    log(1 - F) by eps/(1 - F)."""
    i_lo, i_hi = config.resolve_ranks(sample.n)
    f = model(sample.values[i_lo - 1 : i_hi])
    a, b, w = _rank_terms(sample.n, i_lo, i_hi, config.weighting)
    terms = (a / f + b / (1.0 - f)) * np.finfo(float).eps
    return terms.sum() / sample.n if w is None else np.abs(w * terms).sum()


def assert_batch_matches(sample, candidates, model_of, thetas, config, rtol=0.0):
    """Bit for bit at rtol 0; otherwise a penalised row is penalised alone,
    and a value whose model path is finite agrees with it to rtol, plus the
    model path's rounding slack."""
    objective = _batch_objective(sample, *candidates, config)
    with warnings.catch_warnings():
        # a row with an infinite log raises no warning
        warnings.simplefilter("error", RuntimeWarning)
        got = [value for value, _ in objective([list(t) for t in thetas])]
        own = [objective([list(t)])[0][0] for t in thetas]
    assert np.array(got).tobytes() == np.array(own).tobytes(), (got, own)
    want = [alone(sample, model_of, t, config) for t in thetas]
    if rtol == 0.0:
        assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)
        return got
    for theta, g, w in zip(thetas, got, want):
        assert g != _PENALTY or w == _PENALTY, (got, want)
        if w != _PENALTY:
            slack = rounding_slack(sample, model_of(*theta), config)
            assert abs(g - w) <= rtol * abs(w) + slack, (got, want, slack)
    return got


def family_model(family, fixed, free):
    return lambda *theta: spec_from_dict(family, {**fixed, **dict(zip(free, theta))})


# (family, fixed, free, a sample, a strategy for one candidate); the pinned
# values put the kernels' exponents at 0.5, -1, 1 and 2, and the GPD's gamma at 0
POSITIVE = st.floats(0.05, 20.0)
FAMILIES = {
    "pareto": (ct.Family.PARETO, {}, ["alpha", "sigma"], ct.sample(ct.pareto(1.5, 1.0), 80, seed=1),
               st.tuples(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0]), POSITIVE),
                         st.one_of(st.sampled_from([1.0, 0.5]), st.floats(-1.0, 3.0)))),
    "gpd": (ct.Family.GPD, {"loc": 0.0}, ["gamma", "sigma"], ct.sample(ct.gpd(0.3, 2.0), 80, seed=2),
            st.tuples(st.one_of(st.sampled_from([1.0, -2.0, -1.0, -0.5, 0.0]), st.floats(-3.0, 3.0)),
                      st.one_of(POSITIVE, st.floats(-1.0, 0.0)))),
    "exponential": (ct.Family.EXPONENTIAL, {}, ["sigma"], ct.sample(ct.exponential(2.0), 80, seed=3),
                    st.tuples(st.one_of(POSITIVE, st.floats(-1.0, 0.0), st.just(1e-3)))),
    "shifted_weibull": (ct.Family.SHIFTED_WEIBULL, {}, ["shift", "sigma", "beta"],
                        ct.sample(ct.shifted_weibull(0.5, 2.0, 0.7), 80, seed=4),
                        st.tuples(st.one_of(st.just(0.0), st.floats(-0.5, 1.0)),
                                  st.one_of(POSITIVE, st.just(-1.0)),
                                  st.one_of(st.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0]),
                                            st.floats(0.1, 8.0)))),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_batches_match_one_candidate(name):
    family, fixed, free, sample, candidate = FAMILIES[name]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(candidate, min_size=1, max_size=7), WEIGHTINGS,
           st.sampled_from([None, (5, 70)]))
    def check(thetas, weighting, rank_range):
        config = MadConfig(weighting=weighting, rank_range=rank_range)
        assert_batch_matches(sample, _family_candidates(family, fixed, free),
                             family_model(family, fixed, free), thetas, config)

    check()


def composite():
    # a fixed base with a few dozen tail points above 10 and a head below 0.2
    truth = ct.AdjustedModel(
        ct.gpd(0.6, 1.0),
        ct.UpperAdjustment(ct.shifted_weibull(10.0, 15.0, 2.0), 0.5, 10.0),
        ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.5, 0.2), 0.2),
    )
    return ct.sample_mechanism(truth, 800, seed=21), truth.base


SAMPLE, BASE = composite()
X_UPPER, X_LOWER = 10.0, 0.2
TAIL = ct.OrderedSample.from_values(SAMPLE.values[SAMPLE.values > X_UPPER], label="upper tail")
HEAD = ct.OrderedSample.from_values(SAMPLE.values[SAMPLE.values < X_LOWER], label="lower head")


def tail_step(config):
    i_lo, i_hi = config.resolve_ranks(TAIL.n)
    candidates = _tail_candidates(
        X_UPPER, _log_survival(BASE, TAIL.values[i_lo - 1 : i_hi]), _log_survival(BASE, X_UPPER)
    )

    def model_of(p, beta, sigma):
        upper = ct.UpperAdjustment(ct.shifted_weibull(X_UPPER, sigma, beta), p, X_UPPER)
        return partial(tail_cdf, ct.AdjustedModel(BASE, upper))

    return candidates, model_of


def head_step(config):
    i_lo, i_hi = config.resolve_ranks(HEAD.n)
    candidates = _head_candidates(
        X_LOWER, _log1mexp(_log_survival(BASE, HEAD.values[i_lo - 1 : i_hi])),
        _log1mexp(_log_survival(BASE, X_LOWER))
    )

    def model_of(gamma_adj):
        lower = ct.LowerAdjustment(ct.lower_gpd_adjuster(gamma_adj, X_LOWER), X_LOWER)
        return partial(head_cdf, ct.AdjustedModel(BASE, lower=lower))

    return candidates, model_of


# the steps take log S and log F in log space, where `tail_cdf` and
# `head_cdf` round F itself: where F is not 0 or 1 they agree to this bound
# plus the rounding slack of F
STEP_RTOL = 1e-14

UPPER_CANDIDATE = st.tuples(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, -0.1, 1.1]), st.floats(-0.2, 1.2)),
    st.one_of(st.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0]), st.floats(0.1, 8.0)),
    st.one_of(st.sampled_from([1e-3, -1.0]), st.floats(0.5, 60.0)),
)
# gamma_adj -2, -1 and -0.5 put the GPD exponent -1/gamma at 0.5, 1 and 2
LOWER_CANDIDATE = st.tuples(
    st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.3]), st.floats(-5.0, -0.01))
)


@settings(max_examples=100, deadline=None)
@given(st.lists(UPPER_CANDIDATE, min_size=1, max_size=7), WEIGHTINGS,
       st.sampled_from([None, (3, 20)]))
def test_upper_step_batches_match_one_candidate(thetas, weighting, rank_range):
    config = MadConfig(weighting=weighting, rank_range=rank_range)
    candidates, model_of = tail_step(config)
    assert_batch_matches(TAIL, candidates, model_of, thetas, config, STEP_RTOL)


@settings(max_examples=100, deadline=None)
@given(st.lists(LOWER_CANDIDATE, min_size=1, max_size=7), WEIGHTINGS,
       st.sampled_from([None, (5, 100)]))
def test_lower_step_batches_match_one_candidate(thetas, weighting, rank_range):
    config = MadConfig(weighting=weighting, rank_range=rank_range)
    candidates, model_of = head_step(config)
    assert_batch_matches(HEAD, candidates, model_of, thetas, config, STEP_RTOL)


def test_mixed_batch_penalises_only_its_bad_rows():
    family, fixed, free, sample, _ = FAMILIES["pareto"]
    thetas = [
        (1.5, 0.5),  # valid
        (-1.0, 0.5),  # outside the domain: alpha <= 0
        (1.5, float(sample.values[3])),  # CDF 0 at the three smallest observations
        (2.0, 0.9),  # valid, exponent 2
        (1.0, 1e-300),  # CDF rounds to 1 at every observation, log S stays finite
        (0.5, 0.7),  # valid, exponent 0.5
    ]
    got = assert_batch_matches(sample, _family_candidates(family, fixed, free),
                               family_model(family, fixed, free), thetas, MadConfig())
    assert [v == _PENALTY for v in got] == [False, True, True, False, False, False]


@pytest.mark.parametrize("exponent", [0.5, -1.0, 0.0, 1.0, 2.0, 1.7, -0.25])
def test_power_rows_match_scalar_exponents(exponent):
    base = np.random.default_rng(5).uniform(1e-3, 30.0, (4, 33))
    column = np.array([[exponent], [exponent], [3.0], [exponent]])
    got = _power(base, column)
    for row, b, e in zip(got, base, column[:, 0].tolist()):
        assert row.tobytes() == np.power(b, e).tobytes()
    # a base shared by every row is broadcast
    assert _power(base[0], column).tobytes() == _power(np.tile(base[0], (4, 1)), column).tobytes()


def test_a_round_is_one_call(monkeypatch):
    # seven upper-step candidates, a whole round, on a tail of over 5 000
    # points: one objective call, each row the candidate's value alone
    values = ct.sample(BASE, 20_000, seed=7).values
    tail = ct.OrderedSample.from_values(values[values > 2.0], label="upper tail")
    assert tail.n >= 5000
    candidates = _tail_candidates(2.0, _log_survival(BASE, tail.values), _log_survival(BASE, 2.0))
    thetas = [[0.5, 2.0, 3.0], [0.1, 0.5, 1.0], [0.9, 1.0, 10.0], [1.0, 2.0, 50.0],
              [0.0, 2.0, 3.0], [0.3, 64.0, 2.0], [0.7, 1.7, 20.0]]
    calls = []

    def counting(*args):
        calls.append(args)
        return mad_objective(*args)

    monkeypatch.setattr(estimation, "mad_objective", counting)
    for weighting in Weighting:
        objective = _batch_objective(tail, *candidates, MadConfig(weighting))
        calls.clear()
        got = objective(thetas)
        assert len(calls) == 1
        own = [objective([theta])[0] for theta in thetas]
        assert all(value < _PENALTY for value, _ in got)
        assert np.array([v for v, _ in got]).tobytes() == np.array([v for v, _ in own]).tobytes()
        assert np.array([g for _, g in got]).tobytes() == np.array([g for _, g in own]).tobytes()


# a fit step's model is evaluated in blocks of ranks, and each whole array of
# summands and gradient terms is summed once, so no bit depends on the block
BLOCKS = [5, 64, 10**9]


def step_results(weighting):
    """Each step's (values, gradients) for a batch of candidates, a penalised
    row among them, over the whole subsample and over a rank range."""
    family, fixed, free, sample, _ = FAMILIES["gpd"]
    steps = [
        # GPD(-0.5, 1) ends at 2, below the sample's largest points
        (lambda config: _family_candidates(family, fixed, free), sample,
         [(0.3, 2.0), (-0.5, 1.0), (1.0, 0.5)], (7, 75)),
        (lambda config: tail_step(config)[0], TAIL,
         [(0.5, 2.0, 15.0), (1.0, 8.0, 1e-3), (0.0, 0.5, 60.0)], (3, 20)),
        (lambda config: head_step(config)[0], HEAD, [(-0.02,), (-0.4,), (-3.0,)], (5, 100)),
    ]
    results = []
    for candidates, sample, thetas, rank_range in steps:
        for config in (MadConfig(weighting), MadConfig(weighting, rank_range)):
            params_of, model_of = candidates(config)
            columns = np.array([params_of(*theta) for theta in thetas]).T[:, :, None]
            results.append(mad_objective(sample, model_of(*columns), config))
    return results


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("weighting", list(Weighting))
def test_block_size_changes_no_bit(block, weighting, monkeypatch):
    whole = step_results(weighting)
    assert any(np.isinf(values).any() for values, _ in whole)  # a penalised row is among them
    monkeypatch.setattr(estimation, "_BLOCK_RANKS", block)
    for (values, grads), (want_values, want_grads) in zip(step_results(weighting), whole):
        assert values.tobytes() == want_values.tobytes()
        assert grads.tobytes() == want_grads.tobytes()


@pytest.mark.parametrize("block", BLOCKS)
def test_block_size_keeps_the_degenerate_rank(block, monkeypatch):
    # a GPD that ends between the sample's 75th and 76th points has S = 0
    # from rank 76 on, in a late block of 5 and the second of 64
    sample = FAMILIES["gpd"][3]
    candidate = ct.gpd(-0.1, 0.05 * float(sample.values[74] + sample.values[75]))
    ranks = set()
    for weighting in Weighting:
        for config in (MadConfig(weighting), MadConfig(weighting, (3, 79))):
            with pytest.raises(estimation.LogDomainError) as want:
                mad_objective(sample, candidate, config)
            monkeypatch.setattr(estimation, "_BLOCK_RANKS", block)
            with pytest.raises(estimation.LogDomainError) as got:
                mad_objective(sample, candidate, config)
            monkeypatch.undo()
            assert got.value.rank == want.value.rank
            ranks.add(got.value.rank)
    assert ranks == {76}


def test_a_head_beyond_one_block_is_fitted_as_in_one_block(monkeypatch):
    # the benchmark's composite law at n = 50 000: the lower step's head has
    # about 8 600 points, more than one block of ranks
    truth = ct.AdjustedModel(
        ct.gpd(0.6, 1.0),
        ct.UpperAdjustment(ct.shifted_weibull(20.0, 30.0, 2.0), 0.5, 20.0),
        ct.LowerAdjustment(ct.lower_gpd_adjuster(-0.5, 0.2), 0.2),
    )
    sample = ct.sample_mechanism(truth, 50_000, np.random.default_rng(np.random.SeedSequence([9001, 0])))
    plan = estimation.PipelinePlan(ct.Family.GPD, {"loc": 0.0}, x_lower=0.2, x_upper=20.0)
    assert int(np.sum(sample.values < 0.2)) > estimation._BLOCK_RANKS
    blocked = estimation.fit_pipeline(sample, plan)
    monkeypatch.setattr(estimation, "_BLOCK_RANKS", 10**9)
    whole = estimation.fit_pipeline(sample, plan)
    for got, want in ((blocked.base_fit, whole.base_fit), (blocked.upper_fit, whole.upper_fit),
                      (blocked.lower_fit, whole.lower_fit)):
        assert got.as_dict() == want.as_dict() and got.restarts == want.restarts
