"""`estimation._nelder_mead` reproduces scipy's adaptive, bounded Nelder-Mead:
`fun`, `x` and `nfev` agree bit for bit.  Runs driven in lockstep give each
run the result it gets alone."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from claimtails.estimation import _lockstep, _nelder_mead, _nelder_mead_steps

INF = math.inf


def scipy_nelder_mead(fn, x0, lb, ub, xatol, fatol, maxfev):
    # scipy without bounds where every bound is infinite
    unbounded = all(lo == -INF for lo in lb) and all(hi == INF for hi in ub)
    res = minimize(
        lambda x: fn(x.tolist()),
        np.array(x0, dtype=float),
        method="Nelder-Mead",
        bounds=None if unbounded else list(zip(lb, ub)),
        options={"xatol": xatol, "fatol": fatol, "maxfev": maxfev, "adaptive": True},
    )
    return res.fun, res.x.tolist(), res.nfev


def assert_same_run(fn, x0, lb=None, ub=None, xatol=1e-8, fatol=1e-8, maxfev=5000):
    lb = lb or [-INF] * len(x0)
    ub = ub or [INF] * len(x0)
    fun, x, nfev = _nelder_mead(fn, list(x0), lb, ub, xatol, fatol, maxfev)
    want_fun, want_x, want_nfev = scipy_nelder_mead(fn, x0, lb, ub, xatol, fatol, maxfev)
    assert nfev == want_nfev
    assert np.float64(fun).tobytes() == np.float64(want_fun).tobytes(), (fun, want_fun)
    assert np.array(x, dtype=float).tobytes() == np.array(want_x).tobytes(), (x, want_x)
    return fun, x, nfev


@st.composite
def quadratics(draw):
    """A convex quadratic in 1-3 dimensions, a start and (maybe) a box around it."""
    n = draw(st.integers(1, 3))
    coord = st.floats(-5.0, 5.0)
    centre = draw(st.lists(coord, min_size=n, max_size=n))
    scale = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    cross = draw(st.floats(-0.05, 0.05))

    def fn(x):
        d = [v - c for v, c in zip(x, centre)]
        return sum(a * t * t for a, t in zip(scale, d)) + cross * d[0] * d[-1]

    lb, ub = [-INF] * n, [INF] * n
    x0 = draw(st.lists(coord, min_size=n, max_size=n))
    if draw(st.booleans()):
        lb = [v - draw(st.floats(0.0, 4.0)) for v in x0]
        ub = [v + draw(st.floats(0.0, 4.0)) for v in x0]
    return fn, x0, lb, ub


@settings(max_examples=150, deadline=None)
@given(quadratics(), st.sampled_from([1e-8, 1e-4]))
def test_quadratics_match_scipy(problem, tol):
    fn, x0, lb, ub = problem
    assert_same_run(fn, x0, lb, ub, xatol=tol, fatol=tol)


def rosenbrock(x):
    return sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(x[:-1], x[1:]))


def plateau(x):
    # the fit's penalty value outside a disc: vertices there tie at 1e12
    r2 = sum(v * v for v in x)
    return 1e12 if r2 > 1.0 else r2 + 0.3 * x[0]


def nan_region(x):
    return math.nan if x[0] < -0.5 else (x[0] + 1.0) ** 2 + sum((v - 0.5) ** 2 for v in x[1:])


@pytest.mark.parametrize("fn,x0,lb,ub", [
    pytest.param(rosenbrock, [-1.2, 1.0], None, None, id="unbounded"),
    pytest.param(rosenbrock, [-1.2, 1.0, 0.7], [-2.0, -INF, 0.5], None, id="half-bounded"),
    pytest.param(rosenbrock, [0.5, 0.8], [-2.0, -2.0], [0.5, 0.8], id="start-on-upper-bound"),
    pytest.param(rosenbrock, [0.0, 1.5, 0.0], None, None, id="zero-start-coordinate"),
    pytest.param(plateau, [0.9, 0.5], None, None, id="tied-plateau-2d"),
    pytest.param(plateau, [0.6, 0.6, 0.5], [-INF, 0.0, -1.0], [1.0, INF, 1.0],
                 id="tied-plateau-3d"),
    pytest.param(nan_region, [0.0, 0.0], None, None, id="nan-region"),
    pytest.param(nan_region, [-0.4, 1.0, 2.0], [-INF] * 3, [INF] * 3, id="nan-region-3d"),
])
def test_pinned_problems_match_scipy(fn, x0, lb, ub):
    assert_same_run(fn, x0, lb, ub)


def test_nan_vertex_shows_in_fun():
    # the initial simplex's first vertex, 1.05 * -0.48 < -0.5, is in the NaN region
    fun, x, _ = assert_same_run(nan_region, [-0.48, 0.0], maxfev=3)
    # x is the best vertex, which is finite, but np.min lets the NaN through to fun
    assert math.isnan(fun) and not math.isnan(nan_region(x))


def test_nan_coordinate_passes_through_the_clip():
    # np.clip keeps a NaN coordinate rather than moving it onto a bound
    fun, x, nfev = assert_same_run(rosenbrock, [math.nan, 0.5], [-1.0, -1.0], [1.0, 1.0],
                                   maxfev=40)
    assert math.isnan(x[0]) and nfev == 40


@pytest.mark.parametrize("fn,x0,maxfev", [
    # 2-d Rosenbrock from (-1.2, 1): evaluation 4 is a reflection better than
    # the best vertex, so the budget runs out before its expansion point
    pytest.param(rosenbrock, [-1.2, 1.0], 4, id="inside-expansion"),
    # from these starts every vertex ties on the plateau, and each iteration is
    # a reflection, an inside contraction and a shrink: the budget runs out
    # part-way through the first shrink
    pytest.param(plateau, [0.9, 0.5], 6, id="inside-shrink-2d"),
    pytest.param(plateau, [0.9, 0.5, 0.3], 7, id="inside-shrink-3d"),
    pytest.param(plateau, [0.9, 0.5, 0.3], 8, id="inside-shrink-3d-late"),
    pytest.param(rosenbrock, [-1.2, 1.0, 0.5], 2, id="inside-initial-simplex"),
])
def test_budget_cut_inside_an_iteration_matches_scipy(fn, x0, maxfev):
    _, _, nfev = assert_same_run(fn, x0, maxfev=maxfev)
    assert nfev == maxfev


@pytest.mark.parametrize("fn,x0", [
    pytest.param(rosenbrock, [-1.2, 1.0], id="rosenbrock"),
    pytest.param(plateau, [0.9, 0.5], id="plateau"),
])
def test_every_budget_matches_scipy(fn, x0):
    for maxfev in range(1, 60):
        assert_same_run(fn, x0, maxfev=maxfev)


def labelled(j, steps):
    """`steps`, with each vertex yielded as (j, vertex)."""
    value = None
    try:
        while True:
            value = yield j, steps.send(value)
    except StopIteration as stop:
        return stop.value


def run_lockstep(problems):
    """Each (fn, x0, lb, ub, maxfev) in `problems` as one run of a lockstep
    drive; returns the runs' results and the run indices of each round."""
    rounds = []

    def evaluate(vertices):
        rounds.append([j for j, _ in vertices])
        return [problems[j][0](x) for j, x in vertices]

    runs = [labelled(j, _nelder_mead_steps(list(x0), lb, ub, 1e-8, 1e-8, maxfev))
            for j, (_, x0, lb, ub, maxfev) in enumerate(problems)]
    return _lockstep(evaluate, runs), rounds


def assert_each_run_as_alone(problems):
    results, rounds = run_lockstep(problems)
    for (fn, x0, lb, ub, maxfev), (fun, x, nfev) in zip(problems, results):
        want_fun, want_x, want_nfev = _nelder_mead(fn, list(x0), lb, ub, 1e-8, 1e-8, maxfev)
        assert nfev == want_nfev
        assert np.float64(fun).tobytes() == np.float64(want_fun).tobytes(), (fun, want_fun)
        assert np.array(x, dtype=float).tobytes() == np.array(want_x).tobytes(), (x, want_x)
    # each round holds every run still going, in run order, one vertex each
    for before, after in zip(rounds, rounds[1:]):
        assert after == sorted(after) and set(after) <= set(before)
    assert sum(map(len, rounds)) == sum(nfev for _, _, nfev in results)
    return results, rounds


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(quadratics(), st.integers(1, 120)), min_size=2, max_size=5))
def test_lockstep_runs_match_runs_alone(drawn):
    assert_each_run_as_alone([(*problem, maxfev) for problem, maxfev in drawn])


def test_runs_leave_the_lockstep_at_different_rounds():
    problems = [
        (rosenbrock, [-1.2, 1.0], [-INF] * 2, [INF] * 2, 5000),
        (plateau, [0.9, 0.5, 0.3], [-INF] * 3, [INF] * 3, 7),  # cut inside a shrink
        (rosenbrock, [0.0, 1.5, 0.0], [-2.0, -INF, 0.5], [INF] * 3, 5000),
        (nan_region, [-0.48, 0.0], [-INF] * 2, [INF] * 2, 3),
        (rosenbrock, [0.5, 0.8], [-2.0, -2.0], [0.5, 0.8], 0),  # no evaluation at all
    ]
    results, rounds = assert_each_run_as_alone(problems)
    assert [nfev for _, _, nfev in results][1:4:2] == [7, 3] and results[4][2] == 0
    assert rounds[0] == [0, 1, 2, 3] and len(set(map(len, rounds))) >= 3
