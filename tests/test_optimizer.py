"""`estimation._bfgs_steps`, the projected BFGS every fit step runs: known
minima on boxes, the minima scipy's L-BFGS-B finds, every point inside the
box, the evaluation budget, penalised points, and runs driven in lockstep
giving each run the result it gets alone."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from claimtails.estimation import _PENALTY, _bfgs_steps, _lockstep

INF = math.inf


def run(fn, x0, lb=None, ub=None, xtol=1e-8, maxfev=5000, points=None):
    """One run of `_bfgs_steps` on `fn`, which maps a point to (value,
    gradient); returns (fun, x, nfev) and appends every point to `points`."""
    lb = lb or [-INF] * len(x0)
    ub = ub or [INF] * len(x0)

    def evaluate(xs):
        if points is not None:
            points.extend(xs)
        return [fn(x) for x in xs]

    return _lockstep(evaluate, [_bfgs_steps(list(x0), lb, ub, xtol, maxfev)])[0]


def quadratic(centre, scale, cross=0.0):
    """sum scale_i (x_i - c_i)^2 + cross d_0 d_last, with its gradient."""

    def fn(x):
        d = [v - c for v, c in zip(x, centre)]
        grad = [2.0 * a * t for a, t in zip(scale, d)]
        grad[0] += cross * d[-1]
        grad[-1] += cross * d[0]
        return sum(a * t * t for a, t in zip(scale, d)) + cross * d[0] * d[-1], grad

    return fn


def rosenbrock(x):
    value = sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(x[:-1], x[1:]))
    grad = [0.0] * len(x)
    for i, (a, b) in enumerate(zip(x[:-1], x[1:])):
        grad[i] += -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
        grad[i + 1] += 200.0 * (b - a * a)
    return value, grad


def disc(x):
    # the fit's penalty outside the unit disc, a bowl centred at (2, 0) inside it
    if x[0] * x[0] + x[1] * x[1] > 1.0:
        return _PENALTY, None
    return (x[0] - 2.0) ** 2 + x[1] ** 2, [2.0 * (x[0] - 2.0), 2.0 * x[1]]


def nan_region(x):
    if x[0] < -0.5:
        return math.nan, [math.nan] * len(x)
    return (x[0] + 1.0) ** 2 + sum((v - 0.5) ** 2 for v in x[1:]), (
        [2.0 * (x[0] + 1.0)] + [2.0 * (v - 0.5) for v in x[1:]]
    )


@st.composite
def separable_quadratics(draw):
    """A quadratic in 1-3 dimensions without cross terms, a start and (maybe)
    a box: its minimum on the box is the centre clipped to the box."""
    n = draw(st.integers(1, 3))
    coord = st.floats(-5.0, 5.0)
    centre = draw(st.lists(coord, min_size=n, max_size=n))
    scale = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    x0 = draw(st.lists(coord, min_size=n, max_size=n))
    lb, ub = [-INF] * n, [INF] * n
    if draw(st.booleans()):
        lb = [v - draw(st.floats(0.0, 4.0)) for v in x0]
        ub = [v + draw(st.floats(0.0, 4.0)) for v in x0]
    return quadratic(centre, scale), x0, lb, ub, centre


@settings(max_examples=150, deadline=None)
@given(separable_quadratics())
def test_quadratics_reach_their_minimum_on_the_box(problem):
    fn, x0, lb, ub, centre = problem
    points = []
    fun, x, nfev = run(fn, x0, lb, ub, points=points)
    want = [min(max(c, lo), hi) for c, lo, hi in zip(centre, lb, ub)]
    assert np.allclose(x, want, rtol=0.0, atol=1e-6), (x, want)
    assert fun == fn(x)[0] and len(points) == nfev
    assert all(lo <= v <= hi for p in points for v, lo, hi in zip(p, lb, ub))


def scipy_minimum(fn, x0, lb, ub):
    """(fun, x) of scipy's L-BFGS-B on `fn` from `x0` in the box, with tight
    tolerances; a penalised point has a zero gradient there."""
    def value_and_gradient(x):
        value, grad = fn(x.tolist())
        return value, np.zeros(len(x)) if grad is None else np.array(grad)

    res = minimize(value_and_gradient, np.array(x0, dtype=float), jac=True,
                   method="L-BFGS-B", bounds=list(zip(lb, ub)),
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxfun": 10000, "maxiter": 10000})
    return float(res.fun), res.x.tolist()


def assert_same_minimum(fn, x0, lb=None, ub=None):
    lb = lb or [-INF] * len(x0)
    ub = ub or [INF] * len(x0)
    fun, x, _ = run(fn, x0, lb, ub)
    want_fun, want_x = scipy_minimum(fn, x0, lb, ub)
    assert abs(fun - want_fun) <= 1e-9 * max(1.0, abs(want_fun)), (fun, want_fun)
    assert np.allclose(x, want_x, rtol=0.0, atol=1e-6), (x, want_x)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n),
    st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
    st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n),
    st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)), min_size=n, max_size=n),
    st.floats(-0.05, 0.05), st.booleans())))
def test_quadratics_match_scipy(drawn):
    # with a cross term the minimum on the box is not the clipped centre
    centre, scale, x0, widths, cross, boxed = drawn
    lb = [v - lo for v, (lo, _) in zip(x0, widths)] if boxed else None
    ub = [v + hi for v, (_, hi) in zip(x0, widths)] if boxed else None
    assert_same_minimum(quadratic(centre, scale, cross=cross), x0, lb, ub)


def plateau(x):
    # the fit's penalty outside the unit disc, a bowl centred at (-0.15, 0, ...) inside it
    r2 = sum(v * v for v in x)
    if r2 > 1.0:
        return _PENALTY, None
    return r2 + 0.3 * x[0], [2.0 * x[0] + 0.3] + [2.0 * v for v in x[1:]]


@pytest.mark.parametrize("fn,x0,lb,ub", [
    pytest.param(rosenbrock, [-1.2, 1.0], None, None, id="unbounded"),
    # x_3 >= 0.5 keeps (1, 1, 1) out: both end at the local minimum on that bound
    pytest.param(rosenbrock, [-1.2, 1.0, 0.7], [-2.0, -INF, 0.5], None, id="half-bounded"),
    pytest.param(rosenbrock, [0.5, 0.8], [-2.0, -2.0], [0.5, 0.8], id="start-on-upper-bound"),
    pytest.param(rosenbrock, [0.0, 1.5, 0.0], None, None, id="zero-start-coordinate"),
    pytest.param(plateau, [0.7, 0.7], None, None, id="tied-plateau-2d"),
    pytest.param(plateau, [0.6, 0.6, 0.5], [-INF, 0.0, -1.0], [1.0, INF, 1.0],
                 id="tied-plateau-3d"),
])
def test_pinned_problems_match_scipy(fn, x0, lb, ub):
    assert_same_minimum(fn, x0, lb, ub)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
       st.lists(st.floats(0.5, 10.0), min_size=3, max_size=3), st.floats(-0.9, 0.9))
def test_correlated_quadratics_reach_their_centre(centre, scale, corr):
    # the cross term keeps the Hessian positive definite: |cross| < 2 sqrt(s0 s2)
    fn = quadratic(centre, scale, cross=2.0 * corr * math.sqrt(scale[0] * scale[2]))
    _, x, _ = run(fn, [0.0, 0.0, 0.0])
    assert np.allclose(x, centre, rtol=0.0, atol=1e-6), (x, centre)


@pytest.mark.parametrize("x0,lb,ub,want", [
    pytest.param([-1.2, 1.0], None, None, [1.0, 1.0], id="2d"),
    pytest.param([-1.2, 1.0, 0.7], None, None, [1.0, 1.0, 1.0], id="3d"),
    pytest.param([0.0, 1.5, 0.0], [-2.0, -INF, 0.5], None, [1.0, 1.0, 1.0], id="3d-half-bounded"),
    # x <= 0.5 holds the first coordinate on its bound, where y = x^2 is best
    pytest.param([-1.2, 1.0], [-2.0, -2.0], [0.5, 2.0], [0.5, 0.25], id="2d-minimum-on-bound"),
    pytest.param([0.5, 0.8], [-2.0, -2.0], [0.5, 0.8], [0.5, 0.25], id="start-on-upper-bound"),
])
def test_rosenbrock_minima(x0, lb, ub, want):
    points = []
    _, x, nfev = run(rosenbrock, x0, lb, ub, points=points)
    assert np.allclose(x, want, rtol=0.0, atol=1e-6), x
    lb, ub = lb or [-INF] * len(x0), ub or [INF] * len(x0)
    assert all(lo <= v <= hi for p in points for v, lo, hi in zip(p, lb, ub))
    assert nfev < 500


@pytest.mark.parametrize("fn,x0", [
    pytest.param(rosenbrock, [-1.2, 1.0], id="rosenbrock"),
    pytest.param(disc, [0.0, 0.5], id="disc"),
    pytest.param(nan_region, [-0.4, 1.0, 2.0], id="nan-region"),
])
def test_every_budget_is_kept(fn, x0):
    full = run(fn, x0)
    for maxfev in range(0, full[2] + 2):
        points = []
        fun, x, nfev = run(fn, x0, maxfev=maxfev, points=points)
        assert nfev == len(points) == min(maxfev, full[2])
        if nfev:
            # the result is the best point evaluated, and its value
            assert list(x) in points and fun == min(f for f, _ in map(fn, points)
                                                    if not math.isnan(f))


def test_penalised_start_ends_the_run():
    fun, x, nfev = run(disc, [2.0, 0.0])
    assert (fun, x, nfev) == (_PENALTY, [2.0, 0.0], 1)


def test_no_budget_evaluates_nothing():
    assert run(rosenbrock, [0.5, 0.8], maxfev=0) == (INF, [0.5, 0.8], 0)


@pytest.mark.parametrize("fn,x0", [
    pytest.param(disc, [0.0, 0.5], id="penalty-plateau"),
    pytest.param(nan_region, [-0.4, 1.0, 2.0], id="nan-region"),
])
def test_undefined_trial_points_are_refused(fn, x0):
    # the steps head out of the region where the function is defined; such a
    # trial point fails the line search, which halves the step back inside
    points = []
    fun, x, _ = run(fn, x0, points=points)
    values = [fn(p)[0] for p in points]
    defined = [v for v in values if math.isfinite(v) and v != _PENALTY]
    assert len(defined) < len(values)
    assert fun == fn(x)[0] == min(defined) < fn(x0)[0]


def test_a_clipped_step_that_rises_is_refused():
    # after two steps the inverse-Hessian estimate is not diagonal, and the
    # trial point of evaluation 6 is clipped to the box so that g's > 0;
    # there the Armijo bound alone would accept a value above the current one
    a = [[1.1334421167648083, 0.5983174530483275], [0.5983174530483275, 0.44907845193002893]]
    b = [-0.1281895266120758, 0.11504920407091115]
    lb, ub = [-0.931781003256904, -0.26805723931220987], [0.7988193212275033, 0.9452301909364965]
    x0 = [-0.45940314729051923, -0.24868195502384577]

    def bowl(x):
        grad = [row[0] * x[0] + row[1] * x[1] - bi for row, bi in zip(a, b)]
        return 0.5 * (grad[0] * x[0] + grad[1] * x[1]) - 0.5 * (b[0] * x[0] + b[1] * x[1]), grad

    points = []
    run(bowl, x0, lb, ub, maxfev=6, points=points)
    rising = points[5]
    current = min(points[:5], key=lambda x: bowl(x)[0])
    f, g = bowl(current)
    slope = sum(d * (u - v) for d, u, v in zip(g, rising, current))
    assert slope > 0.0

    def bumped(x):
        # the value at the clipped trial point rises, within the Armijo bound
        value, grad = bowl(x)
        return (f + 0.5e-4 * slope, grad) if x == rising else (value, grad)

    assert run(bumped, x0, lb, ub, maxfev=6) == (f, current, 6)
    points = []
    fun, x, _ = run(bumped, x0, lb, ub, points=points)
    assert rising in points and fun == min(bumped(p)[0] for p in points) < f


def test_a_coordinate_pushed_out_of_the_box_is_held():
    # the bowl's centre lies below the box in x, so x stays on its bound
    fn = quadratic([-3.0, 2.0], [1.0, 4.0])
    points = []
    _, x, _ = run(fn, [0.0, 0.0], [0.0, -5.0], [5.0, 5.0], points=points)
    assert x[0] == 0.0 and x[1] == pytest.approx(2.0, abs=1e-6)
    assert all(p[0] == 0.0 for p in points)


def labelled(j, steps):
    """`steps`, with each point yielded as (j, point)."""
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

    def evaluate(points):
        rounds.append([j for j, _ in points])
        return [problems[j][0](x) for j, x in points]

    runs = [labelled(j, _bfgs_steps(list(x0), lb, ub, 1e-8, maxfev))
            for j, (_, x0, lb, ub, maxfev) in enumerate(problems)]
    return _lockstep(evaluate, runs), rounds


def assert_each_run_as_alone(problems):
    results, rounds = run_lockstep(problems)
    for (fn, x0, lb, ub, maxfev), (fun, x, nfev) in zip(problems, results):
        want_fun, want_x, want_nfev = run(fn, x0, lb, ub, maxfev=maxfev)
        assert nfev == want_nfev
        assert np.float64(fun).tobytes() == np.float64(want_fun).tobytes(), (fun, want_fun)
        assert np.array(x, dtype=float).tobytes() == np.array(want_x).tobytes(), (x, want_x)
    # each round holds every run still going, in run order, one point each
    for before, after in zip(rounds, rounds[1:]):
        assert after == sorted(after) and set(after) <= set(before)
    assert sum(map(len, rounds)) == sum(nfev for _, _, nfev in results)
    return results, rounds


@st.composite
def quadratics(draw):
    """A convex quadratic in 1-3 dimensions, a start and (maybe) a box around it."""
    fn, x0, lb, ub, centre = draw(separable_quadratics())
    if len(x0) > 1:
        scale = [draw(st.floats(0.1, 10.0)) for _ in x0]
        fn = quadratic(centre, scale, cross=draw(st.floats(-0.05, 0.05)))
    return fn, x0, lb, ub


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(quadratics(), st.integers(1, 120)), min_size=2, max_size=5))
def test_lockstep_runs_match_runs_alone(drawn):
    assert_each_run_as_alone([(*problem, maxfev) for problem, maxfev in drawn])


def test_runs_leave_the_lockstep_at_different_rounds():
    problems = [
        (rosenbrock, [-1.2, 1.0], [-INF] * 2, [INF] * 2, 5000),
        (disc, [0.0, 0.5], [-INF] * 2, [INF] * 2, 7),  # cut inside a line search
        (rosenbrock, [0.0, 1.5, 0.0], [-2.0, -INF, 0.5], [INF] * 3, 5000),
        (disc, [2.0, 0.0], [-INF] * 2, [INF] * 2, 5000),  # a penalised start
        (rosenbrock, [0.5, 0.8], [-2.0, -2.0], [0.5, 0.8], 0),  # no evaluation at all
    ]
    results, rounds = assert_each_run_as_alone(problems)
    assert [nfev for _, _, nfev in results][1:] == [7, results[2][2], 1, 0]
    assert rounds[0] == [0, 1, 2, 3] and len(set(map(len, rounds))) >= 3
