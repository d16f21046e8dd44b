"""The lockstep Newton refinement: properties of each problem's path.

Every test objective scores a row from its own problem's parameters with
elementwise arithmetic, so a row gets the same bits in any batch, as the
kappa kernel gives them (``test_kernels``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmetro.refine import STEP, first_call_rows, minimize


def wavy(seed, count, n):
    """Per problem a smooth multimodal objective: weighted cosines about
    its own centre and a coupling of the first and last inputs."""
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-1.0, 1.0, (count, n))
    weight = rng.uniform(0.5, 2.0, (count, n))
    coupling = rng.uniform(-0.3, 0.3, count)

    def fun(X, owners):
        d = X - centre[owners]
        return (coupling[owners] * np.sin(d[:, 0]) * np.cos(d[:, -1])
                - np.add.reduce(weight[owners] * np.cos(d), axis=1))
    return fun


def starts(seed, count, n):
    return np.random.default_rng([seed, 1]).uniform(-3.0, 3.0, (count, n))


def counting(fun):
    """``fun`` that also counts the rows it scores per problem."""
    rows = []

    def counted(X, owners):
        rows.append(owners.copy())
        return fun(X, owners)
    return counted, rows


runs = given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4),
             count=st.integers(1, 6))


@settings(max_examples=25, deadline=None)
@runs
def test_never_raises_a_start_value(seed, n, count):
    fun, x0 = wavy(seed, count, n), starts(seed, count, n)
    out = minimize(fun, x0, 0.3, 400)
    start = fun(x0, np.arange(count))
    assert (out.fun <= start).all()
    assert np.array_equal(fun(out.x, np.arange(count)), out.fun)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4),
       budgets=st.lists(st.integers(0, 300), min_size=1, max_size=6))
def test_evaluations_stay_within_each_budget(seed, n, budgets):
    count = len(budgets)
    fun, rows = counting(wavy(seed, count, n))
    out = minimize(fun, starts(seed, count, n), 0.3, np.array(budgets))
    scored = np.bincount(np.concatenate(rows or [np.empty(0, int)]),
                         minlength=count)
    assert np.array_equal(scored, out.nfev)
    assert (out.nfev <= budgets).all()
    # a problem whose budget holds its first call makes it
    assert np.array_equal(out.nfev > 0,
                          np.array(budgets) >= first_call_rows(n))


@settings(max_examples=15, deadline=None)
@runs
def test_each_problem_alone_and_in_any_batch(seed, n, count):
    fun, x0 = wavy(seed, count, n), starts(seed, count, n)
    budgets = 40 + 37 * np.arange(count)
    together = minimize(fun, x0, 0.3, budgets)
    order = np.random.default_rng(seed).permutation(count)
    shuffled = minimize(lambda X, owners: fun(X, order[owners]), x0[order],
                        0.3, budgets[order])
    for p in range(count):
        alone = minimize(lambda X, owners: fun(X, owners + p), x0[p:p + 1],
                         0.3, budgets[p])
        q = int(np.flatnonzero(order == p)[0])
        for run, i in ((alone, 0), (together, p), (shuffled, q)):
            assert np.array_equal(run.x[i], alone.x[0])
            assert run.fun[i] == alone.fun[0]
            assert (run.nfev[i], run.nit[i]) == (alone.nfev[0], alone.nit[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_first_newton_step_lands_on_a_quadratic_optimum(n):
    # a convex quadratic with its minimum within a tenth of the trust
    # radius: no probe beats the start, and the model is exact up to
    # rounding, so the second call scores the minimum
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    hessian = q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T
    x0 = rng.uniform(-1.0, 1.0, (1, n))
    optimum = x0[0] + rng.uniform(-0.05, 0.05, n)
    calls = []

    def fun(X, owners):
        calls.append(X.copy())
        d = X - optimum
        return 0.5 * np.add.reduce((d @ hessian) * d, axis=1)

    out = minimize(fun, x0, 1.0, 200)
    assert np.abs(calls[1][0] - optimum).max() < 1e-9
    assert np.abs(out.x[0] - optimum).max() < 1e-9


def test_every_row_lies_above_the_bound():
    # the free optimum lies below the bound of the second input, one start
    # lies below it too, and the inputs are coupled: the bounded optimum
    # has x_1 = 0.5 + 0.6 x_2, which the free Newton step misses
    rows = []

    def fun(X, owners):
        rows.append(X.copy())
        return (X[:, 0] - 0.5 - 0.6 * X[:, 1]) ** 2 + (X[:, 1] + 1.0) ** 2

    out = minimize(fun, [[0.0, 2.0], [1.0, -0.5]], 0.5, 500,
                   lower=[-np.inf, 0.0])
    assert np.concatenate(rows)[:, 1].min() >= STEP
    assert np.allclose(out.x, [[0.5 + 1.2 * STEP, 2 * STEP]] * 2,
                       rtol=0, atol=1e-8)


def test_a_better_probe_moves_the_start():
    # the start sits on a shallow minimum, where its model stops it; the
    # probe a radius to its right lies in the basin of the deep one
    def fun(X, owners):
        x = X[:, 0]
        return -0.1 * np.exp(-x ** 2 / 0.01) - np.exp(-(x - 0.9) ** 2 / 0.01)

    out = minimize(fun, [[0.0]], 1.0, 200)
    assert abs(out.x[0, 0] - 0.9) < 1e-6


def test_a_peak_narrower_than_the_model_step_is_reached():
    # a peak of half-width 3e-5, under the model's step: a step rejected at
    # the model's own scale refits it with a finer step
    width = 3e-5

    def fun(X, owners):
        return -1.0 / (1.0 + ((X[:, 0] - 0.3) / width) ** 2)

    out = minimize(fun, [[0.3 + 1.5 * width]], 1e-3, 400)
    assert out.fun[0] < -1.0 + 1e-10


def test_a_linear_direction_is_followed_until_the_budget_ends():
    # a zero Hessian gives no Newton step; the Cauchy point down the
    # gradient does, on the trust radius, at most MAX_RADIUS radii long
    budget = 2000
    path = []

    def linear(X, owners):
        path.append(X[0].copy())
        return -X.sum(axis=1)

    res = minimize(linear, np.zeros((1, 2)), 0.5, budget)
    # stopped only where no further model fits in the budget
    assert budget - 2 * 2 * 2 - 1 < res.nfev[0] <= budget
    steps = np.diff([point.sum() for point in path[1:]])
    assert (steps > 0).all() and np.isfinite(res.x).all()
    assert res.fun[0] == -res.x[0].sum() < -1e4


def test_a_flat_direction_is_followed_beside_a_curved_one():
    # linear in x_0, quadratic in x_1: x_1 converges and x_0 keeps moving
    res = minimize(lambda X, owners: X[:, 1] ** 2 - X[:, 0],
                   np.array([[0.0, 1.0]]), 0.5, 600)
    assert res.x[0, 0] > 100.0 and abs(res.x[0, 1]) < 1e-6


def test_a_non_finite_stencil_still_stops_its_problem():
    # past x_0 = 1 every row scores nan: the model there is flat, and the
    # problem stops at the last finite point instead of walking on
    res = minimize(lambda X, owners: np.where(X[:, 0] < 1.0, -X.sum(axis=1),
                                              np.nan),
                   np.zeros((1, 2)), 0.5, 2000)
    assert res.nfev[0] < 200 and res.x[0, 0] < 1.0
