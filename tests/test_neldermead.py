"""The lockstep Nelder-Mead against scipy's, problem by problem, bit for bit.

The test functions are computed elementwise, so a row's value does not
depend on the other rows of a call; each problem must then return scipy's
``x``, ``fun``, ``nfev``, ``nit`` and final simplex exactly, including when
its budget runs out in the middle of an expansion or a shrink, and when rows
score +inf or NaN, whether each step scores its four candidates in one call
or the reflection and its successor in two.
"""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from qmetro.neldermead import minimize

XATOL, FATOL = 1e-7, 1e-12
#: a row bound that every step of these tests fits in, and one that none does
ONE_CALL, TWO_CALLS = 10 ** 6, 0


def simplices(x0, steps):
    """(P, n + 1, n): x0 and x0 moved by one step along each axis."""
    sim = np.repeat(x0[:, None, :], x0.shape[1] + 1, axis=1)
    for d, step in enumerate(steps):
        sim[:, d + 1, d] += step
    return sim


def assert_matches_scipy(fun, sim, maxfev, xatol=XATOL, fatol=FATOL):
    """Both step forms against scipy; returns the one-call run."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        runs = [minimize(fun, sim, maxfev, xatol, fatol, max_rows=bound)
                for bound in (ONE_CALL, TWO_CALLS)]
        for p in range(len(sim)):
            theirs = scipy_minimize(
                lambda x: fun(x[None], np.array([p]))[0], sim[p, 0],
                method="Nelder-Mead",
                options={"maxfev": int(maxfev[p]), "xatol": xatol,
                         "fatol": fatol, "initial_simplex": sim[p]})
            simplex, values = theirs.final_simplex
            for ours in runs:
                assert np.array_equal(ours.x[p], theirs.x)
                assert np.array_equal(ours.fun[p], theirs.fun,
                                      equal_nan=True)
                assert ours.nfev[p] == theirs.nfev
                assert ours.nit[p] == theirs.nit
                assert np.array_equal(ours.simplex[p], simplex)
                assert np.array_equal(ours.values[p], values, equal_nan=True)
    return runs[0]


def smooth_problems(rng, num, n, kind):
    """Sums of shifted quadratics and sines, one set of coefficients per
    problem; ``kind`` adds +inf rows, NaN rows or rounded plateaus."""
    a = rng.uniform(0.2, 3.0, (num, n))
    c = rng.uniform(-1.0, 1.0, (num, n))
    w = rng.uniform(0.0, 2.0, (num, n))

    def fun(X, problems):
        ap, cp, wp = a[problems], c[problems], w[problems]
        acc = np.zeros(len(X))
        for i in range(n):
            acc = acc + ap[:, i] * (X[:, i] - cp[:, i]) ** 2 \
                + 0.3 * np.sin(wp[:, i] * X[:, i])
        if kind == "inf":
            # like a negative dephasing strength: never the minimum
            acc = np.where(X[:, 0] < cp[:, 0] - 0.3, np.inf, acc)
        elif kind == "nan":
            acc = np.where(X[:, -1] > cp[:, -1] + 0.4, np.nan, acc)
        elif kind == "plateau":
            acc = np.round(acc, 2)
        return acc

    return fun


@pytest.mark.parametrize("kind", ["smooth", "inf", "nan", "plateau"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_random_problems_match_scipy(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    num = 12
    fun = smooth_problems(rng, num, n, kind)
    sim = simplices(rng.uniform(-1.0, 1.0, (num, n)),
                    rng.uniform(0.05, 0.8, n))
    # from n + 2, the smallest budget that refines, to budgets that converge
    maxfev = np.concatenate([n + 2 + np.arange(num // 2),
                             rng.integers(n + 8, 60 * n + 60, num - num // 2)])
    out = assert_matches_scipy(fun, sim, maxfev)
    assert (out.nfev <= maxfev).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_budget_cut_mid_expansion(n):
    # down an unbounded plane the simplex keeps expanding, so the budget
    # runs out at reflections and at refused expansions
    def fun(X, problems):
        return -X.sum(axis=1) - problems

    budgets = n + 2 + np.arange(3 * n + 3)
    sim = simplices(np.zeros((len(budgets), n)), [0.3] * n)
    out = assert_matches_scipy(fun, sim, budgets)
    assert (out.nfev == budgets).all()


def test_no_iteration_limit_beside_the_budget():
    # with maxfev given scipy sets no iteration limit: 1000 iterations here,
    # past the 200 * n it defaults to without a budget
    def fun(X, problems):
        return -X.sum(axis=1)

    out = assert_matches_scipy(fun, simplices(np.zeros((1, 2)), [0.3, 0.3]),
                               np.array([2000]), xatol=0.0, fatol=0.0)
    assert out.nit[0] == 1000


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_budget_cut_mid_shrink(n):
    # NaN everywhere: every iteration contracts inside, fails and shrinks,
    # so most budgets run out part way through a shrink
    def fun(X, problems):
        return np.full(len(X), np.nan)

    budgets = n + 2 + np.arange(3 * (n + 2))
    sim = simplices(np.zeros((len(budgets), n)), [0.4] * n)
    out = assert_matches_scipy(fun, sim, budgets)
    assert np.isnan(out.fun).all()


def test_one_call_per_simplex_phase():
    # the phases are the initial vertices, the steps and the shrinks; a
    # step scores its reflection and three possible successors in one call
    # where they fit in the row bound, so an iteration takes at most two
    # calls, and in two calls (reflection, then successor) where they do
    # not. Only the rows scipy would evaluate are counted
    rng = np.random.default_rng(7)
    num, n = 30, 3
    inner = smooth_problems(rng, num, n, "smooth")
    sim = simplices(rng.uniform(-1.0, 1.0, (num, n)), [0.5] * n)
    for bound in (4 * num, TWO_CALLS):
        calls, masks = [], []

        def fun(X, problems):
            calls.append(len(problems))
            return inner(X, problems)

        out = minimize(fun, sim, 400, XATOL, FATOL, max_rows=bound,
                       counted=masks.append)
        assert calls[0] == num * (n + 1)
        assert [len(mask) for mask in masks] == calls
        assert sum(mask.sum() for mask in masks) == out.nfev.sum()
        if bound:
            assert len(calls) <= 1 + 2 * out.nit.max()
            assert max(calls) <= bound
            # the steps' unused successors are scored too
            assert sum(calls) > out.nfev.sum()
        else:
            assert len(calls) <= 1 + 3 * out.nit.max()
            assert sum(calls) == out.nfev.sum()
