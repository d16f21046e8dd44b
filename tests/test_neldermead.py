"""The lockstep Newton refinement against scipy's Nelder-Mead, the method
it replaced, on random problems.

Each problem has one minimum, away from the rows that score +inf or NaN.
Run to convergence, scipy's simplex and the refinement must reach the same
minimum: the same point to 1e-7 and the same value to 1e-14, or, where the
values are rounded to 1e-12, a value no worse than scipy's at a point
within the rounding's reach. The refinement runs every problem in one
lockstep batch; each test function is computed elementwise, so a row's
value does not depend on the other rows of a call.
"""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from qmetro.refine import STEP, minimize

#: the bound of the first input below which the "inf" problems score +inf,
#: like a negative dephasing strength
LOWER = -1.8


def convex_problems(rng, num, n, kind):
    """Rotated sums of quadratics and small sines, strictly convex, with
    their minimum within 0.6 of a centre ``c`` in [-1, 1]^n; ``kind`` adds
    +inf rows below ``LOWER``, NaN rows 0.8 above the centre or values
    rounded to 1e-12. Returns the problems and their centres."""
    q = np.linalg.qr(rng.standard_normal((num, n, n)))[0]
    a = rng.uniform(0.2, 3.0, (num, n))
    c = rng.uniform(-1.0, 1.0, (num, n))
    w = rng.uniform(0.0, 1.0, (num, n))
    phase = rng.uniform(0.0, 2 * np.pi, (num, n))

    def fun(X, problems):
        y = np.einsum("rij,rj->ri", q[problems], X - c[problems])
        acc = np.add.reduce(a[problems] * y ** 2 + 0.1 * np.sin(
            w[problems] * y + phase[problems]), axis=1)
        if kind == "inf":
            acc = np.where(X[:, 0] < LOWER, np.inf, acc)
        elif kind == "nan":
            acc = np.where(X[:, -1] > c[problems, -1] + 0.8, np.nan, acc)
        elif kind == "plateau":
            acc = np.round(acc, 12)
        return acc

    return fun, c


@pytest.mark.parametrize("kind", ["smooth", "inf", "nan", "plateau"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_random_problems_match_scipy(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    num = 12
    fun, c = convex_problems(rng, num, n, kind)
    x0 = c + rng.uniform(-0.7, 0.7, (num, n))
    maxfev = rng.integers(60 * n * n + 60, 2000, num)
    rows = []

    def recorded(X, problems):
        rows.append(X.copy())
        return fun(X, problems)

    lower = [LOWER] + [-np.inf] * (n - 1) if kind == "inf" else None
    ours = minimize(recorded, x0, 0.3, maxfev, lower=lower)
    assert (ours.nfev <= maxfev).all()
    assert np.isfinite(ours.fun).all()
    if kind == "inf":
        # the bound keeps every row out of the +inf region
        assert np.concatenate(rows)[:, 0].min() >= LOWER + STEP
    for p in range(num):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            theirs = scipy_minimize(
                lambda x: fun(x[None], np.array([p]))[0], x0[p],
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-15, "maxfev": 10 ** 5,
                         "maxiter": 10 ** 5})
        assert theirs.success
        if kind == "plateau":
            assert ours.fun[p] <= theirs.fun
            assert np.abs(ours.x[p] - theirs.x).max() < 1e-5
        else:
            assert abs(ours.fun[p] - theirs.fun) <= 1e-14
            assert np.abs(ours.x[p] - theirs.x).max() < 1e-7


def test_no_iteration_limit_beside_the_budget():
    # down an exponential slope each Newton step is one unit long and never
    # converges, so only the budget stops the problem: 666 steps of 3 rows
    # here, past the 200 * n iterations scipy's Nelder-Mead defaults to
    # without one. The start keeps every value and its cube finite
    def fun(X, problems):
        return np.exp(-X[:, 0])

    out = minimize(fun, np.full((1, 1), -200.0), 0.5, 2000)
    assert out.nfev[0] == 2000
    assert out.nit[0] == 666
    assert abs(out.x[0, 0] - 464.0) < 1e-6
