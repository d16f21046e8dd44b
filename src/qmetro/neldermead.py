"""Nelder-Mead minimization of many independent problems in lockstep.

``minimize`` runs the Nelder-Mead simplex method (Lagarias et al., SIAM J.
Optim. 9, 112, 1998) with scipy's coefficients and rules: the same steps as
``scipy.optimize.minimize(method="Nelder-Mead")`` given an initial simplex
and a ``maxfev`` budget, without bounds or adaptive coefficients and so
without an iteration limit. It advances P problems together, and each
simplex phase (the initial vertices, the reflection, the expansion or
contraction, the shrink) is one objective call that scores a row for every
problem in that phase. As long as the objective scores a row the same
whatever else is in the call, each problem takes the same path, evaluation
for evaluation, as a scipy run on it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# reflection, expansion, contraction and shrink coefficients, as scipy
# writes them
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5


@dataclass(frozen=True)
class SimplexResult:
    """Per problem: the best vertex, the smallest final value (NaN if any
    vertex is NaN, as ``np.min`` gives), the evaluations, the iterations as
    scipy counts them (from 1), and the final simplex and its values, sorted
    (scipy's ``final_simplex``)."""

    x: np.ndarray           # (P, n)
    fun: np.ndarray         # (P,)
    nfev: np.ndarray        # (P,)
    nit: np.ndarray         # (P,)
    simplex: np.ndarray     # (P, n + 1, n)
    values: np.ndarray      # (P, n + 1)


def minimize(fun, simplex, maxfev, xatol, fatol) -> SimplexResult:
    """Minimize P problems from their initial simplices (P, n + 1, n).

    ``fun(X, problems)`` returns the values at the rows of X (M, n), where
    row i belongs to problem ``problems[i]``. ``maxfev`` is one budget or
    one per problem; as in scipy, an evaluation that would exceed it is not
    made, and the iteration it belongs to ends there without being counted.
    A problem stops when its simplex lies within ``xatol`` of the best
    vertex and its values within ``fatol`` of the best value.
    """
    sim = np.array(simplex, dtype=float)
    num, vertices, n = sim.shape
    maxfev = np.broadcast_to(np.asarray(maxfev), (num,))
    fsim = np.full((num, vertices), np.inf)
    nfev = np.zeros(num, dtype=int)
    nit = np.ones(num, dtype=int)

    def evaluate(problems, X):
        nfev[:] += np.bincount(problems, minlength=num)
        if not len(problems):
            return np.empty(0)
        return np.asarray(fun(X, problems), dtype=float)

    def sort(s, f):
        """The simplices (R, n + 1, n) and values (R, n + 1), each row
        ordered by value as ``np.argsort`` orders it."""
        order = np.argsort(f, axis=1)
        row = np.arange(len(f))[:, None]
        return s[row, order], f[row, order]

    first = np.arange(vertices)[None, :] < maxfev[:, None]
    problems, k = np.nonzero(first)
    fsim[problems, k] = evaluate(problems, sim[problems, k])
    # scipy sorts twice before its first iteration
    sim, fsim = sort(*sort(sim, fsim))

    running = nfev < maxfev
    while running.any():
        rows = np.flatnonzero(running)
        s, f = sim[rows], fsim[rows]
        done = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= fatol)
        if done.any():
            running[rows[done]] = False
            rows, s, f = rows[~done], s[~done], f[~done]
            if not len(rows):
                break

        xbar = np.add.reduce(s[:, :-1], axis=1) / n
        worst = s[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = evaluate(rows, xr)

        expand = fxr < f[:, 0]
        take_xr = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~take_xr & (fxr < f[:, -1])
        inside = ~(expand | take_xr | outside)
        x2 = np.where(expand[:, None],
                      (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
                      np.where(outside[:, None],
                               (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
                               (1 - _PSI) * xbar + _PSI * worst))
        allowed = ~take_xr & (nfev[rows] < maxfev[rows])
        f2 = np.full(len(rows), np.nan)
        f2[allowed] = evaluate(rows[allowed], x2[allowed])

        use2 = allowed & ((expand & (f2 < fxr)) | (outside & (f2 <= fxr))
                          | (inside & (f2 < f[:, -1])))
        complete = use2 | take_xr | (allowed & expand)
        s[:, -1] = np.where(use2[:, None], x2,
                            np.where(complete[:, None], xr, worst))
        f[:, -1] = np.where(use2, f2, np.where(complete, fxr, f[:, -1]))

        shrink = np.flatnonzero(allowed & ~expand & ~use2)
        if len(shrink):
            left = maxfev[rows[shrink]] - nfev[rows[shrink]]
            j = np.arange(1, n + 1)[None, :]
            # vertex j moves before its evaluation is attempted, so the
            # vertex whose evaluation the budget refuses moves too
            moved = j <= left[:, None] + 1
            scored = j <= left[:, None]
            best = s[shrink, :1]
            shrunk = best + _SIGMA * (s[shrink, 1:] - best)
            tail = s[shrink, 1:]
            tail[moved] = shrunk[moved]
            s[shrink, 1:] = tail
            values = f[shrink, 1:]
            values[scored] = evaluate(np.repeat(rows[shrink], scored.sum(1)),
                                      shrunk[scored])
            f[shrink, 1:] = values
            complete[shrink] = scored[:, -1]

        nit[rows[complete]] += 1
        sim[rows], fsim[rows] = sort(s, f)
        running[rows] = nfev[rows] < maxfev[rows]

    return SimplexResult(x=sim[:, 0].copy(), fun=np.min(fsim, axis=1),
                         nfev=nfev, nit=nit, simplex=sim, values=fsim)
