"""Nelder-Mead minimization of many independent problems in lockstep.

``minimize`` runs the Nelder-Mead simplex method (Lagarias et al., SIAM J.
Optim. 9, 112, 1998) with scipy's coefficients and rules: the same steps as
``scipy.optimize.minimize(method="Nelder-Mead")`` given an initial simplex
and a ``maxfev`` budget, without bounds or adaptive coefficients and so
without an iteration limit. It advances P problems together, and each
objective call scores a row for every problem in one simplex phase: the
initial vertices, a step, or the shrink. A step scores the reflection and,
speculatively, its three possible successors (the expansion and both
contractions) in one call, which cuts the sequential depth of an iteration
to the step and the shrink (Lee & Wiswall, Comput. Econ. 30, 171, 2007);
where those 4 rows per problem would exceed ``max_rows``, it scores the
reflection first and then only the successor that its value selects. Only
the rows that scipy would evaluate count as evaluations. As long as the
objective scores a row the same whatever else is in the call, each problem
takes the same path, evaluation for evaluation, as a scipy run on it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# reflection, expansion, contraction and shrink coefficients, as scipy
# writes them
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
#: t of each candidate (1 + t) * xbar - t * worst of a step: the expansion,
#: the reflection, the outside and the inside contraction. Each gives the
#: bits of scipy's own expression for its point, the inside one too:
#: (1 - psi) * xbar + psi * worst is 0.5 * xbar - (-0.5 * worst)
_STEPS = np.array([_RHO * _CHI, _RHO, _PSI * _RHO, -_PSI])[:, None, None]
_GROW = 1 + _STEPS
#: the vertices a reflection's value is compared with: the best, the
#: second worst and the worst
_CUTS = np.array([0, -2, -1])


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


def minimize(fun, simplex, maxfev, xatol, fatol, max_rows=0,
             counted=None) -> SimplexResult:
    """Minimize P problems from their initial simplices (P, n + 1, n).

    ``fun(X, problems)`` returns the values at the rows of X (M, n), where
    row i belongs to problem ``problems[i]``. ``maxfev`` is one budget or
    one per problem; as in scipy, an evaluation that would exceed it is not
    made, and the iteration it belongs to ends there without being counted.
    A problem stops when its simplex lies within ``xatol`` of the best
    vertex and its values within ``fatol`` of the best value.

    A step scores its four candidates in one call where they take at most
    ``max_rows`` rows, and else in two calls. After each call of ``fun``,
    ``counted`` (if given) receives a boolean mask of the call's rows that
    are evaluations: all of them, except the successors that a speculative
    call scored and the step did not use, or that the budget refused.
    """
    sim = np.array(simplex, dtype=float)
    num, vertices, n = sim.shape
    maxfev = np.broadcast_to(np.asarray(maxfev), (num,))
    fsim = np.full((num, vertices), np.inf)
    nfev = np.zeros(num, dtype=int)
    nit = np.ones(num, dtype=int)

    def evaluate(problems, X):
        """``fun`` at the rows X of ``problems``, every row an evaluation;
        the caller counts them."""
        if not len(problems):
            return np.empty(0)
        values = np.asarray(fun(X, problems), dtype=float)
        if counted is not None:
            counted(np.ones(len(problems), dtype=bool))
        return values

    def sort(s, f):
        """The simplices (R, n + 1, n) and values (R, n + 1), each row
        ordered by value as ``np.argsort`` orders it."""
        order = f.argsort(axis=1)
        row = np.arange(len(f))[:, None]
        return s[row, order], f[row, order]

    first = np.arange(vertices)[None, :] < maxfev[:, None]
    problems, k = np.nonzero(first)
    fsim[problems, k] = evaluate(problems, sim[problems, k])
    nfev += first.sum(axis=1)
    # scipy sorts twice before its first iteration
    sim, fsim = sort(*sort(sim, fsim))

    # the running problems, compacted: their indices, simplices, values,
    # evaluations, iterations and budgets, written back when they stop (at
    # first they are all problems' own arrays, updated in place)
    rows, s, f, fev, its, cap = np.arange(num), sim, fsim, nfev, nit, maxfev
    at = np.arange(num)
    while True:
        stop = fev >= cap
        # scipy's test, its simplex size read only where the values agree;
        # the ufunc reductions skip ndarray.max's Python layer
        close = np.maximum.reduce(np.abs(f[:, :1] - f[:, 1:]), axis=1) <= fatol
        if close.any():
            stop |= close & (np.maximum.reduce(
                np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2)) <= xatol)
        if stop.any():
            done = rows[stop]
            sim[done], fsim[done] = s[stop], f[stop]
            nfev[done], nit[done] = fev[stop], its[stop]
            keep = ~stop
            if not keep.any():
                break
            rows, s, f, fev, its, cap = (rows[keep], s[keep], f[keep],
                                         fev[keep], its[keep], cap[keep])
            at = np.arange(len(rows))

        xbar = np.add.reduce(s[:, :-1], axis=1) / n
        worst = s[:, -1]
        # (4, R, n): the expansion, the reflection and the two contractions
        candidates = _GROW * xbar - _STEPS * worst
        speculate = candidates.shape[0] * len(rows) <= max_rows
        if speculate:
            scores = np.asarray(fun(
                candidates.reshape(-1, n),
                np.concatenate((rows,) * len(candidates))),
                dtype=float).reshape(len(candidates), -1)
            fxr = scores[1]
        else:
            fxr = evaluate(rows, candidates[1])
        fev += 1

        # the first of the best, second worst and worst vertex that the
        # reflection scores below, else 3: so 0 expands, 1 takes the
        # reflection, 2 contracts outside and 3 inside; candidates[kind] is
        # the point the step moves to
        below = fxr[:, None] < f[:, _CUTS]
        kind = np.where(np.logical_or.reduce(below, axis=1),
                        below.argmax(axis=1), 3)
        x2 = candidates[kind, at]
        allowed = (kind != 1) & (fev < cap)
        if speculate:
            f2 = scores[kind, at]
            if counted is not None:
                used = np.zeros(scores.shape, dtype=bool)
                used[kind, at] = allowed
                used[1] = True
                counted(used.ravel())
        else:
            f2 = fxr.copy()
            f2[allowed] = evaluate(rows[allowed], x2[allowed])
        fev += allowed

        # an expansion or outside contraction is kept at or below the
        # reflection's value (the expansion strictly), an inside one
        # strictly below the worst
        limit = np.where(kind == 3, f[:, -1], fxr)
        move = (kind == 1) | (allowed & (
            (f2 < limit) | ((kind == 2) & (f2 == limit))))
        # a rejected expansion keeps the reflection; a rejected contraction
        # shrinks
        complete = move | (allowed & (kind == 0))
        s[:, -1] = np.where(move[:, None], x2,
                            np.where(complete[:, None], candidates[1], worst))
        f[:, -1] = np.where(move, f2, np.where(complete, fxr, f[:, -1]))

        shrink = np.flatnonzero(allowed & ~complete)
        if len(shrink):
            left = cap[shrink] - fev[shrink]
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
            fev[shrink] += scored.sum(1)
            complete[shrink] = scored[:, -1]

        its += complete
        s, f = sort(s, f)

    return SimplexResult(x=sim[:, 0].copy(), fun=np.min(fsim, axis=1),
                         nfev=nfev, nit=nit, simplex=sim, values=fsim)
