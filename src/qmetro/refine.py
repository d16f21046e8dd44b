"""Lockstep refinement of many independent minimization problems: Newton
steps on quadratic models fitted by central differences, in a trust region
(Nocedal & Wright, *Numerical Optimization*, 2006, ch. 3-4 and 8). Each
call of the objective holds one step of every running problem, and a
problem's path depends only on its own rows, so it is the same alone and in
any batch wherever the objective scores a row the same in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

#: the central-difference step of the model, in every input
STEP = 1e-4
#: the finest step of a model
FINEST_STEP = 1e-6
#: a problem stops when its next step is no longer than ``XTOL``, in units
#: of its starting trust radius, or when its last accepted step gained, or
#: its model predicts for the next, no more than ``FTOL`` times its value
XTOL = 1e-7
FTOL = 1e-14
#: a curvature at most ``FLAT`` times the largest of its model is left out
#: of a Newton step, and a model whose most negative curvature is no lower
#: than ``-BENT`` times the largest takes one
FLAT = 1e-6
BENT = 1e-3
#: the trust radius grows to at most this many starting radii, so that a
#: model that stays linear walks on rather than jumping to where a step of
#: ``STEP`` no longer changes the input
MAX_RADIUS = 1024.0


@dataclass(frozen=True)
class RefineResult:
    """Per problem: the best point scored, its value (inf where the budget
    allowed no call), the evaluations and the calls it took part in."""

    x: np.ndarray           # (P, n)
    fun: np.ndarray         # (P,)
    nfev: np.ndarray        # (P,)
    nit: np.ndarray         # (P,)


def _stencil(n: int) -> np.ndarray:
    """The model's 2n^2 + 1 rows in units of its step: the point, +-e_i,
    then (+, +), (+, -), (-, +), (-, -) along e_i, e_j for each i < j."""
    eye = np.eye(n)
    corners = [a * eye[i] + b * eye[j] for i, j in combinations(range(n), 2)
               for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return np.concatenate([np.zeros((1, n)), eye, -eye,
                           np.reshape(corners, (-1, n))])


def first_call_rows(n: int) -> int:
    """The rows a problem's first call scores: its model and 2n probes."""
    return 2 * n * n + 1 + 2 * n


def _model(values, n, dx):
    """The central-difference gradient (R, n) and Hessian (R, n, n) from
    each row's stencil values (R, 2n^2 + 1) at its step ``dx`` (R,); a
    stencil with a non-finite value gives a flat model, which stops its
    problem."""
    finite = np.isfinite(values).all(axis=1)
    v = np.where(finite[:, None], values, 0.0)
    center, plus, minus = v[:, :1], v[:, 1:n + 1], v[:, n + 1:2 * n + 1]
    dx = dx[:, None]
    gradient = (plus - minus) / (2 * dx)
    hessian = np.zeros((len(v), n, n))
    hessian[:, range(n), range(n)] = (plus - 2 * center + minus) / dx ** 2
    if n > 1:
        q = v[:, 2 * n + 1:].reshape(len(v), n * (n - 1) // 2, 4)
        mixed = (q[..., 0] - q[..., 1] - q[..., 2] + q[..., 3]) / (4 * dx ** 2)
        a, b = np.array(list(combinations(range(n), 2))).T
        hessian[:, a, b] = hessian[:, b, a] = mixed
    return gradient, hessian


def _step(x, gradient, hessian, scale, radius, floor):
    """Each problem's trial point, the length of its step in units of
    ``scale`` and the gain that the model predicts for it: the Newton step
    where the model's Hessian is positive semidefinite (``BENT``), plus,
    along its flat directions (``FLAT``), the step down their gradient to
    the trust radius, else the Cauchy point, the model's best point along
    the steepest descent; clipped to the trust ``radius``, with each input
    at its ``floor`` whose descent points below it held there."""
    held = (x <= floor) & (gradient > 0)
    g = np.where(held, 0.0, gradient * scale)
    h = np.where(held[:, :, None] | held[:, None, :], 0.0,
                 hessian * scale[:, None] * scale)
    w, v = np.linalg.eigh(h)
    top = np.maximum.reduce(np.abs(w), axis=1)[:, None]
    # along eigenvector k the Newton step is -c_k / w_k, where c = V^T g
    c = np.add.reduce(v * g[:, :, None], axis=1)
    flat = w <= FLAT * top
    k = np.divide(-c, w, out=np.zeros_like(c), where=~flat)
    # along the flat directions the model is linear, and its best point
    # there is the Cauchy point on the trust radius, down their gradient
    down = np.add.reduce(v * np.where(flat, c, 0.0)[:, None, :], axis=2)
    size = np.sqrt(np.add.reduce(down * down, axis=1))
    newton = np.add.reduce(v * k[:, None, :], axis=2) - down * np.divide(
        radius, size, out=np.zeros_like(size), where=size > 0)[:, None]
    slope = np.sqrt(np.add.reduce(g * g, axis=1))
    curve = np.add.reduce(g * np.add.reduce(h * g[:, None, :], axis=2), axis=1)
    reach = np.where(curve > 0, np.minimum(radius, slope ** 3 / np.where(
        curve > 0, curve, 1.0)), radius)
    cauchy = -g * np.divide(reach, slope, out=np.zeros_like(slope),
                            where=slope > 0)[:, None]
    u = np.where(w[:, :1] >= -BENT * top, newton, cauchy)
    length = np.sqrt(np.add.reduce(u * u, axis=1))
    clipped = length > radius
    u[clipped] *= (radius[clipped] / length[clipped])[:, None]
    gain = -np.add.reduce(u * (g + 0.5 * np.add.reduce(h * u[:, None, :],
                                                        axis=2)), axis=1)
    return np.maximum(x + u * scale, floor), np.minimum(length, radius), gain


def minimize(fun, x0, radius, maxfev, lower=None) -> RefineResult:
    """Minimize P problems from their starts ``x0`` (P, n).

    ``fun(X, problems)`` returns the values at the rows of X (M, n), where
    row i belongs to problem ``problems[i]``. ``radius`` (one value per
    input) is the starting trust radius and the unit of every step's
    length. ``maxfev`` is one budget or one per problem, and no problem
    exceeds it. ``lower`` holds a bound per input, or is None: every model
    is fitted at least ``2 * STEP`` above it, so every row lies at least
    ``STEP`` above it.

    A problem's first call scores the model at its start and the 2n probes
    start +- radius e_i, and moves to the best probe where that scores
    below the start. Every later call scores the model at the trial point,
    which is accepted where it scores at or below the accepted point. The
    trust radius doubles, up to ``MAX_RADIUS``, after a step that filled
    it and gained at least 3/4 of the model's prediction, and falls to half
    the step's length after one that gained less than 1/4 of it or was
    rejected. Each model's
    step is the length of the step to its point, within [``FINEST_STEP``,
    ``STEP``], so that a model near a narrow peak resolves it. An input at
    its bound whose descent points below it is held there. A problem stops
    when its next step is no longer than ``XTOL``, its last accepted step
    gained or its next is predicted to gain at most ``FTOL`` times its
    value, or its step would not move it. Where the budget has no room for
    another model, a step is scored alone, and backtracked one row at a
    time until one is accepted or the budget ends.
    """
    best_x = np.array(x0, dtype=float)
    num, n = best_x.shape
    scale = np.broadcast_to(np.asarray(radius, dtype=float), (n,))
    floor = np.broadcast_to(-np.inf if lower is None else
                            np.asarray(lower, dtype=float) + 2 * STEP, (n,))
    budget = np.broadcast_to(np.asarray(maxfev), (num,))
    offsets = _stencil(n)
    rows = len(offsets)
    best_f = np.full(num, np.inf)
    nfev, nit = np.zeros((2, num), dtype=int)

    def score(run, points, size):
        """``fun`` at ``points`` (M, n), ``size`` (one count, or one per
        problem) consecutive rows for each problem of ``run`` in turn."""
        nfev[run] += size
        nit[run] += 1
        return np.asarray(fun(points, np.repeat(run, size)), dtype=float)

    run = np.flatnonzero(budget >= first_call_rows(n))
    if not run.size:
        return RefineResult(x=best_x, fun=best_f, nfev=nfev, nit=nit)
    x = np.maximum(best_x[run], floor)
    probes = np.maximum(x[:, None] + np.concatenate([np.diag(scale),
                                                     -np.diag(scale)]), floor)
    points = np.concatenate([x[:, None] + STEP * offsets, probes], axis=1)
    values = score(run, points.reshape(-1, n), points.shape[1]).reshape(
        len(run), -1)
    f = values[:, 0]
    best_x[run], best_f[run] = x, f
    gradient, hessian = _model(values[:, :rows], n, np.full(len(run), STEP))
    radius = np.ones(len(run))
    trial, length, gain = _step(x, gradient, hessian, scale, radius, floor)
    ranked = np.where(np.isnan(values[:, rows:]), np.inf, values[:, rows:])
    pick = np.argmin(ranked, axis=1)
    # a move to a probe is no model step: it neither changes the radius nor
    # stops its problem
    move = ranked[np.arange(len(run)), pick] < f
    trial[move] = probes[move, pick[move]]
    fine = np.clip(np.linalg.norm(trial - x, axis=1), FINEST_STEP, STEP)
    go = move | ((length > XTOL) & (gain > FTOL * np.abs(f)))
    while True:
        room = budget[run] - nfev[run]
        last = (room < rows) & ~move
        go &= ((room >= rows) | (last & (room > 0))) & (
            move | (trial != x).any(axis=1))
        if not go.all():
            run, x, f, gradient, hessian, radius, trial, length, gain, move, \
                fine, last = (a[go] for a in (
                    run, x, f, gradient, hessian, radius, trial, length,
                    gain, move, fine, last))
        if not run.size:
            break
        full = np.flatnonzero(~last)
        out = score(np.concatenate([run[full], run[last]]), np.concatenate([
            (trial[full, None] + fine[full, None, None] * offsets).reshape(-1, n),
            trial[last]]), np.repeat([rows, 1], [len(full), last.sum()]))
        values = out[:len(full) * rows].reshape(-1, rows)
        center = np.empty(len(run))
        center[full], center[last] = values[:, 0], out[len(full) * rows:]
        accept = center <= f
        actual = f - center
        settled = accept & ~move & (actual <= FTOL * np.abs(f))
        x[accept], f[accept] = trial[accept], center[accept]
        best_x[run[accept]], best_f[run[accept]] = x[accept], f[accept]
        fitted = full[accept[full]]
        gradient[fitted], hessian[fitted] = _model(values[accept[full]], n,
                                                   fine[fitted])
        radius = np.where(move, radius, np.where(
            ~accept | ~(actual >= 0.25 * gain), 0.5 * length,
            np.where((actual >= 0.75 * gain) & (length >= radius),
                     np.minimum(2 * radius, MAX_RADIUS), radius)))
        trial, length, gain = _step(x, gradient, hessian, scale, radius,
                                    floor)
        fine = np.clip(np.linalg.norm(trial - x, axis=1), FINEST_STEP, STEP)
        move = np.zeros(len(run), dtype=bool)
        go = ~(last & accept) & (move | ((length > XTOL) & ~settled
                                         & (gain > FTOL * np.abs(f))))
    return RefineResult(x=best_x, fun=best_f, nfev=nfev, nit=nit)
