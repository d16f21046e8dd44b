"""End-to-end estimation scenarios: optimize the kappa figure of merit over
probe phases and measurement settings, scan it along a parameter grid, and
run the random collective-measurement search on two copies.

Input names: ``phi``/``delta`` (phase-dephasing point), ``phi_y``/
``phi_z`` (two-phase point), ``xi_j``/``xi`` (copy j's input phase, or the
one shared by the other copies: ``phase_names``), and the analysis angles
``theta_1``/``eta_1``/``theta_2``/``eta_2`` of a product measurement
generator. Two-phase scenarios use the shared ``xi`` alone so that the
single-copy quantum information in the kappa denominator is unambiguous.

Every search evaluation is scored by the batched kernel
(``kernels.kappa_batch``), for any number of copies and for a fixed POVM, a
stack of POVMs or a measurement generator alike; ``evaluate_kappa`` computes
the reported value at the optima and is the reference the kernel is tested
against, on complex density matrices; both build each copy with
``states.single_copy`` and divide by the diagonal of ``states.qfi_entry``.
A scan optimizes all its points, ``optimize_each`` every POVM of a stack,
and the collective search a chunk of trials (an array of one projector set
per trial), in one lockstep run of ``_maximize``: all grids are one batch,
and so is each Newton step of every start (``refine.minimize``), which
``_Objective.batch`` cuts into kernel calls of at most ``_CALL_ROWS`` rows.
The run then reports all its optima with one ``evaluate_kappa`` call on
the stack of them, each optimum with the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import kernels
# measurement_probabilities, probe_with_derivatives, qfi_matrix and
# sld_operators are not called here; the benchmark wraps them
from .fisher import (KappaResult, classical_fi, kappa,
                     measurement_probabilities, outcome_probabilities,
                     qfi_matrix, sld_operators)
from .linalg import pauli_table, projector
from .refine import first_call_rows, minimize
from .povm import MeasurementGenerator, Povm
from .states import (PHASE_DEPHASING, TWO_PHASE, ProbeFamily, check_point,
                     copies_with_derivatives, density_matrices, point_errors,
                     probe_with_derivatives, qfi_entry, single_copy)

DEFAULT_BUDGET = 2000
#: the rotation (phi_y, phi_z) the collective search probes, and its
#: evaluation budget per trial
DEFAULT_SEARCH_AT = (0.4, 0.3)
DEFAULT_XI_BUDGET = 48
GRID_POINTS_PER_DIM = 17
#: a search of two or more inputs grids at most this many points per
#: axis, and refines up to ``MULTI_STARTS`` local maxima of its grid where
#: the budget left after the grid holds ``_START_CALLS`` first refinement
#: calls per start
MULTI_GRID_POINTS_PER_DIM = 7
MULTI_STARTS = 2
_START_CALLS = 4
#: scores within this relative distance of the best tie, and a tie goes to
#: the earlier row in grid order
_TIE = 1e-12
#: fraction of the evaluation budget spent on the coarse grid; the remainder
#: goes to the refinement
_GRID_FRACTION = 0.75

#: each input's grid axis [0, span): a phase's period, and for delta,
#: which is not periodic, DELTA_SPAN, also the CLI's default sweep range
DELTA_SPAN = 3.0
_SPANS = {"theta_1": math.pi, "theta_2": math.pi, "delta": DELTA_SPAN}
_DEFAULT_SPAN = 2.0 * math.pi


def phase_names(family: ProbeFamily, names) -> tuple[str, ...]:
    """The input that sets each copy's phase: its own ``xi_j`` where
    ``names`` holds it, and the shared ``xi`` otherwise; the two-phase
    family always reads ``xi``."""
    if family.kind == TWO_PHASE:
        return ("xi",) * family.copies
    return tuple(f"xi_{j}" if f"xi_{j}" in names else "xi"
                 for j in range(1, family.copies + 1))


def input_problems(family: ProbeFamily, free, fixed, sweep: str | None,
                   setting_names=()) -> list[str]:
    """One message per problem of a naming of the inputs of ``family``,
    each naming every input at fault: the free inputs, the ``fixed`` names
    and ``sweep`` must be disjoint, name each free input once, and name
    exactly the family point, ``phase_names`` and ``setting_names``."""
    free, fixed = tuple(free), set(fixed)
    swept = set() if sweep is None else {sweep}
    provided = {*free, *fixed, *swept}
    used = {*family.parameter_names, *phase_names(family, provided),
            *setting_names}
    if provided == used and len(used) == len(free) + len(fixed) + len(swept):
        # disjoint, each free input once, and exactly the inputs used
        return []
    return [f"{problem}: {sorted(names)}" for problem, names in (
        ("inputs both free and fixed or swept", set(free) & (fixed | swept)),
        ("inputs both fixed and swept", fixed & swept),
        ("free inputs repeated", {n for n in free if free.count(n) > 1}),
        ("inputs not used by this scenario", provided - used),
        ("scenario does not cover inputs", used - provided)) if names]


@dataclass(frozen=True)
class Scenario:
    """A probe family plus a measurement and a naming of what is optimized.

    ``free_inputs``, ``fixed_inputs`` and the swept name must be disjoint,
    name each free input once, and together name exactly the inputs the
    scenario reads (``input_problems``): the family point, each copy's
    phase, its ``xi_j`` where named and else ``xi``, and any measurement
    settings. A scenario evaluated or optimized at one point only has no
    swept input (``sweep=None``).

    ``measurement`` may also be a stack: a nonempty tuple of ``Povm``s of
    one element shape, one per problem, which ``optimize_each`` optimizes
    in one run.
    """

    family: ProbeFamily
    measurement: Povm | MeasurementGenerator | tuple[Povm, ...]
    free_inputs: tuple[str, ...] = ()
    fixed_inputs: dict[str, float] = field(default_factory=dict)
    sweep: str | None = "delta"

    def __post_init__(self):
        m = self.measurement
        if isinstance(m, tuple):
            shapes = sorted({povm.elements.shape for povm in m})
            if len(shapes) != 1:
                raise ValueError("a measurement stack needs POVMs of one "
                                 f"element shape, got shapes {shapes}")
        problems = input_problems(
            self.family, self.free_inputs, self.fixed_inputs, self.sweep,
            m.setting_names if isinstance(m, MeasurementGenerator) else ())
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class SearchWork:
    """What a search did: evaluations (grid rows plus the refinement's
    rows, each scored by the kernel once), kernel calls made, refinement
    steps summed over the refined starts (the calls each took part in, its
    first included), and the starts refined."""

    evaluations: int = 0
    kernel_calls: int = 0
    refine_iterations: int = 0
    starts: int = 0

    def __add__(self, other: SearchWork) -> SearchWork:
        return SearchWork(*(a + b for a, b in zip(astuple(self),
                                                  astuple(other))))


@dataclass(frozen=True)
class OptimizeOutcome:
    """One problem's optimum; ``work`` is its run's, which
    ``optimize_each`` returns once beside the outcomes instead."""

    result: KappaResult
    settings: dict[str, float]
    work: SearchWork = SearchWork()


@dataclass(frozen=True)
class KappaCurve:
    """A kappa-vs-parameter curve with its per-point breakdown."""

    sweep: str
    grid: np.ndarray                      # (npts,)
    kappa_values: np.ndarray              # (npts,)
    per_parameter: np.ndarray             # (npts, n)
    parameter_names: tuple[str, ...]
    optimizer_args: tuple[dict[str, float], ...]
    failed: tuple[str | None, ...]        # per-point error message or None
    work: SearchWork = SearchWork()

    def rows(self):
        """CSV rows: sweep value, kappa, contributions, best settings."""
        setting_names = sorted(self.optimizer_args[0]) if self.optimizer_args else []
        header = ([self.sweep, "kappa"]
                  + [f"contrib_{p}" for p in self.parameter_names]
                  + [f"best_{s}" for s in setting_names])
        rows = []
        for i, x in enumerate(self.grid):
            row = [float(x), float(self.kappa_values[i])]
            row += [float(v) for v in self.per_parameter[i]]
            row += [float(self.optimizer_args[i][s]) for s in setting_names]
            rows.append(row)
        return header, rows


def single_copy_qfi_diagonal(family: ProbeFamily, params, xi: float) -> np.ndarray:
    """Quantum Fisher information diagonal of one probe copy, in the closed
    form that the kernels divide by."""
    check_point(xi=xi, **dict(zip(family.parameter_names, params)))
    return qfi_entry(*single_copy(family, params, xi))


def _refuse_stack(scenario: Scenario, what: str) -> None:
    if isinstance(scenario.measurement, tuple):
        raise ValueError(f"{what} takes one measurement, not a stack of "
                         f"{len(scenario.measurement)} POVMs; optimize a "
                         "stack with optimize_each")


def evaluate_kappa(scenario: Scenario, values: dict):
    """Reference (unaccelerated) evaluation of kappa at the point that
    ``values`` and the fixed inputs name exactly (``input_problems``): its
    ``KappaResult``, or the error it fails with, raised.

    Where any value is an array of P values, evaluates P points at once
    and returns a list with each point's ``KappaResult`` or the error it
    failed with, the others unchanged; every array holds P >= 1 values on
    one axis, and a measurement stack then holds one POVM per point. Each
    step runs once for the stack: one ``states.single_copy`` per copy,
    complex density matrices by the product rule, one probabilities
    contraction (``fisher.outcome_probabilities``), P Fisher matrices
    (``classical_fi``) and P results (``kappa``); every step treats a point
    on its own, so it gets the same bits alone and in any stack. This is
    the reference the kernel is tested against: complex matrices and an n x
    n inverse, and no call into ``kernels.kappa_batch`` or
    ``kernels.probabilities``.
    """
    vals = {**scenario.fixed_inputs, **values}
    shapes = {}
    for name, v in vals.items():
        if not isinstance(v, float):
            v = np.asarray(v, dtype=float)
            vals[name] = v if v.ndim else float(v)
            if v.ndim:
                shapes[name] = v.shape
    count = next(iter(shapes.values()), (1,))[0]
    if count < 1 or any(shape != (count,) for shape in shapes.values()):
        raise ValueError("point arrays must be 1-D, nonempty and of one "
                         f"length, got shapes {shapes}")
    m = scenario.measurement
    if not shapes:
        _refuse_stack(scenario, "evaluate_kappa")
    problems = input_problems(
        scenario.family, (), vals, None,
        m.setting_names if isinstance(m, MeasurementGenerator) else ())
    if problems:
        raise ValueError("; ".join(problems))
    if isinstance(m, tuple) and len(m) != count:
        raise ValueError(f"a stack of {len(m)} POVMs needs as many points, "
                         f"got {count}")
    found = _reference(scenario.family, m, vals, count)
    if shapes:
        return found
    if isinstance(found[0], Exception):
        raise found[0]
    return found[0]


def _reference(family: ProbeFamily, measurement, values: dict,
               count: int) -> list:
    """``evaluate_kappa`` at ``count`` points: each of ``values`` is one
    float, shared by every point, or an array of one per point, and a
    measurement stack holds one POVM per point. Returns per point its
    ``KappaResult`` or its error. Every input is checked first
    (``states.point_errors``); the points that pass go on as one stack,
    built once, and a point's imaginary probability residue, else its
    failed ``classical_fi`` check, else its ``kappa`` is its result."""
    found = point_errors(values, count)
    live = [i for i, error in enumerate(found) if error is None]
    if not live:
        return found
    if len(live) < count:
        values = {n: v[live] if isinstance(v, np.ndarray) else v
                  for n, v in values.items()}
    if isinstance(measurement, tuple):
        elements = np.stack([measurement[i].elements for i in live])
        labels = [measurement[i].labels for i in live]
    elif isinstance(measurement, MeasurementGenerator):
        elements = measurement.elements({
            n: np.broadcast_to(values[n], (len(live),))
            for n in measurement.setting_names})
        labels = measurement.labels
    else:
        elements, labels = measurement.elements, measurement.labels
    params = [values[n] for n in family.parameter_names]
    singles = [single_copy(family, params, values[n])
               for n in phase_names(family, values)]
    # (n,) where every point has the same, else (P, n)
    h = qfi_entry(*singles[0]).T
    p, dp, residues = outcome_probabilities(
        density_matrices([coords for coords, _ in singles]), elements)
    reports = classical_fi(p, dp, labels)
    passed = [i for i, report in enumerate(reports)
              if not isinstance(report, Exception)]
    results = dict(zip(passed, kappa(
        [reports[i] for i in passed], h[passed] if h.ndim == 2 else h,
        family.copies))) if passed else {}
    for i, point in enumerate(live):
        # a point without a result failed its check: its report is the error
        found[point] = residues[i] or results.get(i, reports[i])
    return found


#: the most rows one kernel call scores, which bounds its memory:
#: ``_Objective.batch`` cuts a longer batch into consecutive calls of at
#: most this many rows. Against 340 rows, in 10 interleaved perfbench pairs
#: on 2 vCPUs, 1200 rows cut the default Bell scan's wall_s by 14.6 % at
#: the median, and raised peak_rss_mb by 1.6 % there and 1.8 % on
#: conjecture-search; 1800 rows raised the scan's by 2.8 %. The collective
#: search optimizes this many trials at a time, which bounds only its
#: resident projector and table arrays: 10^4 trials in one chunk peaked
#: at 75.2 MB of RSS against 45.5 MB, with the same result
_CALL_ROWS = 1200


class _Objective:
    """kappa of ``family`` measured by ``measurement`` as a function of the
    free-input vector, for P independent problems at once (P = 1 by
    default); counts evaluations and kernel calls.

    Every kernel call scores up to ``_CALL_ROWS`` rows, whichever inputs
    are free: a free input is a column of the rows. A fixed input is one value
    in ``base``, or an array of P values from which each row takes its own
    problem's; a fixed delta or rotation (phi_y, phi_z) that is one value is
    passed to ``states.single_copy`` as one value. A ``Povm`` is shared by
    all rows, a (P, K, d, d) element array holds one POVM per problem and
    each row takes its own problem's, and a measurement generator builds
    one element set per row. The kernel reads each POVM as its real Pauli
    table (``linalg.pauli_table``), built here once for a ``Povm`` or a
    stack and per call only for a generator, and each row's state as its
    Pauli coordinates, so no search builds a d x d joint state.
    ``evaluate_kappa`` is not called here.
    """

    def __init__(self, family: ProbeFamily,
                 measurement: Povm | MeasurementGenerator | np.ndarray,
                 base: dict, names: list[str]):
        self.family = family
        self.measurement = measurement
        self.base = base
        self.names = names
        self.phase_names = phase_names(family, {*names, *base})
        if isinstance(measurement, np.ndarray):
            self.problems = len(measurement)
        else:
            self.problems = max((len(v) for v in base.values()
                                 if np.ndim(v)), default=1)
        #: the kernel's real POVM table, (K, 4^m) or (P, K, 4^m); a
        #: generator's is built per call, from the rows' settings
        self.table = None if isinstance(measurement, MeasurementGenerator) \
            else pauli_table(getattr(measurement, "elements", measurement))
        self.evaluations = 0
        self.kernel_calls = 0
        self.refine_iterations = 0
        self.starts = 0
        #: per problem: whether any of its evaluations had a regular Fisher
        #: matrix
        self.any_regular = np.zeros(self.problems, dtype=bool)

    def work(self) -> SearchWork:
        return SearchWork(self.evaluations, self.kernel_calls,
                          self.refine_iterations, self.starts)

    def batch(self, X, problems=None) -> np.ndarray:
        """The search score at every row of ``X`` (shape (N, len(names))),
        where row i belongs to problem ``problems[i]`` (problem 0 when
        ``problems`` is None): kappa, and 0 where the Fisher matrix is
        singular. Every row counts as an evaluation. The rows are scored in
        consecutive kernel calls of at most ``_CALL_ROWS`` rows; a row gets
        the same bits in any call.

        Each distinct phase input is built into its copy once per call
        (``states.single_copy``): the two-phase copies all read ``xi``.
        """
        X = np.asarray(X, dtype=float)
        rows = np.zeros(len(X), dtype=int) if problems is None else problems
        if len(X) > _CALL_ROWS:
            return np.concatenate([
                self.batch(X[i:i + _CALL_ROWS], rows[i:i + _CALL_ROWS])
                for i in range(0, len(X), _CALL_ROWS)])
        cols = {n: X[:, i] for i, n in enumerate(self.names)}

        def value(name):
            if name in cols:
                return cols[name]
            fixed = self.base[name]
            return fixed[rows] if np.ndim(fixed) else float(fixed)

        def column(name):
            v = value(name)
            return v if np.ndim(v) else np.full(len(X), v)

        fam = self.family
        params = [value(n) for n in fam.parameter_names]
        built = {n: single_copy(fam, params, column(n))
                 for n in dict.fromkeys(self.phase_names)}
        coords = copies_with_derivatives([built[n][0]
                                          for n in self.phase_names])
        h1, h2 = qfi_entry(*built[self.phase_names[0]])
        # the copies go before a stack's per-row tables are gathered, so
        # that the two are never held at once
        del built
        m = self.measurement
        if isinstance(m, MeasurementGenerator):
            table = pauli_table(m.elements({n: column(n)
                                            for n in m.setting_names}))
        else:
            table = self.table if self.table.ndim == 2 else self.table[rows]
        kappa_values, _, _, status = kernels.kappa_batch(
            table, coords, h1, h2, fam.copies, kernels.DEFAULT_P_CUTOFF)
        self.kernel_calls += 1
        self.evaluations += len(X)
        self.any_regular[rows[status == 0]] = True
        # a singular point (status 1) scores 0: kappa jumps there, as the
        # unaffected parameter keeps its full information (``FisherReport``),
        # and a search started on it would stall
        return np.where(status == 1, 0.0, kappa_values)


def _maximize(objective, names: list[str], budget: int):
    """Deterministic coarse grid, then a lockstep Newton refinement of each
    of the objective's P problems from the best local maxima of its grid
    (``_refine``); returns the best inputs (P, len(names)) and their scores
    (P,). Evaluations (grid rows plus every refinement row), kernel calls,
    steps and refined starts add up on ``objective``, and no problem scores
    more than ``budget`` rows.

    Every problem is scored at the same grid points, all problems' grids
    in one ``objective.batch`` call, which cuts its own kernel calls. A
    phase is gridded over its period and delta on the cell centres of [0,
    ``DELTA_SPAN``), in at most ``_GRID_FRACTION`` of the budget
    (``_grid_counts``). A grid row is a local maximum where it scores at
    least as high as its 2n neighbours (a phase axis wraps around, delta's
    does not). A search of one input refines its best one; a search of
    more refines its ``MULTI_STARTS`` best where the budget left holds
    ``_START_CALLS`` first refinement calls for each start, and else its
    best alone; only the best may score 0 or less (``_best_local_maxima``).
    The starts rank by score, scores within ``_TIE`` of each other by grid
    order (``np.ndindex``), and each of a problem's starts takes an equal
    share of the budget left, with half a grid spacing as its trust radius
    and a free delta bounded below by 0, so that no row it scores has
    delta < 0; a start whose share holds no first refinement call keeps
    its grid row.
    """
    everyone = np.arange(objective.problems)
    ndim = len(names)
    if ndim == 0:
        return np.zeros((everyone.size, 0)), objective.batch(
            np.zeros((everyone.size, 0)), everyone)
    counts = _grid_counts(ndim, _GRID_FRACTION * budget)
    spans = np.array([_SPANS.get(n, _DEFAULT_SPAN) for n in names])
    # delta on the centres of its axis' cells: at delta = 0 the Fisher
    # matrix is singular, so a row there scores 0
    axes = [np.linspace(0.0, span, c, endpoint=False)
            + (0.5 * span / c if n == "delta" else 0.0)
            for n, span, c in zip(names, spans, counts)]
    # rows in np.ndindex order: the last input varies fastest
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ndim)
    values = objective.batch(np.tile(grid, (everyone.size, 1)),
                             np.repeat(everyone, len(grid)))
    # NaN ranks lowest, and starts a refinement only where every row is NaN
    ranked = np.where(np.isnan(values), -np.inf, values).reshape(everyone.size, -1)
    remaining = budget - len(grid)
    count = MULTI_STARTS if ndim > 1 and remaining >= (
        _START_CALLS * MULTI_STARTS * first_call_rows(ndim)) else 1
    # each problem's starts in grid order
    owners, rows = np.nonzero(_best_local_maxima(
        ranked, counts, [n != "delta" for n in names], count))
    return _refine(objective, grid[rows], ranked[owners, rows], owners,
                   remaining // np.bincount(owners)[owners],
                   0.5 * spans / counts,
                   [0.0 if n == "delta" else -np.inf for n in names])


def _grid_counts(ndim: int, rows: float) -> np.ndarray:
    """The grid points on each of ``ndim`` axes, at least one, with at
    most ``rows`` rows in all where one point per axis fits: the same
    number k on every axis, up to ``GRID_POINTS_PER_DIM`` for one input and
    ``MULTI_GRID_POINTS_PER_DIM`` for more. Where k < 3, the leading axes
    in turn take points up to 3 each while the grid still fits, as a phase
    axis of two points holds only 0 and half the period. So from k = 1 a
    grid of 3 rows or more has an axis of 3 points; from k = 2 every axis
    can keep two (2^6 rows for six inputs at budget 100), where every row
    of a product measurement's grid can be singular."""
    cap = GRID_POINTS_PER_DIM if ndim == 1 else MULTI_GRID_POINTS_PER_DIM
    counts = np.full(ndim, max(1, min(cap, int(rows ** (1.0 / ndim)))))
    for axis in range(ndim):
        while counts[axis] < 3 and (np.prod(counts) // counts[axis]
                                    * (counts[axis] + 1)) <= rows:
            counts[axis] += 1
    return counts


def _best_local_maxima(ranked, shape, periodic, count):
    """Per problem, which rows of its grid scores ``ranked`` (P, rows) are
    among its ``count`` best local maxima, as a mask of ``ranked``'s shape:
    rows at least as high as their neighbours along each axis of a grid of
    ``shape`` in ``np.ndindex`` order, where an axis wraps around if it is
    ``periodic``. Scores within ``_TIE`` of the best left rank by grid
    order, so the first such row comes next. Only the first may score 0 or
    less, or -inf: a row inside a flat region of singular (0) or failed
    rows is a local maximum too, and no better a start than none."""
    cube = ranked.reshape(len(ranked), *shape)
    peak = np.ones(cube.shape, dtype=bool)
    for axis, wraps in enumerate(periodic, start=1):
        # views with this axis last; ``at`` writes through to ``peak``
        v, at = cube.swapaxes(axis, -1), peak.swapaxes(axis, -1)
        at[..., 1:] &= v[..., 1:] >= v[..., :-1]
        at[..., :-1] &= v[..., :-1] >= v[..., 1:]
        if wraps:
            at[..., 0] &= v[..., 0] >= v[..., -1]
            at[..., -1] &= v[..., -1] >= v[..., 0]
    left = peak.reshape(len(ranked), -1)
    chosen = np.zeros_like(left)
    everyone = np.arange(len(ranked))
    for _ in range(count):
        top = np.where(left, ranked, -np.inf).max(axis=1, keepdims=True)
        tied = left & (ranked >= top - _TIE * np.abs(top))
        first = np.argmax(tied, axis=1)
        # a problem with no local maximum left has no tied row
        found = tied[everyone, first]
        chosen[everyone[found], first[found]] = True
        left[everyone, first] = False
        left &= (ranked > 0) & (ranked < np.inf)
    return chosen


def _refine(objective, starts, values, owners, budgets, radius, lower):
    """Refine every start (S, n) of every problem in one lockstep
    ``minimize`` run and keep each problem's best; returns per problem of
    ``objective`` its best inputs and score.

    Start s belongs to problem ``owners[s]`` (ascending, each problem's
    starts in grid order), scored ``values[s]`` on the grid, and refines
    within ``budgets[s]`` rows from the trust radius ``radius``, above the
    bound ``lower`` of each input (``refine.minimize``). Each row is scored
    for its start's problem, and a start counts as refined where its budget
    held a first call. A start keeps its grid point unless the refinement
    scored higher, and a problem's winner is its first start within
    ``_TIE`` of its best.
    """
    res = minimize(lambda X, rows: -objective.batch(X, owners[rows]), starts,
                   radius, budgets, lower=lower)
    objective.refine_iterations += int(res.nit.sum())
    objective.starts += int(np.count_nonzero(res.nit))
    better = -res.fun > values
    x = np.where(better[:, None], res.x, starts)
    v = np.where(better, -res.fun, values)
    top = np.full(objective.problems, -np.inf)
    np.maximum.at(top, owners, v)
    tied = np.flatnonzero(v >= top[owners] - _TIE * np.abs(top[owners]))
    _, first = np.unique(owners[tied], return_index=True)
    return x[tied[first]], v[tied[first]]


def _optimize(scenario: Scenario, base: dict, budget: int):
    """Maximize kappa for every problem of ``base`` or of a measurement
    stack in one lockstep run; returns per problem its ``OptimizeOutcome``,
    reported with its own POVM, or its error, and the run's ``SearchWork``.
    The optima of the problems with a regular grid point are reported by
    one ``evaluate_kappa`` call on their stack, in which a problem that
    fails keeps its own error.

    A dephasing kappa reads phi and the input phases only through each
    copy's total phase alpha_j = phi + xi_j. Where phi and every copy's
    input phase are free, the input phases alone reach every alpha_j and
    phi is a direction along which kappa never changes: phi is held at 0
    and reported as its setting, an optimum as good as any other phi, so
    that every grid row is a different point of kappa.
    """
    names = list(scenario.free_inputs)
    if scenario.family.kind == PHASE_DEPHASING and "phi" in names and set(
            phase_names(scenario.family, {*names, *base})) <= set(names):
        base = {**base, "phi": 0.0}
        names.remove("phi")
    stack = isinstance(scenario.measurement, tuple)
    measurement = (np.stack([povm.elements for povm in scenario.measurement])
                   if stack else scenario.measurement)
    objective = _Objective(scenario.family, measurement, base, names)
    best_x, _ = _maximize(objective, names, budget)
    regular = np.flatnonzero(objective.any_regular)
    points = {**{k: np.broadcast_to(v[regular] if np.ndim(v) else v,
                                    regular.shape) for k, v in base.items()},
              **dict(zip(names, best_x[regular].T))}
    reported = evaluate_kappa(replace(scenario, measurement=tuple(
        scenario.measurement[p] for p in regular)) if stack else scenario,
        points) if regular.size else []
    results = iter(reported)
    found = []
    for p, x in enumerate(best_x):
        vals = {k: float(v[p]) if np.ndim(v) else v for k, v in base.items()}
        if not objective.any_regular[p]:
            fixed = ", ".join(f"{n}={vals[n]}" for n in scenario.fixed_inputs)
            where = (f"sweep {scenario.sweep} at {vals[scenario.sweep]}"
                     if scenario.sweep in vals else
                     f"fixed inputs {fixed}" if fixed else "every input free")
            found.append(RuntimeError(
                "kappa evaluation failed at every grid point (singular Fisher "
                f"matrix); scenario {where}"))
            continue
        point = {**vals, **{n: float(v) for n, v in zip(names, x)}}
        result = next(results)
        found.append(result if isinstance(result, Exception) else
                     OptimizeOutcome(result, {n: point[n]
                                              for n in scenario.free_inputs}))
    return found, objective.work()


def optimize_each(scenario: Scenario, at, budget: int = DEFAULT_BUDGET
                  ) -> tuple[list[OptimizeOutcome | Exception], SearchWork]:
    """Maximize kappa over the scenario's free inputs at a fixed sweep value,
    for each POVM of a measurement stack (or for the one measurement).

    ``at`` is the swept input's value, or None when every input is free or
    fixed. Every problem gets a coarse grid over each free input's period
    (over [0, 3) for delta) followed by Newton steps from the best local
    maxima of its grid, and all problems run in lockstep, each as it would
    run alone (``_maximize``); deterministic for a fixed budget, which no
    problem exceeds. Returns per problem its ``OptimizeOutcome`` or the
    error it failed with, and the run's ``SearchWork`` once.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    base = dict(scenario.fixed_inputs)
    if at is not None:
        base[scenario.sweep] = float(at)
    check_point(**base)
    return _optimize(scenario, base, budget)


def optimize_kappa(scenario: Scenario, at, budget: int = DEFAULT_BUDGET) -> OptimizeOutcome:
    """``optimize_each`` of a scenario with one measurement: its outcome,
    with the run's work, or the error it failed with, raised."""
    _refuse_stack(scenario, "optimize_kappa")
    [outcome], work = optimize_each(scenario, at, budget)
    if isinstance(outcome, Exception):
        raise outcome
    return replace(outcome, work=work)


def kappa_scan(scenario: Scenario, grid, budget: int = DEFAULT_BUDGET) -> KappaCurve:
    """Optimize kappa independently at every grid value of the swept input.

    All points that pass the point check (finite inputs, delta >= 0) are
    optimized in one lockstep run, each as ``optimize_kappa`` would optimize
    it alone; a point that fails keeps its own error message and leaves the
    others untouched.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    _refuse_stack(scenario, "kappa_scan")
    if scenario.sweep is None:
        raise ValueError("a scan needs a scenario with a swept input")
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    outcomes = point_errors({**scenario.fixed_inputs, scenario.sweep: grid},
                            grid.size)
    valid = [i for i, error in enumerate(outcomes) if error is None]
    work = SearchWork()
    if valid:
        found, work = _optimize(
            scenario, {**scenario.fixed_inputs, scenario.sweep: grid[valid]},
            budget)
        for i, outcome in zip(valid, found):
            outcomes[i] = outcome
    # a failed point reads nan
    kappas = np.full(grid.size, np.nan)
    per = np.full((grid.size, scenario.family.num_parameters), np.nan)
    args = [{name: float("nan") for name in scenario.free_inputs}
            for _ in grid]
    failed = [str(o) if isinstance(o, Exception) else None for o in outcomes]
    for i, outcome in enumerate(outcomes):
        if failed[i] is None:
            kappas[i] = outcome.result.kappa
            per[i] = outcome.result.per_parameter
            args[i] = outcome.settings
    return KappaCurve(sweep=scenario.sweep, grid=grid, kappa_values=kappas,
                      per_parameter=per,
                      parameter_names=scenario.family.parameter_names,
                      optimizer_args=tuple(args), failed=tuple(failed),
                      work=work)


# ---------------------------------------------------------------------------
# random collective-measurement search
# ---------------------------------------------------------------------------

def _complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _haar_bases(gaussians: np.ndarray) -> np.ndarray:
    """Haar-random orthonormal bases (columns) from a stack of complex
    Gaussian matrices: their QR decompositions, each with the R diagonal
    phase fixed. One batched QR gives each matrix's own bits."""
    q, r = np.linalg.qr(gaussians)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


@dataclass(frozen=True)
class CollectiveSearchResult:
    max_kappa: float
    trial_index: int
    xi: float
    basis: np.ndarray               # (dim, dim) complex, columns = outcomes
    per_parameter: np.ndarray
    trials: int
    seed: int
    at: tuple[float, float]
    work: SearchWork = SearchWork()


def random_collective_search(trials: int, seed: int,
                             at: tuple[float, float] = DEFAULT_SEARCH_AT,
                             xi_budget: int = DEFAULT_XI_BUDGET
                             ) -> CollectiveSearchResult:
    """Max kappa over Haar-random rank-1 projective measurements on two
    copies of the two-phase probe at the rotation ``at`` = (phi_y, phi_z).

    Every trial draws a Haar-random orthonormal basis of the two-copy space
    (child generator seeded from ``(seed, trial)``), optimizes the shared
    input phase, and keeps the best kappa found; the first trial wins a
    tie. Trials are optimized in chunks of ``_CALL_ROWS``, which bound the
    projector and table arrays held at once; each chunk's projectors are
    one (trials, dim, dim, dim) array scored in one lockstep run, and every
    trial's optimum is the one it has alone. Only the winner
    becomes a ``Povm``, reported by ``evaluate_kappa``. Deterministic given
    seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if xi_budget < 1:
        raise ValueError("xi_budget must be >= 1")
    family = ProbeFamily.two_phase(copies=2)
    phi_y, phi_z = float(at[0]), float(at[1])
    fixed = {"phi_y": phi_y, "phi_z": phi_z}
    dim = 4
    best = (-np.inf, -1, 0.0, None)
    work = SearchWork()
    for start in range(0, trials, _CALL_ROWS):
        chunk = range(start, min(start + _CALL_ROWS, trials))
        bases = _haar_bases(np.stack([
            _complex_gaussian(np.random.default_rng([seed, t]), dim)
            for t in chunk]))
        objective = _Objective(family, projector(bases.swapaxes(1, 2)),
                               fixed, ["xi"])
        x, values = _maximize(objective, ["xi"], xi_budget)
        work += objective.work()
        # the first maximum, so that the first trial wins a tie;
        # ``_maximize`` scores no trial nan
        i = int(np.argmax(values))
        if values[i] > best[0]:
            best = (values[i], chunk[i], float(x[i, 0]), bases[i])
    _, trial, xi, basis = best
    winner = Scenario(family=family, measurement=Povm(
        tuple(f"b{k}" for k in range(dim)), projector(basis.T)),
        free_inputs=("xi",), fixed_inputs=fixed, sweep=None)
    result = evaluate_kappa(winner, {"xi": xi})
    return CollectiveSearchResult(
        max_kappa=result.kappa, trial_index=trial, xi=xi, basis=basis,
        per_parameter=result.per_parameter, trials=trials, seed=seed,
        at=(phi_y, phi_z), work=work)
