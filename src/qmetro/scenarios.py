"""End-to-end estimation scenarios: optimize the kappa figure of merit over
probe phases and measurement settings, scan it along a parameter grid, and
run the random collective-measurement search on two copies.

Input names: ``phi``/``delta`` (phase-dephasing point), ``phi_y``/
``phi_z`` (two-phase point), ``xi_j``/``xi`` (copy j's input phase, or the
one shared by the other copies: ``phase_names``), and the analysis angles
``theta_1``/``eta_1``/``theta_2``/``eta_2`` of a product measurement
generator. Two-phase scenarios use the shared ``xi`` alone so that the
single-copy quantum information in the kappa denominator is unambiguous.

Every search evaluation is scored by the batched kernels
(``kernels.kappa_batch``), for any number of copies and for a fixed POVM, a
stack of POVMs or a measurement generator alike; ``evaluate_kappa`` computes
the reported value at each optimum and is the reference the kernels are
tested against; both divide by the same closed-form single-copy quantum
information. A scan optimizes all its points, ``optimize_each`` every POVM
of a stack, and the collective search a chunk of trials (a stack of one
POVM per trial), in one lockstep run of ``_maximize``: each simplex step of
every problem's refinement shares one kernel call.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import kernels
# qfi_matrix and sld_operators are not called here; the benchmark wraps them
from .fisher import (KappaResult, classical_fi, kappa,
                     measurement_probabilities, qfi_matrix, sld_operators)
from .neldermead import minimize
from .povm import MeasurementGenerator, Povm
from .states import (PHASE_DEPHASING, TWO_PHASE, ProbeFamily,
                     check_dephasing, dephasing_qfi, probe_with_derivatives,
                     pure_qfi_diagonal, two_phase_ket_with_derivatives)

DEFAULT_BUDGET = 2000
#: the rotation (phi_y, phi_z) the collective search probes, and its
#: evaluation budget per trial
DEFAULT_SEARCH_AT = (0.4, 0.3)
DEFAULT_XI_BUDGET = 48
GRID_POINTS_PER_DIM = 17
#: fraction of the evaluation budget spent on the coarse grid; the remainder
#: goes to the simplex refinement
_GRID_FRACTION = 0.75

_PERIODS = {"theta_1": math.pi, "theta_2": math.pi}
_DEFAULT_PERIOD = 2.0 * math.pi


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
    """What a search did: objective rows scored, kernel calls made, and
    Nelder-Mead iterations summed over the refined problems (counted as
    scipy counts them, from 1 per problem)."""

    evaluations: int = 0
    kernel_calls: int = 0
    refine_iterations: int = 0

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
    a, b = params
    if family.kind == PHASE_DEPHASING:
        check_dephasing(xi, a, b)
        return np.array(dephasing_qfi(b))
    return pure_qfi_diagonal(two_phase_ket_with_derivatives(xi, a, b))


def _refuse_stack(scenario: Scenario, what: str) -> None:
    if isinstance(scenario.measurement, tuple):
        raise ValueError(f"{what} takes one measurement, not a stack of "
                         f"{len(scenario.measurement)} POVMs; optimize a "
                         "stack with optimize_each")


def evaluate_kappa(scenario: Scenario, values: dict[str, float]) -> KappaResult:
    """Reference (unaccelerated) evaluation of kappa for explicit inputs."""
    _refuse_stack(scenario, "evaluate_kappa")
    vals = dict(scenario.fixed_inputs)
    vals.update(values)
    params = tuple(float(vals[n]) for n in scenario.family.parameter_names)
    phases = tuple(float(vals[n]) for n in phase_names(scenario.family, vals))
    m = scenario.measurement
    povm = m if isinstance(m, Povm) else m.build(vals)
    swd = probe_with_derivatives(scenario.family, params, phases)
    p, dp = measurement_probabilities(swd, povm)
    report = classical_fi(p, dp, labels=povm.labels)
    hdiag = single_copy_qfi_diagonal(scenario.family, params, phases[0])
    return kappa(report, hdiag, m=scenario.family.copies)


class _Objective:
    """kappa as a function of the free-input vector, for P independent
    problems at once (P = 1 by default); counts rows and kernel calls.

    Every call scores its N rows with one kernel call, whichever inputs are
    free: a free input is a column of the rows. A fixed input is one value
    in ``base``, or an array of P values from which each row takes its own
    problem's; a fixed delta or rotation (phi_y, phi_z) that is one value is
    passed to the kernel as one value. A fixed POVM is shared by all rows, a
    stack of P POVMs is stacked once and each row takes its own problem's
    elements, and a measurement generator builds one element set per row.
    ``evaluate_kappa`` is not called here.
    """

    def __init__(self, scenario: Scenario, base: dict, names: list[str]):
        self.scenario = scenario
        self.base = base
        self.names = names
        self.phase_names = phase_names(scenario.family, {*names, *base})
        m = scenario.measurement
        if isinstance(m, tuple):
            self.elements = np.stack([povm.elements for povm in m])
            self.problems = len(m)
        else:
            self.elements = m.elements if isinstance(m, Povm) else None
            self.problems = max((len(v) for v in base.values()
                                 if np.ndim(v)), default=1)
        self.evaluations = 0
        self.kernel_calls = 0
        self.refine_iterations = 0
        #: per problem: whether any of its rows had a regular Fisher matrix
        self.any_regular = np.zeros(self.problems, dtype=bool)

    def work(self) -> SearchWork:
        return SearchWork(self.evaluations, self.kernel_calls,
                          self.refine_iterations)

    def batch(self, X, problems=None) -> np.ndarray:
        """The search score at every row of ``X`` (shape (N, len(names))),
        where row i belongs to problem ``problems[i]`` (problem 0 when
        ``problems`` is None): kappa, 0 where the Fisher matrix is singular,
        and -inf where delta < 0.

        A dephasing row's kernel inputs are each copy's total phase
        phi + xi_j and delta, a two-phase row's xi, phi_y and phi_z.
        """
        X = np.asarray(X, dtype=float)
        rows = np.zeros(len(X), dtype=int) if problems is None else problems
        cols = {n: X[:, i] for i, n in enumerate(self.names)}

        def value(name):
            if name in cols:
                return cols[name]
            fixed = self.base[name]
            return fixed[rows] if np.ndim(fixed) else float(fixed)

        def column(name):
            v = value(name)
            return v if np.ndim(v) else np.full(len(X), v)

        m = self.scenario.measurement
        if isinstance(m, MeasurementGenerator):
            povm = m.elements({n: column(n) for n in m.setting_names})
        elif isinstance(m, tuple):
            povm = self.elements[rows]
        else:
            povm = self.elements
        fam = self.scenario.family
        if fam.kind == PHASE_DEPHASING:
            alphas = np.stack([column("phi") + column(n)
                               for n in self.phase_names])
            delta = value("delta")
            kappa_values, _, _, status = kernels.kappa_phase_dephasing_batch(
                alphas, delta, povm, kernels.DEFAULT_P_CUTOFF)
            negative = np.less(delta, 0)
            if negative.any():
                # kappa is even in delta, so the kernel scored the mirror
                # point; no dephasing strength is negative
                kappa_values = np.where(negative, -np.inf, kappa_values)
                status = np.where(negative, _NEGATIVE_DELTA, status)
        else:
            kappa_values, _, _, status = kernels.kappa_two_phase_batch(
                column("xi"), value("phi_y"), value("phi_z"), povm,
                kernels.DEFAULT_P_CUTOFF, copies=fam.copies)
        self.kernel_calls += 1
        self.evaluations += len(X)
        self.any_regular[rows[status == 0]] = True
        # a singular point (status 1) scores 0: kappa jumps there, as the
        # unaffected parameter keeps its full information (``FisherReport``),
        # and a search started on it would stall
        return np.where(status == 1, 0.0, kappa_values)


#: status of a row with delta < 0, beside the kernels' codes 0, 1 and 2
_NEGATIVE_DELTA = 3


#: the most rows of several problems that share a kernel call, which
#: bounds its memory: grids are grouped up to it (a larger grid takes one
#: call per problem), and the collective search refines this many trials
#: together, one row each per simplex step
_CALL_ROWS = 340


def _maximize(objective, names: list[str], budget: int):
    """Deterministic coarse grid plus Nelder-Mead refinement for each of the
    objective's P problems; returns the best inputs (P, len(names)) and
    their scores (P,).

    Every problem is scored at the same grid points, several problems per
    ``objective.batch`` call up to ``_CALL_ROWS`` rows. Each problem's best
    grid point seeds its simplex, and ``minimize`` refines
    all problems in lockstep: one call per simplex phase scores every
    problem in it, so a run makes at most 1 + 3 * max(iterations)
    refinement calls whatever P is, and each problem takes the path scipy's
    Nelder-Mead takes for it alone wherever the kernel gives a row the same
    bits in any batch. Rows, calls and iterations add up on ``objective``.
    """
    everyone = np.arange(objective.problems)
    ndim = len(names)
    if ndim == 0:
        return np.zeros((everyone.size, 0)), objective.batch(
            np.zeros((everyone.size, 0)), everyone)
    per_dim = min(GRID_POINTS_PER_DIM,
                  max(3, int((_GRID_FRACTION * budget) ** (1.0 / ndim))))
    axes = [np.linspace(0.0, _PERIODS.get(n, _DEFAULT_PERIOD), per_dim,
                        endpoint=False) for n in names]
    # rows in np.ndindex order: the last input varies fastest
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ndim)
    group = max(1, _CALL_ROWS // len(grid))
    values = np.concatenate([
        objective.batch(np.tile(grid, (len(part), 1)),
                        np.repeat(part, len(grid)))
        for part in np.split(everyone, range(group, everyone.size, group))])
    # per problem the first strict maximum wins and NaN never does, as a
    # running ``v > best`` comparison from -inf would choose
    ranked = np.where(np.isnan(values), -np.inf, values).reshape(everyone.size, -1)
    best = np.argmax(ranked, axis=1)
    best_x, best_v = grid[best], ranked[everyone, best]
    remaining = budget - len(grid)
    if remaining >= ndim + 2:
        steps = [0.5 * (_PERIODS.get(n, _DEFAULT_PERIOD) / per_dim) for n in names]
        simplex = np.repeat(best_x[:, None, :], ndim + 1, axis=1)
        for d in range(ndim):
            simplex[:, d + 1, d] += steps[d]
        res = minimize(lambda X, rows: -objective.batch(X, rows), simplex,
                       remaining, xatol=1e-7, fatol=1e-12)
        objective.refine_iterations += int(res.nit.sum())
        better = -res.fun > best_v
        best_x = np.where(better[:, None], res.x, best_x)
        best_v = np.where(better, -res.fun, best_v)
    return best_x, best_v


def _negative_delta(scenario: Scenario, vals) -> ValueError | None:
    """The error of a point whose fixed dephasing strength is negative."""
    if scenario.family.kind == PHASE_DEPHASING and vals.get("delta", 0.0) < 0:
        return ValueError(f"dephasing strength must be >= 0, got {vals['delta']}")
    return None


def _optimize(scenario: Scenario, base: dict, budget: int):
    """Maximize kappa for every problem of ``base`` or of a measurement
    stack in one lockstep run; returns per problem its ``OptimizeOutcome``,
    reported with its own POVM, or its error, and the run's ``SearchWork``.

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
    objective = _Objective(scenario, base, names)
    best_x, _ = _maximize(objective, names, budget)
    stack = isinstance(scenario.measurement, tuple)
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
        settings = {n: point[n] for n in scenario.free_inputs}
        problem = replace(scenario, measurement=scenario.measurement[p]) \
            if stack else scenario
        try:
            found.append(OptimizeOutcome(evaluate_kappa(problem, point),
                                         settings))
        except (RuntimeError, ValueError) as exc:
            found.append(exc)
    return found, objective.work()


def optimize_each(scenario: Scenario, at, budget: int = DEFAULT_BUDGET
                  ) -> tuple[list[OptimizeOutcome | Exception], SearchWork]:
    """Maximize kappa over the scenario's free inputs at a fixed sweep value,
    for each POVM of a measurement stack (or for the one measurement).

    ``at`` is the swept input's value, or None when every input is free or
    fixed. Every problem gets a coarse grid over each free input's period
    followed by a simplex refinement from its best grid point, and all
    problems run in lockstep, each as it would run alone; deterministic for
    a fixed budget. Returns per problem its ``OptimizeOutcome`` or the error
    it failed with, and the run's ``SearchWork`` once.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    base = dict(scenario.fixed_inputs)
    if at is not None:
        base[scenario.sweep] = float(at)
    error = _negative_delta(scenario, base)
    if error:
        raise error
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

    All points with a valid dephasing strength are optimized in one
    lockstep run, each as ``optimize_kappa`` would optimize it alone; a
    point that fails keeps its own error message and leaves the others
    untouched.
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
    outcomes = [_negative_delta(scenario, {**scenario.fixed_inputs,
                                           scenario.sweep: float(x)})
                for x in grid]
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


def _basis_projectors(bases: np.ndarray) -> np.ndarray:
    """The projectors onto the columns of each basis, (T, dim, dim, dim)
    from (T, dim, dim); element k of basis b is bit for bit
    ``np.outer(b[:, k], b[:, k].conj())``."""
    kets = bases.transpose(0, 2, 1)
    return kets[:, :, :, None] * kets.conj()[:, :, None, :]


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


#: trials drawn and optimized in one lockstep run
_SEARCH_CHUNK = _CALL_ROWS


def random_collective_search(trials: int, seed: int,
                             at: tuple[float, float] = DEFAULT_SEARCH_AT,
                             xi_budget: int = DEFAULT_XI_BUDGET
                             ) -> CollectiveSearchResult:
    """Max kappa over Haar-random rank-1 projective measurements on two
    copies of the two-phase probe at the rotation ``at`` = (phi_y, phi_z).

    Every trial draws a Haar-random orthonormal basis of the two-copy space
    (child generator seeded from ``(seed, trial)``), optimizes the shared
    input phase, and keeps the best kappa found; the first trial wins a
    tie. Trials are optimized in chunks of ``_SEARCH_CHUNK``, each chunk a
    scenario with a stack of one POVM per trial scored in one lockstep run,
    and every trial's optimum is the one it has alone. Only the winner is
    reported by ``evaluate_kappa``. Deterministic given seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if xi_budget < 1:
        raise ValueError("xi_budget must be >= 1")
    family = ProbeFamily.two_phase(copies=2)
    phi_y, phi_z = float(at[0]), float(at[1])
    fixed = {"phi_y": phi_y, "phi_z": phi_z}
    dim = 4
    labels = tuple(f"b{k}" for k in range(dim))
    best = (-np.inf, -1, 0.0, None, None)
    work = SearchWork()
    for start in range(0, trials, _SEARCH_CHUNK):
        chunk = range(start, min(start + _SEARCH_CHUNK, trials))
        bases = _haar_bases(np.stack([
            _complex_gaussian(np.random.default_rng([seed, t]), dim)
            for t in chunk]))
        stack = tuple(Povm(labels, elements)
                      for elements in _basis_projectors(bases))
        scenario = Scenario(family=family, measurement=stack,
                            free_inputs=("xi",), fixed_inputs=fixed, sweep=None)
        objective = _Objective(scenario, fixed, ["xi"])
        x, values = _maximize(objective, ["xi"], xi_budget)
        work += objective.work()
        for i, trial in enumerate(chunk):
            if values[i] > best[0]:
                best = (values[i], trial, float(x[i, 0]), bases[i],
                        replace(scenario, measurement=stack[i]))
    _, trial, xi, basis, winner = best
    result = evaluate_kappa(winner, {"xi": xi})
    return CollectiveSearchResult(
        max_kappa=result.kappa, trial_index=trial, xi=xi, basis=basis,
        per_parameter=result.per_parameter, trials=trials, seed=seed,
        at=(phi_y, phi_z), work=work)
