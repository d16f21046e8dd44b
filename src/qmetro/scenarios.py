"""End-to-end estimation scenarios: optimize the kappa figure of merit over
probe phases and measurement settings, scan it along a parameter grid, and
run the random collective-measurement search on two copies.

Free input names: ``phi``/``delta`` (phase-dephasing point), ``phi_y``/
``phi_z`` (two-phase point), ``xi``/``xi_1``/``xi_2`` (input phases), and the
analysis angles ``theta_1``/``eta_1``/``theta_2``/``eta_2`` of a product
measurement generator. Two-phase scenarios use a single shared input phase
``xi`` so that the single-copy quantum information in the kappa denominator
is unambiguous.

Every search evaluation is scored by the batched kernels
(``kernels.kappa_batch``), for any number of copies and for a fixed POVM or
a measurement generator alike; ``evaluate_kappa`` computes the reported
value at each optimum and is the reference the kernels are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from . import kernels
from .fisher import (DEFAULT_P_CUTOFF, KappaResult, classical_fi, kappa,
                     measurement_probabilities, qfi_matrix, sld_operators)
from .povm import MeasurementGenerator, Povm
from .states import (PHASE_DEPHASING, TWO_PHASE, ProbeFamily,
                     probe_with_derivatives)

DEFAULT_BUDGET = 2000
GRID_POINTS_PER_DIM = 17
#: fraction of the evaluation budget spent on the coarse grid; the remainder
#: goes to the simplex refinement
_GRID_FRACTION = 0.75

_PERIODS = {"theta_1": math.pi, "theta_2": math.pi}
_DEFAULT_PERIOD = 2.0 * math.pi


@dataclass(frozen=True)
class Scenario:
    """A probe family plus a measurement and a naming of what is optimized.

    ``free_inputs``, ``fixed_inputs`` and the swept name must be disjoint
    and together cover the family point, the input phases and any
    measurement settings; each free input is named once and used.
    """

    family: ProbeFamily
    measurement: Povm | MeasurementGenerator
    free_inputs: tuple[str, ...] = ()
    fixed_inputs: dict[str, float] = field(default_factory=dict)
    sweep: str = "delta"

    def __post_init__(self):
        free, required = self.free_inputs, self.required_inputs()
        provided = set(free) | set(self.fixed_inputs) | {self.sweep}
        if self.family.kind == TWO_PHASE and (
                "xi_1" in provided or "xi_2" in provided):
            raise ValueError("two-phase scenarios take a single shared input "
                             "phase 'xi'")
        # a shared input phase 'xi' stands for every per-copy phase xi_j
        shared = "xi" in provided
        for problem, names in (
                ("inputs both free and fixed or swept",
                 sorted(set(free) & (set(self.fixed_inputs) | {self.sweep}))),
                ("free inputs repeated",
                 sorted({n for n in free if free.count(n) > 1})),
                ("scenario does not cover inputs",
                 [n for n in required if n not in provided
                  and not (shared and n.startswith("xi"))]),
                ("free inputs not used by this scenario",
                 [n for n in free if n != "xi" and (
                     n not in required or shared and n.startswith("xi_"))]),
                ("swept input not used by this scenario",
                 [] if self.sweep in required else [self.sweep])):
            if names:
                raise ValueError(f"{problem}: {names}")

    def required_inputs(self) -> tuple[str, ...]:
        names = list(self.family.parameter_names)
        if self.family.kind == PHASE_DEPHASING:
            names += [f"xi_{i + 1}" for i in range(self.family.copies)]
        else:
            names += ["xi"]
        if isinstance(self.measurement, MeasurementGenerator):
            names += list(self.measurement.setting_names)
        return tuple(names)


@dataclass(frozen=True)
class OptimizeOutcome:
    result: KappaResult
    settings: dict[str, float]
    evaluations: int


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


def _resolve_phases(family: ProbeFamily, vals: dict[str, float]) -> tuple[float, ...]:
    if family.kind == TWO_PHASE:
        return (float(vals["xi"]),) * family.copies
    if "xi" in vals:
        return (float(vals["xi"]),) * family.copies
    return tuple(float(vals[f"xi_{i + 1}"]) for i in range(family.copies))


def _resolve_point(family: ProbeFamily, vals: dict[str, float]) -> tuple[float, float]:
    names = family.parameter_names
    return float(vals[names[0]]), float(vals[names[1]])


def _resolve_measurement(scenario: Scenario, vals) -> Povm:
    m = scenario.measurement
    return m if isinstance(m, Povm) else m.build(vals)


def single_copy_qfi_diagonal(family: ProbeFamily, params, xi: float) -> np.ndarray:
    """Quantum Fisher information diagonal of one probe copy."""
    one = replace(family, copies=1, input_phases=(xi,))
    swd = probe_with_derivatives(one, params)
    return np.diag(qfi_matrix(swd, sld_operators(swd))).copy()


def evaluate_kappa(scenario: Scenario, values: dict[str, float]) -> KappaResult:
    """Reference (unaccelerated) evaluation of kappa for explicit inputs."""
    vals = dict(scenario.fixed_inputs)
    vals.update(values)
    params = _resolve_point(scenario.family, vals)
    phases = _resolve_phases(scenario.family, vals)
    povm = _resolve_measurement(scenario, vals)
    family = replace(scenario.family, input_phases=phases)
    swd = probe_with_derivatives(family, params)
    p, dp = measurement_probabilities(swd, povm)
    report = classical_fi(p, dp, labels=povm.labels)
    hdiag = single_copy_qfi_diagonal(scenario.family, params, phases[0])
    return kappa(report, hdiag, m=scenario.family.copies)


class _Objective:
    """kappa as a function of the free-input vector; counts evaluations.

    Every call scores its N rows with one kernel call, whichever inputs are
    free: a free input is a column of the rows, and a fixed delta or
    rotation (phi_y, phi_z) one value that the kernel shares across them. A
    fixed POVM is shared by all rows, and a measurement generator builds one
    element set per row. ``evaluate_kappa`` is not called here.
    """

    def __init__(self, scenario: Scenario, base: dict[str, float],
                 names: list[str]):
        self.scenario = scenario
        self.base = base
        self.names = names
        self.evaluations = 0
        self.any_regular = False

    def __call__(self, x) -> float:
        return float(self.batch(np.asarray(x, dtype=float)[None])[0])

    def batch(self, X) -> np.ndarray:
        """The search score at every row of ``X`` (shape (N, len(names))):
        kappa, 0 where the Fisher matrix is singular, and -inf where delta
        < 0."""
        X = np.asarray(X, dtype=float)
        cols = {n: X[:, i] for i, n in enumerate(self.names)}

        def value(name):
            return cols[name] if name in cols else float(self.base[name])

        def column(name):
            return cols[name] if name in cols else np.full(
                len(X), float(self.base[name]))

        fam = self.scenario.family
        measurement = self.scenario.measurement
        povm = measurement.elements if isinstance(measurement, Povm) else \
            measurement.elements({n: column(n) for n in measurement.setting_names})
        if fam.kind == PHASE_DEPHASING:
            delta = value("delta")
            shared = "xi" in cols or "xi" in self.base
            phi = column("phi")
            alphas = np.stack([phi + column("xi" if shared else f"xi_{i + 1}")
                               for i in range(fam.copies)])
            kappa_values, _, _, status = kernels.kappa_phase_dephasing_batch(
                alphas, delta, povm, DEFAULT_P_CUTOFF)
            negative = delta < 0
            if "delta" in cols or negative:
                # kappa is even in delta, so the kernel scored the mirror
                # point; no dephasing strength is negative
                kappa_values = np.where(negative, -np.inf, kappa_values)
                status = np.where(negative, _NEGATIVE_DELTA, status)
        else:
            kappa_values, _, _, status = kernels.kappa_two_phase_batch(
                column("xi"), value("phi_y"), value("phi_z"), povm,
                DEFAULT_P_CUTOFF, copies=fam.copies)
        self.evaluations += len(X)
        self.any_regular = self.any_regular or bool((status == 0).any())
        return _search_score(kappa_values, status)


#: status of a row with delta < 0, beside the kernels' codes 0, 1 and 2
_NEGATIVE_DELTA = 3


def _search_score(kappa_values, status):
    """The search score: kappa, but 0 where the Fisher matrix is singular
    (status 1).

    kappa jumps at a singular point: the unaffected parameter keeps its full
    information there (see ``FisherReport``), which no neighbouring point
    attains, so a search started from such a point would stall on it.
    """
    return np.where(status == 1, 0.0, kappa_values)


def _maximize(objective, names: list[str], budget: int):
    """Deterministic coarse grid plus Nelder-Mead refinement.

    The grid is scored by one ``objective.batch`` call, the refinement by
    calls of ``objective``; both add to ``objective.evaluations``.
    """
    ndim = len(names)
    if ndim == 0:
        return np.zeros(0), objective(np.zeros(0))
    per_dim = min(GRID_POINTS_PER_DIM,
                  max(3, int((_GRID_FRACTION * budget) ** (1.0 / ndim))))
    axes = [np.linspace(0.0, _PERIODS.get(n, _DEFAULT_PERIOD), per_dim,
                        endpoint=False) for n in names]
    # rows in np.ndindex order: the last input varies fastest
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ndim)
    values = objective.batch(grid)
    # the first strict maximum wins and NaN never does, as a running
    # ``v > best`` comparison from -inf would choose
    ranked = np.where(np.isnan(values), -np.inf, values)
    best = int(np.argmax(ranked))
    best_x, best_v = grid[best], ranked[best]
    remaining = budget - objective.evaluations
    if remaining >= ndim + 2:
        steps = [0.5 * (_PERIODS.get(n, _DEFAULT_PERIOD) / per_dim) for n in names]
        simplex = [np.array(best_x, dtype=float)]
        for d in range(ndim):
            vertex = np.array(best_x, dtype=float)
            vertex[d] += steps[d]
            simplex.append(vertex)
        res = minimize(lambda x: -objective(x), best_x, method="Nelder-Mead",
                       options={"maxfev": remaining, "xatol": 1e-7,
                                "fatol": 1e-12, "initial_simplex": np.array(simplex)})
        if -res.fun > best_v:
            best_v, best_x = -res.fun, np.asarray(res.x, dtype=float)
    return best_x, best_v


def optimize_kappa(scenario: Scenario, at, budget: int = DEFAULT_BUDGET) -> OptimizeOutcome:
    """Maximize kappa over the scenario's free inputs at a fixed sweep value.

    ``at`` is the swept input's value (or a mapping of extra fixed values).
    The search is a coarse grid over each free input's period followed by a
    simplex refinement from the best grid point; deterministic for a fixed
    budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    base = dict(scenario.fixed_inputs)
    if isinstance(at, dict):
        base.update({k: float(v) for k, v in at.items()})
    elif at is not None:
        base[scenario.sweep] = float(at)
    if base.get("delta", 0.0) < 0 and scenario.family.kind == PHASE_DEPHASING:
        raise ValueError(f"dephasing strength must be >= 0, got {base['delta']}")
    names = list(scenario.free_inputs)
    objective = _Objective(scenario, base, names)
    best_x, _ = _maximize(objective, names, budget)
    if not objective.any_regular:
        raise RuntimeError(
            "kappa evaluation failed at every grid point (singular Fisher "
            f"matrix); scenario sweep {scenario.sweep} at {base.get(scenario.sweep)}")
    settings = {n: float(v) for n, v in zip(names, best_x)}
    vals = dict(base)
    vals.update(settings)
    result = evaluate_kappa(scenario, vals)
    return OptimizeOutcome(result=result, settings=settings,
                           evaluations=objective.evaluations)


def kappa_scan(scenario: Scenario, grid, budget: int = DEFAULT_BUDGET) -> KappaCurve:
    """Optimize kappa independently at every grid value of the swept input."""
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    n = scenario.family.num_parameters
    kappas = np.full(grid.size, np.nan)
    per = np.full((grid.size, n), np.nan)
    args: list[dict[str, float]] = []
    failed: list[str | None] = []
    for i, value in enumerate(grid):
        try:
            out = optimize_kappa(scenario, float(value), budget)
        except (RuntimeError, ValueError) as exc:
            args.append({name: float("nan") for name in scenario.free_inputs})
            failed.append(str(exc))
            continue
        kappas[i] = out.result.kappa
        per[i] = out.result.per_parameter
        args.append(out.settings)
        failed.append(None)
    return KappaCurve(sweep=scenario.sweep, grid=grid, kappa_values=kappas,
                      per_parameter=per,
                      parameter_names=scenario.family.parameter_names,
                      optimizer_args=tuple(args), failed=tuple(failed))


def default_delta_grid(lo: float = 0.02, hi: float = 3.0, points: int = 40) -> np.ndarray:
    """Log-spaced dephasing grid resolving both the small-delta drop region
    and the decoherence tail."""
    return np.geomspace(lo, hi, points)


# ---------------------------------------------------------------------------
# random collective-measurement search
# ---------------------------------------------------------------------------

def haar_random_basis(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Columns form a Haar-random orthonormal basis (QR of a complex
    Gaussian matrix with the R diagonal phase fixed)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[None, :]


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


def random_collective_search(family: ProbeFamily, trials: int, seed: int,
                             at: tuple[float, float] = (0.4, 0.3),
                             xi_budget: int = 48) -> CollectiveSearchResult:
    """Max kappa over Haar-random rank-1 projective measurements on 2 copies.

    Every trial draws a Haar-random orthonormal basis of the two-copy space
    (child generator seeded from ``(seed, trial)``), optimizes the shared
    input phase, and keeps the best kappa found. Deterministic given seed.
    """
    if family.kind != TWO_PHASE or family.copies != 2:
        raise ValueError("the collective search is defined for the two-phase "
                         "family on 2 copies")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if xi_budget < 1:
        raise ValueError("xi_budget must be >= 1")
    phi_y, phi_z = float(at[0]), float(at[1])
    dim = 4
    best = (-np.inf, -1, 0.0, None, None)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        basis = haar_random_basis(rng, dim)
        stack = np.stack([np.outer(basis[:, k], basis[:, k].conj())
                          for k in range(dim)])

        scenario = Scenario(
            family=family,
            measurement=Povm(tuple(f"b{k}" for k in range(dim)), stack),
            free_inputs=("xi",),
            fixed_inputs={"phi_y": phi_y, "phi_z": phi_z},
            sweep="phi_z")
        objective = _Objective(scenario, dict(scenario.fixed_inputs), ["xi"])
        x, value = _maximize(objective, ["xi"], xi_budget)
        if value > best[0]:
            best = (value, trial, float(x[0]), basis, scenario)
    value, trial, xi, basis, scenario = best
    result = evaluate_kappa(scenario, {"xi": xi})
    return CollectiveSearchResult(
        max_kappa=result.kappa, trial_index=trial, xi=xi, basis=basis,
        per_parameter=result.per_parameter, trials=trials, seed=seed,
        at=(phi_y, phi_z))
