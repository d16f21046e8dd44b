"""End-to-end estimation scenarios: optimize the kappa figure of merit over
probe phases and measurement settings, scan it along a parameter grid, and
run the random collective-measurement search on two copies.

Free input names: ``phi``/``delta`` (phase-dephasing point), ``phi_y``/
``phi_z`` (two-phase point), ``xi``/``xi_1``/``xi_2`` (input phases), and the
analysis angles ``theta_1``/``eta_1``/``theta_2``/``eta_2`` of a product
measurement generator. Two-phase scenarios use a single shared input phase
``xi`` so that the single-copy quantum information in the kappa denominator
is unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from . import kernels
from .fisher import (DEFAULT_P_CUTOFF, KappaResult, classical_fi, kappa,
                     measurement_probabilities, qfi_matrix, sld_operators)
from .povm import Povm, product_projective_povm
from .states import (PHASE_DEPHASING, TWO_PHASE, ProbeFamily,
                     probe_with_derivatives)

DEFAULT_BUDGET = 2000
GRID_POINTS_PER_DIM = 17
#: fraction of the evaluation budget spent on the coarse grid; the remainder
#: goes to the simplex refinement
_GRID_FRACTION = 0.75

_PERIODS = {"theta_1": math.pi, "theta_2": math.pi}
_DEFAULT_PERIOD = 2.0 * math.pi


class MeasurementGenerator:
    """A measurement family with named settings, built per evaluation."""

    setting_names: tuple[str, ...] = ()

    def build(self, settings: dict[str, float]) -> Povm:
        raise NotImplementedError


class ProductProjectiveGenerator(MeasurementGenerator):
    """Product of two single-qubit projective bases with free Bloch angles."""

    setting_names = ("theta_1", "eta_1", "theta_2", "eta_2")

    def build(self, settings):
        return product_projective_povm((settings["theta_1"], settings["eta_1"],
                                        settings["theta_2"], settings["eta_2"]))


@dataclass(frozen=True)
class Scenario:
    """A probe family plus a measurement and a naming of what is optimized.

    ``free_inputs`` and ``fixed_inputs`` must be disjoint and, together with
    the swept name, cover the family point, the input phases and any
    measurement settings.
    """

    family: ProbeFamily
    measurement: Povm | MeasurementGenerator
    free_inputs: tuple[str, ...] = ()
    fixed_inputs: dict[str, float] = field(default_factory=dict)
    sweep: str = "delta"

    def __post_init__(self):
        overlap = set(self.free_inputs) & set(self.fixed_inputs)
        if overlap:
            raise ValueError(f"inputs both free and fixed: {sorted(overlap)}")
        provided = set(self.free_inputs) | set(self.fixed_inputs) | {self.sweep}
        missing = [name for name in self.required_inputs() if not
                   (name in provided or (name.startswith("xi") and "xi" in provided))]
        if missing:
            raise ValueError(f"scenario does not cover inputs {missing}")
        if self.family.kind == TWO_PHASE and (
                "xi_1" in provided or "xi_2" in provided):
            raise ValueError("two-phase scenarios take a single shared input "
                             "phase 'xi'")
        if self.sweep not in self.required_inputs():
            raise ValueError(f"swept input {self.sweep!r} is not used by this "
                             "scenario")

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
    if isinstance(m, Povm):
        return m
    return m.build({k: float(vals[k]) for k in m.setting_names})


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
    """kappa as a function of the free-input vector; counts evaluations."""

    def __init__(self, scenario: Scenario, base: dict[str, float],
                 names: list[str]):
        self.scenario = scenario
        self.base = base
        self.names = names
        self.evaluations = 0
        self.any_regular = False
        self._fast = None
        fam = scenario.family
        if isinstance(scenario.measurement, Povm) and fam.copies == 2:
            stack = np.ascontiguousarray(scenario.measurement.elements)
            if fam.kind == PHASE_DEPHASING and "delta" not in names:
                delta = float(base["delta"])
                h = single_copy_qfi_diagonal(fam, (0.0, delta), 0.0)
                self._fast = ("dephasing", stack, delta, float(h[0]), float(h[1]))
            elif fam.kind == TWO_PHASE:
                self._fast = ("two-phase", stack)

    def __call__(self, x) -> float:
        vals = dict(self.base)
        vals.update(zip(self.names, (float(v) for v in x)))
        self.evaluations += 1
        if self._fast is not None and self._fast[0] == "dephasing":
            _, stack, delta, h1, h2 = self._fast
            phases = _resolve_phases(self.scenario.family, vals)
            phi = float(vals["phi"])
            value, _, _, status = kernels.kappa_phase_dephasing(
                phi + phases[0], phi + phases[1], delta, stack, h1, h2,
                DEFAULT_P_CUTOFF)
        elif self._fast is not None:
            _, stack = self._fast
            value, _, _, status = kernels.kappa_two_phase(
                float(vals["xi"]), float(vals["phi_y"]), float(vals["phi_z"]),
                stack, DEFAULT_P_CUTOFF)
        else:
            result = evaluate_kappa(self.scenario, vals)
            value = result.kappa
            status = 1 if (value == 0.0 and not result.per_parameter.any()) else 0
        if status == 0:
            self.any_regular = True
        return value


def _maximize(objective, names: list[str], budget: int):
    """Deterministic coarse grid plus Nelder-Mead refinement."""
    ndim = len(names)
    if ndim == 0:
        return np.zeros(0), objective(np.zeros(0))
    per_dim = min(GRID_POINTS_PER_DIM,
                  max(3, int((_GRID_FRACTION * budget) ** (1.0 / ndim))))
    axes = [np.linspace(0.0, _PERIODS.get(n, _DEFAULT_PERIOD), per_dim,
                        endpoint=False) for n in names]
    best_x = None
    best_v = -np.inf
    for idx in np.ndindex(*(len(a) for a in axes)):
        x = np.array([axes[d][idx[d]] for d in range(ndim)])
        v = objective(x)
        if v > best_v:
            best_v, best_x = v, x
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
    phi_y, phi_z = float(at[0]), float(at[1])
    dim = 4
    best = (-np.inf, -1, 0.0, None)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        basis = haar_random_basis(rng, dim)
        stack = np.ascontiguousarray(
            np.stack([np.outer(basis[:, k], basis[:, k].conj())
                      for k in range(dim)]))

        scenario = Scenario(
            family=family,
            measurement=Povm(tuple(f"b{k}" for k in range(dim)), stack),
            free_inputs=("xi",),
            fixed_inputs={"phi_y": phi_y, "phi_z": phi_z},
            sweep="phi_z")
        objective = _Objective(scenario, dict(scenario.fixed_inputs), ["xi"])
        x, value = _maximize(objective, ["xi"], xi_budget)
        if value > best[0]:
            best = (value, trial, float(x[0]), basis)
    value, trial, xi, basis = best
    stack = np.stack([np.outer(basis[:, k], basis[:, k].conj())
                      for k in range(dim)])
    scenario = Scenario(
        family=family,
        measurement=Povm(tuple(f"b{k}" for k in range(dim)), stack),
        free_inputs=("xi",),
        fixed_inputs={"phi_y": phi_y, "phi_z": phi_z},
        sweep="phi_z")
    result = evaluate_kappa(scenario, {"xi": xi})
    return CollectiveSearchResult(
        max_kappa=result.kappa, trial_index=trial, xi=xi, basis=basis,
        per_parameter=result.per_parameter, trials=trials, seed=seed,
        at=(phi_y, phi_z))
