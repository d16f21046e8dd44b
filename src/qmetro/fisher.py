"""Estimation theory: symmetric logarithmic derivatives, quantum and
classical Fisher information, weak commutativity, and the kappa figure of
merit.

Conventions
-----------
* SLD operators solve ``2 * d_rho_i = L_i rho + rho L_i``; on rank-deficient
  states the Moore-Penrose rule zeroes matrix elements across eigenvalue
  pairs whose sum falls below the support tolerance.
* The quantum Fisher information matrix is
  ``H_ij = Re Tr[rho (L_i L_j + L_j L_i)] / 2``.
* The kappa figure of merit sums, over parameters, the per-parameter
  effective classical information of the m-copy measurement divided by m
  and by the *single-copy* quantum information diagonal. This normalization
  is asserted here once and is not configurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import kernels
from .linalg import hermiticity_defect
from .povm import Povm
from .states import ProbeFamily, StateWithDerivatives, probe_with_derivatives

DEFAULT_P_CUTOFF = 1e-12
#: single-copy quantum-information denominators at or below this are excluded
#: from kappa: they are zero up to round-off, and dividing by them would turn
#: noise into a figure of merit
H_FLOOR = 1e-9
#: outcomes dropped for small probability are flagged as "boundary" when the
#: corresponding derivative is not negligible (diverging information)
BOUNDARY_DERIV_ATOL = 1e-6

_HERM_ATOL = 1e-9


@dataclass(frozen=True)
class SldSet:
    """Symmetric logarithmic derivative operators, one per parameter."""

    operators: np.ndarray         # (n, d, d) complex, Hermitian each
    support_tolerance: float


@dataclass(frozen=True)
class FisherReport:
    """Classical Fisher matrix with per-parameter effective information.

    ``effective_fi[j]`` equals ``1/(F^-1)_jj`` when F is invertible. For a
    singular F the parameters overlapping the null space get 0 (unbounded
    variance) and ``singular`` is set; ``dropped_outcomes`` lists outcomes
    skipped for probability below the cutoff, with ``boundary`` marking the
    case where a skipped outcome still carried derivative weight.
    """

    classical_fi: np.ndarray      # (n, n) float, symmetric PSD
    effective_fi: np.ndarray      # (n,) float
    singular: bool
    dropped_outcomes: tuple[str, ...] = ()
    boundary: bool = False


@dataclass(frozen=True)
class KappaResult:
    """Figure-of-merit breakdown: kappa = sum of per-parameter terms."""

    kappa: float
    per_parameter: np.ndarray     # (n,) float
    m: int
    excluded: tuple[int, ...] = ()

    @property
    def partial(self) -> bool:
        return bool(self.excluded)


def sld_operators(swd: StateWithDerivatives, support_tolerance: float | None = None) -> SldSet:
    """Solve the SLD defining equation by eigendecomposition of the state.

    ``support_tolerance`` defaults to ``1e-12 * max eigenvalue``; eigenvalue
    pairs summing below it are treated as the kernel and the corresponding
    SLD matrix elements are set to zero.
    """
    rho = swd.state
    if hermiticity_defect(rho) > _HERM_ATOL:
        raise ValueError("state is not Hermitian")
    w, v = np.linalg.eigh(rho)
    if support_tolerance is None:
        support_tolerance = 1e-12 * float(w.max())
    pair_sums = w[:, None] + w[None, :]
    safe = pair_sums > support_tolerance
    ops = []
    for drho in swd.derivatives:
        if hermiticity_defect(drho) > _HERM_ATOL:
            raise ValueError("derivative is not Hermitian")
        mid = v.conj().T @ drho @ v
        coeff = np.where(safe, 2.0 / np.where(safe, pair_sums, 1.0), 0.0)
        ops.append(v @ (coeff * mid) @ v.conj().T)
    return SldSet(np.array(ops), float(support_tolerance))


def sld_residual(swd: StateWithDerivatives, slds: SldSet) -> float:
    """Max entrywise residual of ``2 d_rho - L rho - rho L`` on the support."""
    rho = swd.state
    w, v = np.linalg.eigh(rho)
    support = w > slds.support_tolerance
    proj = (v[:, support]) @ (v[:, support].conj().T)
    worst = 0.0
    for drho, L in zip(swd.derivatives, slds.operators):
        res = 2.0 * drho - L @ rho - rho @ L
        worst = max(worst, float(np.abs(proj @ res @ proj).max()))
    return worst


def qfi_matrix(swd: StateWithDerivatives, slds: SldSet | None = None) -> np.ndarray:
    """Quantum Fisher information matrix from the SLD anticommutators."""
    if slds is None:
        slds = sld_operators(swd)
    ops = slds.operators
    n = ops.shape[0]
    H = np.empty((n, n))
    rho = swd.state
    for i in range(n):
        for j in range(i, n):
            anti = ops[i] @ ops[j] + ops[j] @ ops[i]
            H[i, j] = H[j, i] = float(np.real(np.trace(rho @ anti))) / 2.0
    return H


def weak_commutativity(swd: StateWithDerivatives, slds: SldSet | None = None,
                       i: int = 0, j: int = 1) -> float:
    """Expectation value of the SLD commutator, ``Tr[rho [L_i, L_j]] / i``.

    A zero value signals that the multiparameter quantum Cramer-Rao bound is
    asymptotically saturable. Antisymmetric under i <-> j; exactly 0 at i=j.
    """
    if i == j:
        return 0.0
    if slds is None:
        slds = sld_operators(swd)
    li, lj = slds.operators[i], slds.operators[j]
    # the explicit commutator form is exactly antisymmetric in floating point
    t_ij = np.trace(swd.state @ (li @ lj))
    t_ji = np.trace(swd.state @ (lj @ li))
    return float(np.imag(t_ij - t_ji))


def weak_commutativity_root(phi_y: float, phi_z: float, *, copies: int = 1,
                            scan_points: int = 64, xtol: float = 1e-12) -> float:
    """Input phase at which the two-phase SLD commutator expectation vanishes.

    Scans the input phase over one period for a sign change and refines by
    bisection. Raises ValueError when no sign change is found (degenerate
    rotation settings).
    """

    def value(xi: float) -> float:
        family = ProbeFamily.two_phase(copies=copies, xi=xi)
        swd = probe_with_derivatives(family, (phi_y, phi_z))
        return weak_commutativity(swd)

    grid = np.linspace(0.0, 2.0 * np.pi, scan_points + 1)
    vals = [value(x) for x in grid]
    for k in range(scan_points):
        if vals[k] == 0.0:
            return float(grid[k])
        if vals[k] * vals[k + 1] < 0.0:
            return float(brentq(value, grid[k], grid[k + 1], xtol=xtol))
    raise ValueError(
        f"no sign change of the SLD commutator over one period at "
        f"(phi_y, phi_z) = ({phi_y}, {phi_z})")


def measurement_probabilities(swd: StateWithDerivatives, povm: Povm):
    """Outcome probabilities and their parameter derivatives.

    Returns ``(p, dp)`` with ``p[k] = Re Tr[rho P_k]`` and
    ``dp[i, k] = Re Tr[(d_i rho) P_k]``. Imaginary residues beyond 1e-10
    indicate non-Hermitian inputs and raise.
    """
    if swd.dim != povm.dim:
        raise ValueError(f"dimension mismatch: state {swd.dim}, povm {povm.dim}")
    raw = np.einsum("kij,ji->k", povm.elements, swd.state)
    draw = np.einsum("kij,pji->pk", povm.elements, swd.derivatives)
    resid = max(float(np.abs(raw.imag).max()), float(np.abs(draw.imag).max()))
    if resid > 1e-10:
        raise ValueError(f"imaginary probability residue {resid:.3e} exceeds 1e-10")
    return raw.real, draw.real


def classical_fi(probabilities, derivative_probabilities,
                 p_cutoff: float = DEFAULT_P_CUTOFF,
                 labels: tuple[str, ...] | None = None) -> FisherReport:
    """Classical Fisher information matrix of an outcome distribution.

    Outcomes with probability below ``p_cutoff`` are skipped and reported in
    ``dropped_outcomes`` rather than silently ignored; a dropped outcome with
    non-negligible derivative marks the report as ``boundary`` (the exact
    information there diverges). The effective information per parameter is
    ``1/(F^-1)_jj``; see FisherReport for the singular policy.
    """
    p = np.asarray(probabilities, dtype=float)
    dp = np.atleast_2d(np.asarray(derivative_probabilities, dtype=float))
    if dp.shape[1] != p.shape[0]:
        raise ValueError(f"derivatives have {dp.shape[1]} outcomes, expected {p.shape[0]}")
    if p.min() < -1e-12:
        raise ValueError(f"negative probability {p.min():.3e}")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {p.sum()}, expected 1")
    worst = np.abs(dp.sum(axis=1)).max()
    if worst > 1e-6:
        raise ValueError(f"derivative probabilities sum to {worst:.3e} per "
                         "parameter, expected 0")
    if labels is None:
        labels = tuple(str(k) for k in range(p.shape[0]))

    keep = p >= p_cutoff
    dropped = tuple(lbl for lbl, k in zip(labels, keep) if not k)
    boundary = bool((~keep).any()
                    and float(np.abs(dp[:, ~keep]).max(initial=0.0)) > BOUNDARY_DERIV_ATOL)
    F = kernels.fisher_matrix(p, np.ascontiguousarray(dp), p_cutoff)
    F = 0.5 * (F + F.T)

    n = F.shape[0]
    top = float(F.diagonal().max(initial=0.0))
    det = float(np.linalg.det(F))
    singular = top <= 0.0 or abs(det) < 1e-12 * top ** n
    if singular:
        eff = np.zeros(n)
        if top > 0:
            w, v = np.linalg.eigh(F)
            null = w < 1e-12 * top
            affected = (np.abs(v[:, null]) ** 2).sum(axis=1) > 1e-8
            pinv = np.linalg.pinv(F, rcond=1e-12)
            for j in range(n):
                if not affected[j] and pinv[j, j] > 0:
                    eff[j] = 1.0 / pinv[j, j]
    else:
        eff = 1.0 / np.diag(np.linalg.inv(F))
    return FisherReport(classical_fi=F, effective_fi=np.asarray(eff, dtype=float),
                        singular=bool(singular), dropped_outcomes=dropped,
                        boundary=boundary)


def kappa(report: FisherReport, single_copy_qfi_diagonal, m: int) -> KappaResult:
    """Figure of merit: sum over parameters of (effective FI / m) / H_jj.

    ``single_copy_qfi_diagonal`` is always the single-copy quantum Fisher
    information diagonal, with the m-copy classical information divided by m.
    Parameters whose quantum denominator is at or below ``H_FLOOR`` are
    excluded from the sum and flagged.
    """
    h = np.asarray(single_copy_qfi_diagonal, dtype=float)
    if m < 1:
        raise ValueError("m must be >= 1")
    n = report.effective_fi.shape[0]
    if h.shape[0] != n:
        raise ValueError("one quantum-information entry per parameter required")
    per = np.zeros(n)
    excluded = []
    for j in range(n):
        if h[j] <= H_FLOOR:
            excluded.append(j)
            continue
        per[j] = (report.effective_fi[j] / m) / h[j]
    return KappaResult(kappa=float(per.sum()), per_parameter=per, m=int(m),
                       excluded=tuple(excluded))
