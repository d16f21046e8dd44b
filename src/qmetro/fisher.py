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

import math
from dataclasses import dataclass

import numpy as np

# the kappa policy constants live in ``kernels``; ``kernels.fisher_matrix``
# is looked up through the module at call time, so that a wrapper set on the
# module attribute sees every call
from . import kernels
from .kernels import DEFAULT_P_CUTOFF, H_FLOOR, SINGULAR_CUTOFF
from .linalg import hermiticity_defect
from .povm import Povm
from .states import ProbeFamily, StateWithDerivatives, probe_with_derivatives

#: outcomes dropped for small probability are flagged as "boundary" when the
#: corresponding derivative is not negligible (diverging information)
BOUNDARY_DERIV_ATOL = 1e-6

_HERM_ATOL = 1e-9
#: SLD matrix elements across eigenvalue pairs summing below this times the
#: largest eigenvalue are set to zero
_SUPPORT_RTOL = 1e-12
#: a commutator expectation whose amplitude over the input phase is at or
#: below this is zero up to round-off (it is of order 1 at generic
#: rotations), and every input phase is a root
_ROOT_AMPLITUDE_FLOOR = 1e-12


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
    """Figure-of-merit breakdown: kappa = sum of per-parameter terms.

    ``singular`` is copied from the ``FisherReport`` the terms came from.
    """

    kappa: float
    per_parameter: np.ndarray     # (n,) float
    m: int
    excluded: tuple[int, ...] = ()
    singular: bool = False


def sld_operators(swd: StateWithDerivatives) -> np.ndarray:
    """Solve the SLD defining equation by eigendecomposition of the state;
    returns the (n, d, d) stack of Hermitian operators, one per parameter.

    The support tolerance is ``1e-12 * max eigenvalue``; eigenvalue pairs
    summing below it are treated as the kernel and the corresponding SLD
    matrix elements are set to zero.
    """
    rho = swd.state
    if hermiticity_defect(rho) > _HERM_ATOL:
        raise ValueError("state is not Hermitian")
    w, v = np.linalg.eigh(rho)
    pair_sums = w[:, None] + w[None, :]
    safe = pair_sums > _SUPPORT_RTOL * float(w.max())
    coeff = np.where(safe, 2.0 / np.where(safe, pair_sums, 1.0), 0.0)
    ops = []
    for drho in swd.derivatives:
        if hermiticity_defect(drho) > _HERM_ATOL:
            raise ValueError("derivative is not Hermitian")
        ops.append(v @ (coeff * (v.conj().T @ drho @ v)) @ v.conj().T)
    return np.array(ops)


def qfi_matrix(swd: StateWithDerivatives) -> np.ndarray:
    """Quantum Fisher information matrix from the SLD anticommutators."""
    ops, rho = sld_operators(swd), swd.state
    n = ops.shape[0]
    H = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            anti = ops[i] @ ops[j] + ops[j] @ ops[i]
            H[i, j] = H[j, i] = float(np.real(np.trace(rho @ anti))) / 2.0
    return H


def weak_commutativity(swd: StateWithDerivatives) -> float:
    """Expectation value of the commutator of the two parameters' SLDs,
    ``Tr[rho [L_0, L_1]] / i``.

    A zero value signals that the multiparameter quantum Cramer-Rao bound is
    asymptotically saturable.
    """
    l0, l1 = sld_operators(swd)
    return float(np.imag(np.trace(swd.state @ (l0 @ l1))
                         - np.trace(swd.state @ (l1 @ l0))))


def weak_commutativity_root(phi_y: float, phi_z: float) -> float:
    """First input phase in [0, pi) at which the two-phase SLD commutator
    expectation vanishes, in closed form.

    Any expectation in the probe ket (|0> + e^{i xi}|1>)/sqrt(2) is
    a + b cos xi + c sin xi, and the commutator's has a = 0, so its roots
    are atan2(-b, c) mod pi and that plus pi. The probe is one copy: the
    m-copy commutator is m times the single-copy one and has the same
    roots. Where the expectation vanishes for every input phase (up to
    round-off, as at (phi_y, phi_z) = (pi/2, 0)), returns 0.0.
    """
    b, c = (weak_commutativity(probe_with_derivatives(
        ProbeFamily.two_phase(), (phi_y, phi_z), (xi,)))
        for xi in (0.0, math.pi / 2))
    if math.hypot(b, c) <= _ROOT_AMPLITUDE_FLOOR:
        return 0.0
    return math.atan2(-b, c) % math.pi


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
                 labels: tuple[str, ...] | None = None) -> FisherReport:
    """Classical Fisher information matrix of an outcome distribution.

    Outcomes with probability below ``DEFAULT_P_CUTOFF`` are skipped and
    reported in ``dropped_outcomes`` rather than silently ignored; a dropped
    outcome with non-negligible derivative marks the report as ``boundary``
    (the exact information there diverges). The effective information per
    parameter is ``1/(F^-1)_jj``; see FisherReport for the singular policy.
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

    keep = p >= DEFAULT_P_CUTOFF
    dropped = tuple(lbl for lbl, k in zip(labels, keep) if not k)
    boundary = bool((~keep).any()
                    and float(np.abs(dp[:, ~keep]).max(initial=0.0)) > BOUNDARY_DERIV_ATOL)
    F = kernels.fisher_matrix(p, np.ascontiguousarray(dp), DEFAULT_P_CUTOFF)
    F = 0.5 * (F + F.T)

    # relative to the largest diagonal entry, as in ``kernels.kappa_batch``;
    # F is positive semidefinite, so a negative determinant is round-off
    top = float(F.diagonal().max(initial=0.0))
    singular = top <= 0.0 or float(np.linalg.det(F / top)) < SINGULAR_CUTOFF
    if singular:
        eff = kernels.singular_effective_information(F[None])[0]
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
                       excluded=tuple(excluded), singular=report.singular)
