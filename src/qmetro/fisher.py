"""Estimation theory: classical Fisher information, the kappa figure of
merit, the two-phase weak-commutativity root, and the SLD solve that is the
tests' oracle for the closed-form quantum information of
``states.qfi_entry`` and ``states.commutator_entry``.

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
from .states import (StateWithDerivatives, commutator_entry,
                     two_phase_coordinates)

#: outcomes dropped for small probability are flagged as "boundary" when the
#: corresponding derivative is not negligible (diverging information)
BOUNDARY_DERIV_ATOL = 1e-6

_HERM_ATOL = 1e-9
#: an imaginary part of a probability beyond this means a non-Hermitian
#: state or POVM element
_IMAGINARY_ATOL = 1e-10
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


def weak_commutativity_root(phi_y: float, phi_z: float) -> float:
    """First input phase in [0, pi) at which the two-phase SLD commutator
    expectation vanishes, in closed form.

    Any expectation in the probe ket (|0> + e^{i xi}|1>)/sqrt(2) is a + b
    cos xi + c sin xi. The commutator's, 2 D_01 (``states.commutator_entry``)
    of one copy or m times that of m, has a = 0, so its roots are atan2(-b,
    c) mod pi and that plus pi. Where it vanishes for every input phase (up
    to round-off, as at (phi_y, phi_z) = (pi/2, 0)), returns 0.0.
    """
    b, c = commutator_entry(two_phase_coordinates(
        np.array([0.0, math.pi / 2]), phi_y, phi_z), 0, 1)
    if math.hypot(b, c) <= _ROOT_AMPLITUDE_FLOOR:
        return 0.0
    return math.atan2(-b, c) % math.pi


def outcome_probabilities(stack, elements):
    """Outcome probabilities and their parameter derivatives of P states,
    from their (1 + n, P, d, d) stack of density matrices and derivatives
    (``states.density_matrices``), or of one state at every point from its
    (1 + n, d, d) stack, measured by one element set (K, d, d) or by one per
    point (P, K, d, d).

    Returns ``(p, dp, errors)`` with ``p[s, k] = Re Tr[rho_s P_k]``,
    ``dp[s, i, k] = Re Tr[(d_i rho_s) P_k]`` and, per point, the error of
    an imaginary residue beyond 1e-10 (a non-Hermitian input) or None. A
    point's bits do not depend on P.
    """
    if stack.shape[-1] != elements.shape[-1]:
        raise ValueError(f"dimension mismatch: state {stack.shape[-1]}, povm "
                         f"{elements.shape[-1]}")
    if stack.ndim == 3:
        stack = stack[:, None] if elements.ndim == 3 else np.repeat(
            stack[:, None], len(elements), axis=1)
    shared = elements.ndim == 3
    # Tr[rho P_k] summed over j per row i, then over i in order: the order
    # of a one-state np.einsum("kij,ji->k"), kept for every point of any
    # stack, which one contraction over both indices would not keep
    traces = np.add.accumulate(np.einsum(
        "kij,nji->nki" if shared else "nkij,nji->nki", elements, stack[0]),
        axis=-1)[..., -1]
    derivatives = np.einsum("kij,snji->nsk" if shared else "nkij,snji->nsk",
                            elements, stack[1:])
    errors = [None] * len(traces)
    imag, dimag = np.abs(traces.imag), np.abs(derivatives.imag)
    high = np.maximum.reduce
    # every point at once, and each on its own only where that fails
    if max(high(imag, axis=None), high(dimag, axis=None)) > _IMAGINARY_ATOL:
        residue = np.maximum(high(imag, axis=-1), high(dimag, axis=(1, 2)))
        for s in np.flatnonzero(residue > _IMAGINARY_ATOL):
            errors[s] = ValueError(f"imaginary probability residue "
                                   f"{residue[s]:.3e} exceeds 1e-10")
    return traces.real, derivatives.real, errors


def measurement_probabilities(swd: StateWithDerivatives, povm: Povm):
    """Outcome probabilities and their parameter derivatives of one state.

    Returns ``(p, dp)`` with ``p[k] = Re Tr[rho P_k]`` and
    ``dp[i, k] = Re Tr[(d_i rho) P_k]``: ``outcome_probabilities`` at one
    point. Imaginary residues beyond 1e-10 indicate non-Hermitian inputs
    and raise.
    """
    p, dp, [error] = outcome_probabilities(
        np.concatenate([swd.state[None], swd.derivatives]), povm.elements)
    if error is not None:
        raise error
    return p[0], dp[0]


def classical_fi(probabilities, derivative_probabilities,
                 labels: tuple[str, ...] | None = None):
    """Classical Fisher information matrix of an outcome distribution
    ``p`` (K,) with derivatives ``dp`` (n, K), or of each of a stack ``p``
    (P, K), ``dp`` (P, n, K).

    Outcomes with probability below ``DEFAULT_P_CUTOFF`` are skipped and
    reported in ``dropped_outcomes`` rather than silently ignored; a dropped
    outcome with non-negligible derivative marks the report as ``boundary``
    (the exact information there diverges). The effective information per
    parameter is ``1/(F^-1)_jj``; see FisherReport for the singular policy.

    One distribution gives its ``FisherReport`` or raises; a stack gives a
    list with each distribution's report or the ValueError its checks
    raised, and ``labels`` may then hold one label tuple per distribution.
    Every step treats a distribution on its own, so it gets the same bits
    alone and in a stack.
    """
    p = np.asarray(probabilities, dtype=float)
    dp = np.asarray(derivative_probabilities, dtype=float)
    one = p.ndim == 1
    if one:
        p, dp = p[None], dp.reshape((1, -1, dp.shape[-1]))
    if dp.shape[-1] != p.shape[-1]:
        raise ValueError(f"derivatives have {dp.shape[-1]} outcomes, "
                         f"expected {p.shape[-1]}")
    if labels is None:
        labels = tuple(str(k) for k in range(p.shape[-1]))
    if one or isinstance(labels[0], str):
        labels = [labels] * len(p)
    dp = np.ascontiguousarray(dp)
    # ufunc reductions, which skip the array methods' Python wrappers
    low, high, add = np.minimum.reduce, np.maximum.reduce, np.add.reduce
    total = add(p, axis=-1)
    drift = np.abs(add(dp, axis=-1))
    found = None
    # every distribution at once, and each on its own only where that
    # fails; t - 1 rounds monotonically, so the extremes of the totals
    # decide |t - 1| for all
    if not (low(p, axis=None) >= -1e-12
            and abs(high(total, axis=None) - 1.0) <= 1e-6
            and abs(low(total, axis=None) - 1.0) <= 1e-6
            and high(drift, axis=None) <= 1e-6):
        lowest, worst = low(p, axis=-1), high(drift, axis=-1)
        bad = ((lowest < -1e-12) | (np.abs(total - 1.0) > 1e-6)
               | (worst > 1e-6))
        found = [None] * len(p)
        for s in np.flatnonzero(bad):
            found[s] = ValueError(
                f"negative probability {lowest[s]:.3e}" if lowest[s] < -1e-12
                else f"probabilities sum to {total[s]}, expected 1"
                if abs(total[s] - 1.0) > 1e-6 else
                f"derivative probabilities sum to {worst[s]:.3e} per "
                "parameter, expected 0")
        if one and found[0] is not None:
            raise found[0]
        dp = np.where(bad[:, None, None], 0.0, dp)

    dropped, boundary = [()] * len(p), [False] * len(p)
    if not low(p, axis=None) >= DEFAULT_P_CUTOFF:
        out = ~(p >= DEFAULT_P_CUTOFF)
        dropped = [tuple(label for label, o in zip(names, row) if o)
                   for names, row in zip(labels, out.tolist())]
        boundary = (np.abs(np.where(out[:, None, :], dp, 0.0)).max(
            axis=(1, 2)) > BOUNDARY_DERIV_ATOL).tolist()
    F = kernels.fisher_matrix(p, dp, DEFAULT_P_CUTOFF)
    F = 0.5 * (F + F.swapaxes(-1, -2))

    # relative to the largest diagonal entry, as in ``kernels.kappa_batch``;
    # F is positive semidefinite, so a negative determinant is round-off
    top = high(F.diagonal(axis1=-2, axis2=-1), axis=-1, initial=0.0)
    if low(top, axis=None) > 0.0:
        singular = np.linalg.det(F / top[:, None, None]) < SINGULAR_CUTOFF
    else:
        # nothing is divided by a top at or below 0, or nan, and only a top
        # at or below 0 is singular
        singular = top <= 0.0
        scaled = top > 0.0
        singular[scaled] = np.linalg.det(
            F[scaled] / top[scaled, None, None]) < SINGULAR_CUTOFF
    if np.count_nonzero(singular):
        eff = np.empty(F.shape[:-1])
        eff[singular] = kernels.singular_effective_information(F[singular])
        regular = ~singular
        if np.count_nonzero(regular):
            eff[regular] = 1.0 / np.linalg.inv(F[regular]).diagonal(
                axis1=-2, axis2=-1)
    else:
        eff = 1.0 / np.linalg.inv(F).diagonal(axis1=-2, axis2=-1)
    reports = [FisherReport(classical_fi=F[i], effective_fi=eff[i],
                            singular=singular_i, dropped_outcomes=dropped[i],
                            boundary=boundary[i])
               for i, singular_i in enumerate(singular.tolist())]
    if found is not None:
        # a failed distribution, scored without derivatives, keeps its error
        reports = [error or report for error, report in zip(found, reports)]
    return reports[0] if one else reports


def kappa(report, single_copy_qfi_diagonal, m: int):
    """Figure of merit: sum over parameters of (effective FI / m) / H_jj.

    ``single_copy_qfi_diagonal`` is always the single-copy quantum Fisher
    information diagonal, with the m-copy classical information divided by m.
    Parameters whose quantum denominator is at or below ``H_FLOOR`` are
    excluded from the sum and flagged. One ``FisherReport`` gives one
    ``KappaResult``; a list of P reports, with one diagonal (n,) for all or
    a (P, n) stack of them, gives the list of their results, each with the
    bits it gets alone.
    """
    one = isinstance(report, FisherReport)
    reports = [report] if one else report
    h = np.asarray(single_copy_qfi_diagonal, dtype=float)
    if m < 1:
        raise ValueError("m must be >= 1")
    eff = np.array([r.effective_fi for r in reports]) if len(reports) > 1 \
        else reports[0].effective_fi[None]
    if h.shape[-1] != eff.shape[-1]:
        raise ValueError("one quantum-information entry per parameter required")
    if np.minimum.reduce(h, axis=None) > H_FLOOR:
        per = (eff / m) / h
        skipped = [()] * len(reports)
    else:
        excluded = h <= H_FLOOR
        per = np.where(excluded, 0.0, (eff / m) / np.where(excluded, 1.0, h))
        skipped = [tuple(j for j, out in enumerate(row) if out) for row in
                   np.broadcast_to(excluded, per.shape).tolist()]
    total = np.add.reduce(per, axis=-1).tolist()
    results = [KappaResult(kappa=total[s], per_parameter=per[s], m=int(m),
                           excluded=skipped[s], singular=r.singular)
               for s, r in enumerate(reports)]
    return results[0] if one else results
