"""Hot numeric kernels behind the scans, searches and the tomography loop.

Kernel contracts:

* ``fisher_matrix(p, dp, cutoff)`` -> classical Fisher matrix, skipping
  outcomes with probability below ``cutoff``
* ``kappa_batch(...)`` and its front ends
  ``kappa_phase_dephasing_batch(...)`` / ``kappa_two_phase_batch(...)`` ->
  fused figure-of-merit evaluation of N points at once on any number of
  copies, with one POVM shared by every point or one per point: arrays
  (kappa, per-parameter terms, status) with status 0 = ok, 1 = singular
  Fisher matrix (terms follow ``fisher.FisherReport``'s rule), 2 = a
  quantum-information denominator at or below ``H_FLOOR`` (term
  excluded). A front end takes delta or the rotation (phi_y, phi_z) as one
  value or N, and divides by the closed-form single-copy quantum information
  of ``states``; ``kappa_phase_dephasing(...)`` / ``kappa_two_phase(...)``
  evaluate one two-copy point and return Python scalars; the multi-copy
  states come from ``states.copies_with_derivatives``
* ``mle_iterate(...)`` -> multiplicative maximum-likelihood update loop for
  detector reconstruction (Rehacek et al., PRA 75, 042108, 2007) with a
  monotone-likelihood line search, on real products of float views: all R_k
  are one product, the probabilities another, gathered at the observed cells
  by a flat index; the full step is the line search's first trial. It
  returns why it stopped: ``"tolerance"`` (the relative log-likelihood
  change fell to tol), ``"stalled"`` (no damped step kept the
  log-likelihood) or ``"max_iters"``
"""

from __future__ import annotations

import numpy as np

from .states import (copies_with_derivatives, dephasing_qfi,
                     dephasing_with_derivatives, pure_qfi_diagonal,
                     pure_with_derivatives, two_phase_ket_with_derivatives)

__all__ = [
    "BACKEND",
    "DEFAULT_P_CUTOFF",
    "H_FLOOR",
    "SINGULAR_CUTOFF",
    "fisher_matrix",
    "kappa_batch",
    "kappa_phase_dephasing",
    "kappa_phase_dephasing_batch",
    "kappa_two_phase",
    "kappa_two_phase_batch",
    "mle_iterate",
    "singular_effective_information",
]

#: The kernels are vectorized numpy; the name is recorded by benchmark runs.
BACKEND = "numpy"

# The kappa policy, shared with the reference path in ``fisher``:
#: outcomes with probability below this are left out of the Fisher matrix
DEFAULT_P_CUTOFF = 1e-12
#: single-copy quantum-information denominators at or below this are excluded
#: from kappa: they are zero up to round-off, and dividing by them would turn
#: noise into a figure of merit
H_FLOOR = 1e-9
#: a Fisher matrix is singular when, divided by its largest diagonal entry,
#: its determinant is below this; its eigenvalues below it span the null space
SINGULAR_CUTOFF = 1e-12

_LL_SLACK = 1e-12     # relative slack when enforcing likelihood monotonicity
_SMALLEST = np.finfo(float).smallest_subnormal


def fisher_matrix(p, dp, cutoff):
    keep = p >= cutoff
    dk = dp[:, keep]
    return (dk / p[keep]) @ dk.T


def singular_effective_information(F):
    """Per-parameter information of singular Fisher matrices (stack (N, n, n)).

    A parameter whose direction overlaps the null space of F gets 0 (its
    variance is unbounded); any other keeps ``1/pinv(F)_jj``. This is the
    rule documented on ``fisher.FisherReport``. Returns shape (N, n).
    """
    F = np.asarray(F, dtype=float)
    top = F.diagonal(axis1=-2, axis2=-1).max(axis=-1)
    unit = F / np.where(top > 0.0, top, 1.0)[:, None, None]
    w, v = np.linalg.eigh(unit)
    null = w < SINGULAR_CUTOFF
    affected = (np.abs(v) ** 2 * null[:, None, :]).sum(axis=-1) > 1e-8
    pinv = np.linalg.pinv(unit, rcond=SINGULAR_CUTOFF)
    pinv = pinv.diagonal(axis1=-2, axis2=-1)
    keep = (top[:, None] > 0.0) & ~affected & (pinv > 0.0)
    # 1/pinv(F)_jj = top / pinv(F / top)_jj
    return np.where(keep, top[:, None] / np.where(keep, pinv, 1.0), 0.0)


def kappa_batch(povm, states, dstates, h1, h2, m, cutoff):
    """kappa of N m-copy states from their Fisher matrices.

    ``states`` is (N, d, d) and ``dstates`` is (N, 2, d, d) with d = 2^m,
    and ``h1``, ``h2`` are the single-copy quantum-information diagonals,
    scalars or length N. ``povm`` is one (K, d, d) element stack for every
    point or an (N, K, d, d) stack of one per point. Returns arrays
    ``(kappa, k1, k2, status)`` of length N.
    """
    if povm.shape[-1] != states.shape[-1]:
        raise ValueError(f"dimension mismatch: state {states.shape[-1]}, "
                         f"povm {povm.shape[-1]}")
    elements = "nkij" if povm.ndim == 4 else "kij"
    # with both operands' (i, j) axes contiguous the contraction order does
    # not depend on N, so a row's kappa is the same bits alone or in a batch
    p = np.einsum(f"{elements},nij->nk", povm,
                  np.ascontiguousarray(states.transpose(0, 2, 1))).real
    dp = np.einsum(f"{elements},npji->npk", povm, dstates).real
    keep = (p >= cutoff)[:, None, :]
    F = np.divide(dp, p[:, None, :], out=np.zeros_like(dp), where=keep) \
        @ dp.transpose(0, 2, 1)
    f00, f01, f11 = F[:, 0, 0], F[:, 0, 1], F[:, 1, 1]
    det = f00 * f11 - f01 * f01
    # det(F) / top^2 with top = max(f00, f11) is min(f00, f11) / top -
    # (f01 / top)^2, which does not underflow as top * top does below about
    # 1e-154; the smallest subnormal stands in for top = 0, which gives 0.
    # F is positive semidefinite, so a negative value is round-off (as in a
    # subnormal F) and the matrix singular
    top = np.maximum(np.maximum(f00, f11), _SMALLEST)
    ratio = f01 / top
    singular = np.minimum(f00, f11) / top - ratio * ratio < SINGULAR_CUTOFF
    # 1/(F^-1)_jj of an invertible 2x2 matrix is det(F) / F_kk with k != j
    other = F.diagonal(axis1=1, axis2=2)[:, ::-1]
    eff = det[:, None] / np.where(singular[:, None], 1.0, other)
    if singular.any():
        eff[singular] = singular_effective_information(F[singular])
    h = np.empty_like(eff)
    h[:, 0], h[:, 1] = h1, h2
    counted = h > H_FLOOR
    # (m-copy effective information / m) / H_jj
    terms = np.where(counted, eff / (m * np.where(counted, h, 1.0)), 0.0)
    status = np.where(singular, 1, np.where(counted.all(axis=-1), 0, 2))
    return terms.sum(axis=-1), terms[:, 0], terms[:, 1], status


def _kappa_of_copies(povm, singles, h1, h2, cutoff):
    """``kappa_batch`` of the product of copies whose state-and-derivative
    stacks are ``singles``, one (3, N, 2, 2) stack per copy."""
    joint = copies_with_derivatives(singles)
    return kappa_batch(povm, joint[0], joint[1:].swapaxes(0, 1), h1, h2,
                       len(singles), cutoff)


def kappa_phase_dephasing_batch(alphas, delta, povm, cutoff):
    """kappa of the dephased probe at N points; ``alphas`` holds one row of
    N total phases per copy, shape (copies, N), and ``delta`` is one value
    or N values."""
    singles = dephasing_with_derivatives(alphas, delta).swapaxes(0, 1)
    return _kappa_of_copies(povm, singles, *dephasing_qfi(delta), cutoff)


def kappa_two_phase_batch(xi, phi_y, phi_z, povm, cutoff, copies=2):
    """kappa of the two-phase probe on ``copies`` copies at N input phases
    ``xi``; ``phi_y`` and ``phi_z`` are one value or N values each."""
    kets = two_phase_ket_with_derivatives(xi, phi_y, phi_z)
    return _kappa_of_copies(povm, (pure_with_derivatives(kets),) * copies,
                            *pure_qfi_diagonal(kets), cutoff)


def _scalars(batch):
    kappa, k1, k2, status = batch
    return float(kappa[0]), float(k1[0]), float(k2[0]), int(status[0])


def kappa_phase_dephasing(alpha1, alpha2, delta, povm, cutoff):
    """One row of ``kappa_phase_dephasing_batch``, as Python scalars."""
    return _scalars(kappa_phase_dephasing_batch(
        np.array([[alpha1], [alpha2]], dtype=float), delta, povm, cutoff))


def kappa_two_phase(xi, phi_y, phi_z, povm, *args):
    """One row of ``kappa_two_phase_batch``, as Python scalars; ``args`` is
    ``(cutoff,)``.

    The derivatives are exact, so the older ``(step, cutoff)`` form, which
    passed a finite-difference step first, is accepted and the step ignored.
    """
    if len(args) not in (1, 2):
        raise TypeError("kappa_two_phase takes a cutoff after the POVM")
    return _scalars(kappa_two_phase_batch(np.array([xi], dtype=float), phi_y,
                                          phi_z, povm, args[-1]))


def mle_iterate(counts, rhos, init, max_iters, tol, p_floor):
    povm = np.array(init, dtype=complex, order="C")
    rhos = np.ascontiguousarray(rhos, dtype=complex)
    # on float views, re and im interleaved: all R_k = sum_j r_jk rho_j are
    # one real product of the ratios with vec, and all Tr[rho_j P_k] one of W,
    # the view of conj(rho_j^T), with the elements' views (ndarray.dot costs
    # less per call than @ on products this small)
    vec = rhos.reshape(len(rhos), -1).view(float)
    W = np.ascontiguousarray(rhos.transpose(0, 2, 1).conj()) \
        .reshape(len(rhos), -1).view(float)
    cells = np.flatnonzero(counts > 0)
    observed = counts.take(cells)

    def floor_and_ll(stack):
        """Floored observed-cell probabilities, number floored, and ll."""
        p = W.dot(stack.reshape(len(stack), -1).view(float).T).take(cells)
        floored = 0
        if p.min() < p_floor:
            low = p < p_floor
            floored = int(np.count_nonzero(low))
            p = np.where(low, p_floor, p)
        return p, floored, float(observed.dot(np.log(p)))

    p, floored, ll = floor_and_ll(povm)
    ll_trace = [ll]
    stop = "max_iters"
    iters = 0
    ratio = np.zeros(counts.shape)
    for iters in range(1, max_iters + 1):
        ratio.put(cells, observed / p)
        R = ratio.T.dot(vec).view(complex).reshape(povm.shape)
        RPR = R @ povm @ R
        w, v = np.linalg.eigh(np.add.reduce(RPR))
        s_inv = (v * np.maximum(w, 1e-30) ** -0.5).dot(v.conj().T)
        # the right factor of every element at once, as one 2-D product
        full = s_inv @ RPR.reshape(-1, len(w)).dot(s_inv).reshape(RPR.shape)
        lam = 1.0
        for _ in range(40):
            # the full step is the lam = 1 trial; mix only when damped
            trial = full if lam == 1.0 else lam * full + (1.0 - lam) * povm
            pt, nfl, llt = floor_and_ll(trial)
            if llt >= ll - _LL_SLACK * abs(ll):
                break
            lam *= 0.5
        else:
            stop = "stalled"
            iters -= 1
            break
        povm, p = trial, pt
        floored += nfl
        ll_trace.append(llt)
        if abs(llt - ll) <= tol * abs(llt):
            stop = "tolerance"
            break
        ll = llt
    return povm, np.array(ll_trace), iters, stop, floored
