"""Hot numeric kernels behind the scans, searches and the tomography loop.

Kernel contracts:

* ``fisher_matrix(p, dp, cutoff)`` -> classical Fisher matrix of one
  distribution or of each of a stack, skipping outcomes with probability
  below ``cutoff``
* ``kappa_batch(...)`` -> fused figure-of-merit evaluation of N m-copy
  states at once, with one POVM shared by every point or one per point:
  arrays (kappa, per-parameter terms, status) with status 0 = ok, 1 =
  singular Fisher matrix (terms follow ``fisher.FisherReport``'s rule), 2 =
  a quantum-information denominator at or below ``H_FLOOR`` (term
  excluded). Everything it reads is real: a state enters as its 4^m Pauli
  coordinates r_c = Tr[rho sigma_c] and their two derivatives, the POVM as
  its table T[k, c] = Tr[P_k sigma_c] / 2^m (``linalg.pauli_table``), so
  that p_k = sum_c T[k, c] r_c. The probabilities and their derivatives
  are one two-operand contraction (``probabilities``) and the three Fisher
  entries a second; no d x d joint state is built. The caller builds the
  coordinates: each copy's, and its closed-form single-copy quantum
  information, come from ``states.single_copy`` and the product of the
  copies from ``states.copies_with_derivatives``, so no kernel knows a
  probe family; ``kappa_phase_dephasing(...)`` / ``kappa_two_phase(...)``
  evaluate one two-copy point that way and return Python scalars
* ``mle_iterate(...)`` -> multiplicative maximum-likelihood update loop for
  detector reconstruction (Rehacek et al., PRA 75, 042108, 2007) with a
  monotone-likelihood line search, on the real block forms
  B(M) = [[Re M, -Im M], [Im M, Re M]] of the elements and the reference
  states, built once per call: all R_k are one product, R_k P_k R_k two
  batched real products, S^(-1/2) one ``np.linalg.eigh`` of the real B(S),
  and the probabilities one product, gathered at the observed cells by a
  flat index; the full step is the line search's first trial. It
  returns why it stopped: ``"tolerance"`` (the relative log-likelihood
  change fell to tol), ``"stalled"`` (no damped step kept the
  log-likelihood) or ``"max_iters"``
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import pauli_table
from .states import ProbeFamily, copies_with_derivatives, single_copy

__all__ = [
    "BACKEND",
    "DEFAULT_P_CUTOFF",
    "H_FLOOR",
    "SINGULAR_CUTOFF",
    "fisher_matrix",
    "kappa_batch",
    "kappa_phase_dephasing",
    "kappa_two_phase",
    "mle_iterate",
    "probabilities",
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
    """Classical Fisher matrix sum_k dp_ik dp_jk / p_k over the outcomes
    with p_k >= cutoff, of one distribution (p (K,), dp (n, K)) or of each
    of a stack ((P, K), (P, n, K)). A skipped outcome's column is zero in
    both factors, and each matrix is its own BLAS product, so a
    distribution gets the same bits alone and in a stack."""
    if np.minimum.reduce(p, axis=None) >= cutoff:
        return (dp / p[..., None, :]) @ dp.swapaxes(-1, -2)
    keep = (p >= cutoff)[..., None, :]
    kept = np.where(keep, dp, 0.0)
    scaled = np.divide(kept, p[..., None, :], out=np.zeros_like(kept),
                       where=keep)
    return scaled @ kept.swapaxes(-1, -2)


def singular_effective_information(F):
    """Per-parameter information of singular Fisher matrices (stack (N, n, n)).

    A parameter whose direction overlaps the null space of F gets 0 (its
    variance is unbounded); any other keeps ``1/pinv(F)_jj``. This is the
    rule documented on ``fisher.FisherReport``. Both come from one
    eigendecomposition of F scaled by its largest diagonal entry: the null
    space is spanned by the eigenvectors whose eigenvalues lie below
    ``SINGULAR_CUTOFF``, and pinv(F)_jj is sum_i v_ji^2 / w_i over the
    eigenvalues with |w_i| above ``SINGULAR_CUTOFF`` times the largest
    |w|, the singular values that ``np.linalg.pinv`` would keep at that
    cutoff. Returns shape (N, n).
    """
    F = np.asarray(F, dtype=float)
    top = F.diagonal(axis1=-2, axis2=-1).max(axis=-1)
    unit = F / np.where(top > 0.0, top, 1.0)[:, None, None]
    w, v = np.linalg.eigh(unit)
    null = w < SINGULAR_CUTOFF
    squares = v * v
    affected = (squares * null[:, None, :]).sum(axis=-1) > 1e-8
    size = np.abs(w)
    large = size > SINGULAR_CUTOFF * size.max(axis=-1, keepdims=True)
    inverse = np.divide(1.0, w, out=np.zeros_like(w), where=large)
    pinv = (squares * inverse[:, None, :]).sum(axis=-1)
    keep = (top[:, None] > 0.0) & ~affected & (pinv > 0.0)
    # 1/pinv(F)_jj = top / pinv(F / top)_jj
    return np.where(keep, top[:, None] / np.where(keep, pinv, 1.0), 0.0)


def probabilities(table, coords):
    """Outcome probabilities and their derivatives, (1 + n, N, K), from the
    real (1 + n, N, 4^m) Pauli coordinates of N states and their n
    derivatives and a real POVM table (``kappa_batch``): p_k = sum_c
    T[k, c] r_c, and each derivative by the same sum."""
    if table.shape[-1] != coords.shape[-1]:
        # 4^m coordinates belong to dimension 2^m
        raise ValueError(
            f"dimension mismatch: state {math.isqrt(coords.shape[-1])}, "
            f"povm {math.isqrt(table.shape[-1])}")
    # with the summed axis contiguous in both operands its order does not
    # depend on N, so a row's probabilities are the same bits alone or in
    # a batch
    return np.einsum("nkc,snc->snk" if table.ndim == 3 else "kc,snc->snk",
                     table, coords)


def kappa_batch(table, coords, h1, h2, m, cutoff):
    """kappa of N m-copy states from their Fisher matrices.

    ``coords`` is the real (3, N, 4^m) stack of the states' Pauli
    coordinates and their two parameter derivatives
    (``states.copies_with_derivatives``), and ``h1``, ``h2`` are the
    single-copy quantum-information diagonals, scalars or length N.
    ``table`` is the real POVM table T[k, c] = Tr[P_k sigma_c] / 2^m
    (``linalg.pauli_table``), one (K, 4^m) table for every point or an (N,
    K, 4^m) stack of one per point. Returns arrays ``(kappa, k1, k2,
    status)`` of length N.
    """
    pd = probabilities(table, coords)
    dp = pd[1:]
    # F_ij = sum_k dp_ik dp_jk / p_k, summed over the outcome axis, which
    # is contiguous in both operands: the same bits in any batch size
    scaled = np.divide(dp, pd[0], out=np.zeros_like(dp),
                       where=pd[0] >= cutoff)
    F = np.einsum("ink,jnk->ijn", scaled, dp)
    # free the per-outcome arrays before the per-row values are formed,
    # which lowers the peak memory of a large call
    del pd, dp, scaled
    f00, f01, f11 = F[0, 0], F[0, 1], F[1, 1]
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
    e1 = det / np.where(singular, 1.0, f11)
    e2 = det / np.where(singular, 1.0, f00)
    if singular.any():
        e1[singular], e2[singular] = singular_effective_information(
            F[:, :, singular].transpose(2, 0, 1)).T
    c1, c2 = h1 > H_FLOOR, h2 > H_FLOOR
    # (m-copy effective information / m) / H_jj
    k1 = np.where(c1, e1 / (m * np.where(c1, h1, 1.0)), 0.0)
    k2 = np.where(c2, e2 / (m * np.where(c2, h2, 1.0)), 0.0)
    status = np.where(singular, 1, np.where(c1 & c2, 0, 2))
    return k1 + k2, k1, k2, status


def _scalars(family, params, phases, povm, cutoff):
    """``kappa_batch`` of ``family`` at one point, one input phase per
    copy, as Python scalars."""
    singles = [single_copy(family, params, np.array([xi], dtype=float))
               for xi in phases]
    coords = copies_with_derivatives([stack for stack, _ in singles])
    kappa, k1, k2, status = kappa_batch(
        pauli_table(povm), coords, *singles[0][1], len(phases), cutoff)
    return float(kappa[0]), float(k1[0]), float(k2[0]), int(status[0])


def kappa_phase_dephasing(alpha1, alpha2, delta, povm, cutoff):
    """kappa of two dephased copies at the total phases ``alpha1`` and
    ``alpha2`` (phi = 0), as Python scalars."""
    return _scalars(ProbeFamily.phase_dephasing(), (0.0, delta),
                    (alpha1, alpha2), povm, cutoff)


def kappa_two_phase(xi, phi_y, phi_z, povm, *args):
    """kappa of two two-phase copies with input phase ``xi``, as Python
    scalars; ``args`` is ``(cutoff,)``.

    The derivatives are exact, so the older ``(step, cutoff)`` form, which
    passed a finite-difference step first, is accepted and the step ignored.
    """
    if len(args) not in (1, 2):
        raise TypeError("kappa_two_phase takes a cutoff after the POVM")
    return _scalars(ProbeFamily.two_phase(), (phi_y, phi_z), (xi, xi), povm,
                    args[-1])


def _block(m):
    """Real block forms [[Re M, -Im M], [Im M, Re M]] of a (..., d, d)
    complex stack, C-ordered (..., 2d, 2d), filled one block at a time
    (``np.block`` costs several times as much on stacks this small)."""
    d = m.shape[-1]
    out = np.empty(m.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = out[..., d:, d:] = m.real
    out[..., d:, :d] = m.imag
    np.negative(m.imag, out=out[..., :d, d:])
    return out


def mle_iterate(counts, rhos, init, max_iters, tol, p_floor):
    # in real block form B(M): B(A) B(B) = B(AB) and Tr[A B] = Tr[B(A)
    # B(B)] / 2, so every product of the update is real. All R_k = sum_j
    # r_jk rho_j are one product of the (K, J) ratios with the states' flat
    # block forms, and all Tr[rho_j P_k] one of the elements' flat block
    # forms with W, the flat halved transposes B(rho_j)^T (ndarray.dot costs
    # less per call than @ on products this small)
    povm = _block(np.asarray(init, dtype=complex))
    blocks = _block(np.asarray(rhos, dtype=complex))
    vec = blocks.reshape(len(blocks), -1)
    W = np.ascontiguousarray(0.5 * blocks.transpose(2, 1, 0)
                             .reshape(-1, len(blocks)))
    # observed cells by flat index into the (K, J) probability table
    table = counts.T
    cells = np.flatnonzero(table > 0)
    observed = table.take(cells)

    def floor_and_ll(stack):
        """Floored observed-cell probabilities, number floored, and ll."""
        p = stack.reshape(len(stack), -1).dot(W).take(cells)
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
    ratio = np.zeros(table.shape)
    for iters in range(1, max_iters + 1):
        ratio.put(cells, observed / p)
        R = ratio.dot(vec).reshape(povm.shape)
        RPR = R @ povm @ R
        # B(S) is symmetric, and v diag(w^-1/2) v^T is B(S^-1/2) although
        # each eigenvalue of S appears twice in w
        w, v = np.linalg.eigh(np.add.reduce(RPR))
        s_inv = (v / np.sqrt(np.maximum(w, 1e-30))).dot(v.T)
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
    # P = Re P + i Im P, read from the left column of blocks
    d = povm.shape[-1] // 2
    return (povm[:, :d, :d] + 1j * povm[:, d:, :d], np.array(ll_trace), iters,
            stop, floored)
