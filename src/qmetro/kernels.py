"""Hot numeric kernels behind the scans, searches and the tomography loop.

Kernel contracts:

* ``fisher_matrix(p, dp, cutoff)`` -> classical Fisher matrix, skipping
  outcomes with probability below ``cutoff``
* ``kappa_phase_dephasing(...)`` / ``kappa_two_phase(...)`` -> fused
  two-copy figure-of-merit evaluation: (kappa, per-parameter terms, status)
  with status 0 = ok, 1 = singular Fisher matrix, 2 = a quantum-information
  denominator at or below ``fisher.H_FLOOR`` (term excluded)
* ``mle_iterate(...)`` -> multiplicative maximum-likelihood update loop for
  detector reconstruction with a monotone-likelihood safeguard
"""

from __future__ import annotations

import numpy as np

from . import fisher
from .states import two_phase_ket_with_derivatives

__all__ = [
    "BACKEND",
    "fisher_matrix",
    "kappa_phase_dephasing",
    "kappa_two_phase",
    "mle_iterate",
]

#: The kernels are vectorized numpy; the name is recorded by benchmark runs.
BACKEND = "numpy"

_DET_CUTOFF = 1e-12   # relative determinant cutoff for a singular Fisher matrix
_LL_SLACK = 1e-12     # relative slack when enforcing likelihood monotonicity


def fisher_matrix(p, dp, cutoff):
    keep = p >= cutoff
    dk = dp[:, keep]
    return (dk / p[keep]) @ dk.T


def _kappa_two_copy(povm, state, dstates, h1, h2, cutoff):
    """kappa of a two-copy state from its Fisher matrix and the single-copy
    quantum-information diagonal (h1, h2)."""
    p = np.einsum("kij,ji->k", povm, state).real
    dp = np.einsum("kij,pji->pk", povm, dstates).real
    keep = p >= cutoff
    dk = dp[:, keep]
    (f00, f01), (_, f11) = (dk / p[keep]) @ dk.T
    det = f00 * f11 - f01 * f01
    top = max(f00, f11)
    if top <= 0.0 or abs(det) < _DET_CUTOFF * top * top:
        return 0.0, 0.0, 0.0, 1
    status = 0
    k1 = 0.0
    k2 = 0.0
    if h1 > fisher.H_FLOOR:
        k1 = (det / f11) / (2.0 * h1)
    else:
        status = 2
    if h2 > fisher.H_FLOOR:
        k2 = (det / f00) / (2.0 * h2)
    else:
        status = 2
    return k1 + k2, k1, k2, status


def _dephasing_pair(alpha, delta):
    off = np.exp(-1j * alpha - delta * delta) / 2.0
    rho = np.array([[0.5, off], [off.conjugate(), 0.5]])
    d_phi = np.array([[0.0, -1j * off], [(-1j * off).conjugate(), 0.0]])
    d_del = np.array([[0.0, -2.0 * delta * off],
                      [(-2.0 * delta * off).conjugate(), 0.0]])
    return rho, d_phi, d_del


def kappa_phase_dephasing(alpha1, alpha2, delta, povm, h_phi, h_delta, cutoff):
    r1, p1, q1 = _dephasing_pair(alpha1, delta)
    r2, p2, q2 = _dephasing_pair(alpha2, delta)
    state = np.kron(r1, r2)
    d_phi = np.kron(p1, r2) + np.kron(r1, p2)
    d_del = np.kron(q1, r2) + np.kron(r1, q2)
    return _kappa_two_copy(povm, state, np.stack((d_phi, d_del)),
                           h_phi, h_delta, cutoff)


def kappa_two_phase(xi, phi_y, phi_z, povm, *args):
    """Two-copy kappa of the two-phase probe; ``args`` is ``(cutoff,)``.

    The derivatives are exact, so the older ``(step, cutoff)`` form, which
    passed a finite-difference step first, is accepted and the step ignored.
    """
    if len(args) not in (1, 2):
        raise TypeError("kappa_two_phase takes a cutoff after the POVM")
    cutoff = args[-1]
    psi, *dpsi = two_phase_ket_with_derivatives(xi, phi_y, phi_z)
    bra = psi.conj()
    rho = np.outer(psi, bra)
    hdiag = []
    dstates = []
    for d in dpsi:
        # pure-state quantum Fisher information diagonal
        ov = np.vdot(psi, d)
        hdiag.append(4.0 * (np.vdot(d, d).real - (ov.conjugate() * ov).real))
        drho = np.outer(d, bra) + np.outer(psi, d.conj())
        dstates.append(np.kron(drho, rho) + np.kron(rho, drho))
    return _kappa_two_copy(povm, np.kron(rho, rho), np.stack(dstates),
                           hdiag[0], hdiag[1], cutoff)


def mle_iterate(counts, rhos, init, max_iters, tol, p_floor):
    povm = init.copy()
    pos = counts > 0

    def probs(stack):
        return np.einsum("kab,jba->jk", stack, rhos).real

    def floor_and_ll(p):
        low = pos & (p < p_floor)
        p = np.where(low, p_floor, p)
        return p, int(low.sum()), float(np.sum(counts[pos] * np.log(p[pos])))

    p, floored, ll = floor_and_ll(probs(povm))
    ll_trace = [ll]
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        ratio = np.where(pos, counts / p, 0.0)
        R = np.einsum("jk,jab->kab", ratio, rhos)
        S = np.einsum("kab,kbc,kcd->ad", R, povm, R)
        w, v = np.linalg.eigh(S)
        w = np.maximum(w, 1e-30)
        s_inv = (v * (w ** -0.5)) @ v.conj().T
        full = np.einsum("ab,kbc,kcd,kde,ef->kaf", s_inv, R, povm, R, s_inv)
        lam = 1.0
        accepted = False
        for _ in range(40):
            trial = lam * full + (1.0 - lam) * povm
            pt, nfl, llt = floor_and_ll(probs(trial))
            if llt >= ll - _LL_SLACK * abs(ll):
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            converged = True
            iters -= 1
            break
        povm, p = trial, pt
        floored += nfl
        ll_trace.append(llt)
        if abs(llt - ll) <= tol * abs(llt):
            ll = llt
            converged = True
            break
        ll = llt
    return povm, np.array(ll_trace), iters, converged, floored
