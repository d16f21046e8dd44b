"""Qubit probe states: equatorial inputs, rotations, dephasing, tensor powers.

Two built-in probe families are provided:

* ``phase-dephasing`` — an equatorial input acquires a phase ``phi`` and
  undergoes dephasing of strength ``delta``; parameters ``(phi, delta)``.
* ``two-phase`` — an equatorial input is rotated by
  ``exp(i*(phi_y*sigma_y + phi_z*sigma_z))``; parameters ``(phi_y, phi_z)``.

Each family evaluates the output state together with one Hermitian derivative
matrix per parameter, both in closed form; multi-copy probes are built by the
tensor-product rule ``d(rho (x) rho) = d(rho) (x) rho + rho (x) d(rho)``,
implemented once, for stacks of points and any number of copies, in
``copies_with_derivatives``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ID2, PAULI_Y, PAULI_Z

PHASE_DEPHASING = "phase-dephasing"
TWO_PHASE = "two-phase"

#: Below this rotation angle sin(theta)/theta and (cos(theta) - sinc)/theta^2
#: come from their Taylor series (truncation error < 3e-16); above it the
#: quotients are evaluated directly.
_SERIES_ANGLE = 1e-2


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def make_equatorial_ket(xi) -> np.ndarray:
    """(|0> + e^{i xi} |1>)/sqrt(2); an array of phases gives one ket per
    phase, shape xi.shape + (2,)."""
    xi = np.asarray(xi, dtype=float)
    if not np.isfinite(xi).all():
        raise ValueError(f"xi must be finite, got {xi.tolist()!r}")
    ket = np.ones(xi.shape + (2,), dtype=complex)
    ket[..., 1] = np.exp(1j * xi)
    return ket / np.sqrt(2.0)


def _rotation_with_derivatives(phi_y: float, phi_z: float) -> np.ndarray:
    """U = exp(i*(phi_y*sigma_y + phi_z*sigma_z)) and its two derivatives.

    With theta = sqrt(phi_y^2 + phi_z^2), G = phi_y*sigma_y + phi_z*sigma_z,
    s = sin(theta)/theta and c = (cos(theta) - s)/theta^2 (the derivative of
    s divided by theta):

        U          = cos(theta)*I + i*s*G
        dU/dphi_j  = phi_j*(i*c*G - s*I) + i*s*sigma_j

    Returns the (3, 2, 2) stack (U, dU/dphi_y, dU/dphi_z); the removable
    singularity at theta = 0 is handled by the series branch.
    """
    _require_finite(phi_y=phi_y, phi_z=phi_z)
    theta = math.hypot(phi_y, phi_z)
    t2 = theta * theta
    if theta < _SERIES_ANGLE:
        s = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        c = -1.0 / 3.0 + t2 / 30.0 - t2 * t2 / 840.0
    else:
        s = math.sin(theta) / theta
        c = (math.cos(theta) - s) / t2
    ig = 1j * (phi_y * PAULI_Y + phi_z * PAULI_Z)
    return np.array([math.cos(theta) * ID2 + s * ig,
                     phi_y * (c * ig - s * ID2) + 1j * s * PAULI_Y,
                     phi_z * (c * ig - s * ID2) + 1j * s * PAULI_Z])


def two_phase_ket_with_derivatives(xi, phi_y, phi_z) -> np.ndarray:
    """Two-phase output ket U(phi_y, phi_z)|xi> and its exact derivatives.

    Returns a (3, 2) array: the ket, then its derivatives with respect to
    phi_y and phi_z. N input phases ``xi`` give shape (3, N, 2); ``phi_y``
    and ``phi_z`` are then one value or N values, one rotation per row.
    """
    if isinstance(phi_y, np.ndarray) or isinstance(phi_z, np.ndarray):
        rows = zip(*np.broadcast_arrays(xi, phi_y, phi_z))
        return np.concatenate([two_phase_ket_with_derivatives(
            [x], float(a), float(b)) for x, a, b in rows], axis=1)
    ket = make_equatorial_ket(xi)
    # (U @ ket) as a two-term broadcast product: unlike matmul, whose BLAS
    # path for one row differs from that for several, it gives each row the
    # same bits in any batch size
    rotation = _rotation_with_derivatives(phi_y, phi_z).reshape(
        (3,) + (1,) * (ket.ndim - 1) + (2, 2))
    return ket[..., :1] * rotation[..., 0] + ket[..., 1:] * rotation[..., 1]


def dephasing_with_derivatives(alpha, delta) -> np.ndarray:
    """Dephased equatorial states and their (phi, delta) derivatives.

    ``alpha`` is the total phase phi + xi, a scalar or an array of them, and
    ``delta`` one value or an array that broadcasts against it. The
    (0,1) entry of the state is exp(-i*alpha - delta^2)/2 and its diagonal is
    1/2. Returns shape (3,) + alpha.shape + (2, 2): the state, d/dphi and
    d/ddelta. Inputs are not validated; ``probe_with_derivatives``
    checks them.
    """
    off = np.exp(-1j * np.asarray(alpha) - delta * delta) / 2.0
    out = np.zeros((3,) + off.shape + (2, 2), dtype=complex)
    out[0, ..., 0, 0] = out[0, ..., 1, 1] = 0.5
    out[0, ..., 0, 1] = off
    out[1, ..., 0, 1] = -1j * off
    out[2, ..., 0, 1] = -2.0 * delta * off
    out[..., 1, 0] = out[..., 0, 1].conjugate()
    return out


def dephasing_qfi(delta):
    """Closed-form single-copy quantum information (H_phi, H_delta) of the
    dephased probe at one delta or an array of them: with c^2 = exp(-2
    delta^2), H_phi = c^2 and H_delta = 4 delta^2 c^2 / (1 - c^2). H_delta
    is 0 at delta = 0, where the state does not move with delta."""
    x = 2.0 * delta * delta
    c2 = np.exp(-x)
    # the numerator is 0 where x is; adding (x == 0) keeps 0/0 out there
    return c2, 2.0 * x * c2 / (-np.expm1(-x) + (x == 0.0))


def check_dephasing(xi: float, phi: float, delta: float) -> None:
    """Refuse a non-finite input or a negative dephasing strength."""
    _require_finite(xi=xi, phi=phi, delta=delta)
    if delta < 0:
        raise ValueError(f"dephasing strength must be >= 0, got {delta}")


@dataclass(frozen=True)
class ProbeFamily:
    """A parametrized family of qubit probe states on ``copies`` copies.

    The estimated parameters are ``(phi, delta)`` for phase-dephasing and
    ``(phi_y, phi_z)`` for two-phase. Each copy's equatorial input phase is
    an input of ``probe_with_derivatives``, not part of the family.
    """

    kind: str
    copies: int = 1

    def __post_init__(self):
        if self.kind not in (PHASE_DEPHASING, TWO_PHASE):
            raise ValueError(f"unknown probe family kind {self.kind!r}")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")

    @property
    def parameter_names(self) -> tuple[str, str]:
        if self.kind == PHASE_DEPHASING:
            return ("phi", "delta")
        return ("phi_y", "phi_z")

    @property
    def num_parameters(self) -> int:
        return 2

    @classmethod
    def phase_dephasing(cls, copies: int = 1):
        return cls(PHASE_DEPHASING, copies=copies)

    @classmethod
    def two_phase(cls, copies: int = 1):
        return cls(TWO_PHASE, copies=copies)


@dataclass(frozen=True)
class StateWithDerivatives:
    """A density matrix together with its per-parameter derivatives."""

    state: np.ndarray                 # (d, d) complex
    derivatives: np.ndarray           # (n, d, d) complex, Hermitian each

    @property
    def dim(self) -> int:
        return self.state.shape[0]


def pure_with_derivatives(kets: np.ndarray) -> np.ndarray:
    """From the stack (1 + n, ..., a) of kets psi and their n derivatives,
    the (1 + n, ..., a, a) stack of |psi><psi| and each |d psi><psi| +
    |psi><d psi|."""
    psi = kets[0]
    out = kets[..., :, None] * psi.conj()[..., None, :]
    derivatives = out[1:]
    derivatives += psi[..., :, None] * kets[1:].conj()[..., None, :]
    return out


def pure_qfi_diagonal(kets: np.ndarray) -> np.ndarray:
    """From the stack (1 + n, ..., a) of kets psi and their n derivatives,
    the (n, ...) quantum information diagonal of the pure states, 4 (<d psi|
    d psi> - |<psi|d psi>|^2) (Braunstein and Caves, PRL 72, 3439, 1994)."""
    psi, dpsi = kets[0], kets[1:]
    overlap = (psi.conj() * dpsi).sum(axis=-1)
    return 4.0 * ((np.abs(dpsi) ** 2).sum(axis=-1) - np.abs(overlap) ** 2)


def _kron(a, b):
    """Kronecker products of two broadcast stacks of square matrices."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    dim = a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (dim, dim))


def copies_with_derivatives(singles) -> np.ndarray:
    """Product state of independent copies and its derivatives, by the
    tensor-product rule.

    ``singles`` holds one stack (1 + n, ..., a, a) per copy: its state, then
    its derivatives by n shared parameters; the middle axes broadcast.
    Returns the (1 + n, ..., d, d) stack of the product state.
    """
    joint = singles[0]
    for i in range(1, len(singles)):
        left = _kron(joint, singles[i][0])
        # adds in place through the view; ``left[1:] += ...`` would also
        # assign the slice back, a copy per call
        derivatives = left[1:]
        derivatives += _kron(joint[0], singles[i][1:])
        joint = left
    return joint


def probe_with_derivatives(family: ProbeFamily, params,
                           phases) -> StateWithDerivatives:
    """Evaluate the multi-copy probe state and its parameter derivatives.

    ``params`` are the estimated-parameter values, ``(phi, delta)`` or
    ``(phi_y, phi_z)`` depending on the family, and ``phases`` the input
    phase of each copy. Derivatives of the m-copy state follow the
    tensor-product rule and are traceless by construction.
    """
    params = tuple(float(p) for p in params)
    if len(params) != family.num_parameters:
        raise ValueError(
            f"{family.kind} takes {family.num_parameters} parameters, "
            f"got {len(params)}")
    phases = tuple(float(xi) for xi in phases)
    if len(phases) != family.copies:
        raise ValueError(f"{family.copies} copies take one input phase each, "
                         f"got {len(phases)}")
    a, b = params
    singles = []
    for xi in phases:
        if family.kind == PHASE_DEPHASING:
            check_dephasing(xi, a, b)
            singles.append(dephasing_with_derivatives(a + xi, b))
        else:
            singles.append(pure_with_derivatives(
                two_phase_ket_with_derivatives(xi, a, b)))
    joint = copies_with_derivatives(singles)
    return StateWithDerivatives(state=joint[0], derivatives=joint[1:])
