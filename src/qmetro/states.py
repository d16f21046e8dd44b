"""Qubit probe states: equatorial inputs, rotations, dephasing, tensor powers.

Two built-in probe families are provided:

* ``phase-dephasing`` — an equatorial input acquires a phase ``phi`` and
  undergoes dephasing of strength ``delta``; parameters ``(phi, delta)``.
* ``two-phase`` — an equatorial input is rotated by
  ``exp(i*(phi_y*sigma_y + phi_z*sigma_z))``; parameters ``(phi_y, phi_z)``.

Each family evaluates the output state together with one Hermitian derivative
matrix per parameter, both in closed form; multi-copy probes are built by the
tensor-product rule ``d(rho (x) rho) = d(rho) (x) rho + rho (x) d(rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ID2, PAULI_Y, PAULI_Z, tensor_product

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


def make_equatorial_ket(xi: float) -> np.ndarray:
    """(|0> + e^{i xi} |1>)/sqrt(2)."""
    _require_finite(xi=xi)
    return np.array([1.0, np.exp(1j * xi)], dtype=complex) / np.sqrt(2.0)


def make_equatorial_state(xi: float) -> np.ndarray:
    """Rank-1 density matrix of the equatorial state with relative phase xi."""
    k = make_equatorial_ket(xi)
    return np.outer(k, k.conj())


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


def rotation_unitary(phi_y: float, phi_z: float) -> np.ndarray:
    """exp(i*(phi_y*sigma_y + phi_z*sigma_z)) in closed form.

    With theta = sqrt(phi_y^2 + phi_z^2) this equals
    cos(theta)*I + i*(sin(theta)/theta)*(phi_y*sigma_y + phi_z*sigma_z).
    """
    return _rotation_with_derivatives(phi_y, phi_z)[0]


def two_phase_ket_with_derivatives(xi: float, phi_y: float,
                                   phi_z: float) -> np.ndarray:
    """Two-phase output ket U(phi_y, phi_z)|xi> and its exact derivatives.

    Returns a (3, 2) array: the ket, then its derivatives with respect to
    phi_y and phi_z.
    """
    return _rotation_with_derivatives(phi_y, phi_z) @ make_equatorial_ket(xi)


def dephased_phase_state(xi: float, phi: float, delta: float) -> np.ndarray:
    """Equatorial state after phase shift phi and dephasing delta.

    Diagonal entries are 1/2; the (0,1) entry is exp(-i*(phi+xi) - delta^2)/2,
    so the Bloch vector has length exp(-delta^2).
    """
    _require_finite(xi=xi, phi=phi, delta=delta)
    if delta < 0:
        raise ValueError(f"dephasing strength must be >= 0, got {delta}")
    off = np.exp(-1j * (phi + xi) - delta * delta) / 2.0
    return np.array([[0.5, off], [off.conjugate(), 0.5]], dtype=complex)


@dataclass(frozen=True)
class ProbeFamily:
    """A parametrized family of qubit probe states.

    ``input_phases`` holds the (fixed) equatorial input phase of each copy;
    its length must equal ``copies``. The estimated parameters are
    ``(phi, delta)`` for phase-dephasing and ``(phi_y, phi_z)`` for two-phase.
    """

    kind: str
    copies: int = 1
    input_phases: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.kind not in (PHASE_DEPHASING, TWO_PHASE):
            raise ValueError(f"unknown probe family kind {self.kind!r}")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        if len(self.input_phases) != self.copies:
            raise ValueError(
                f"need one input phase per copy: got {len(self.input_phases)} "
                f"phases for {self.copies} copies")

    @property
    def parameter_names(self) -> tuple[str, str]:
        if self.kind == PHASE_DEPHASING:
            return ("phi", "delta")
        return ("phi_y", "phi_z")

    @property
    def num_parameters(self) -> int:
        return 2

    @classmethod
    def phase_dephasing(cls, copies: int = 1, xi: float | tuple[float, ...] = 0.0):
        phases = tuple(xi) if isinstance(xi, (tuple, list)) else (xi,) * copies
        return cls(PHASE_DEPHASING, copies=copies, input_phases=phases)

    @classmethod
    def two_phase(cls, copies: int = 1, xi: float = 0.0):
        return cls(TWO_PHASE, copies=copies, input_phases=(xi,) * copies)


@dataclass(frozen=True)
class StateWithDerivatives:
    """A density matrix together with its per-parameter derivatives."""

    state: np.ndarray                 # (d, d) complex
    derivatives: np.ndarray           # (n, d, d) complex, Hermitian each
    parameter_names: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.state.shape[0]

    @property
    def num_parameters(self) -> int:
        return self.derivatives.shape[0]


def _dephasing_single(xi: float, phi: float, delta: float):
    rho = dephased_phase_state(xi, phi, delta)
    off = rho[0, 1]
    d_phi = np.array([[0.0, -1j * off], [(-1j * off).conjugate(), 0.0]], dtype=complex)
    d_del = np.array([[0.0, -2.0 * delta * off],
                      [(-2.0 * delta * off).conjugate(), 0.0]], dtype=complex)
    return rho, [d_phi, d_del]


def two_phase_state(xi: float, phi_y: float, phi_z: float) -> np.ndarray:
    """Pure output state of the two-phase family."""
    psi = rotation_unitary(phi_y, phi_z) @ make_equatorial_ket(xi)
    return np.outer(psi, psi.conj())


def _two_phase_single(xi: float, phi_y: float, phi_z: float):
    psi, *dpsi = two_phase_ket_with_derivatives(xi, phi_y, phi_z)
    bra = psi.conj()
    return np.outer(psi, bra), [np.outer(d, bra) + np.outer(psi, d.conj())
                                for d in dpsi]


def probe_with_derivatives(family: ProbeFamily, params) -> StateWithDerivatives:
    """Evaluate the multi-copy probe state and its parameter derivatives.

    ``params`` are the estimated-parameter values, ``(phi, delta)`` or
    ``(phi_y, phi_z)`` depending on the family. Derivatives of the m-copy
    state follow the tensor-product rule and are traceless by construction.
    """
    params = tuple(float(p) for p in params)
    if len(params) != family.num_parameters:
        raise ValueError(
            f"{family.kind} takes {family.num_parameters} parameters, "
            f"got {len(params)}")
    singles = []
    for xi in family.input_phases:
        if family.kind == PHASE_DEPHASING:
            singles.append(_dephasing_single(xi, params[0], params[1]))
        else:
            singles.append(_two_phase_single(xi, params[0], params[1]))

    state, derivs = singles[0]
    derivs = list(derivs)
    for rho_i, derivs_i in singles[1:]:
        derivs = [tensor_product(dj, rho_i) + tensor_product(state, dij)
                  for dj, dij in zip(derivs, derivs_i)]
        state = tensor_product(state, rho_i)
    return StateWithDerivatives(state=state, derivatives=np.array(derivs),
                                parameter_names=family.parameter_names)
