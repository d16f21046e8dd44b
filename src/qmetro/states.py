"""Qubit probe states: equatorial inputs, rotations, dephasing, tensor powers.

Two built-in probe families are provided:

* ``phase-dephasing`` — an equatorial input acquires a phase ``phi`` and
  undergoes dephasing of strength ``delta``; parameters ``(phi, delta)``.
* ``two-phase`` — an equatorial input is rotated by
  ``exp(i*(phi_y*sigma_y + phi_z*sigma_z))``; parameters ``(phi_y, phi_z)``.

``single_copy`` alone builds a copy of either family, in closed form and
in real numbers: the Pauli coordinates r_a = Tr[rho sigma_a] of its state,
with sigma = ``linalg.PAULIS`` = (I, X, Y, Z), and their derivative by
each parameter, which are each family's Bloch map
(``dephasing_coordinates``, ``two_phase_coordinates``), and its quantum
information: ``dephasing_qfi`` for the dephased probe, and |d_j r|^2 of
the pure two-phase probe's own coordinates. Multi-copy
probes follow the product rule ``d(r (x) r) = dr (x) r + r (x) dr``: on
the coordinates in ``copies_with_derivatives``, for the search, and on
the density matrices rho = (1/2) sum_a r_a sigma_a in
``probe_with_derivatives``, for the reference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, tensor_product

PHASE_DEPHASING = "phase-dephasing"
TWO_PHASE = "two-phase"

#: Below this rotation angle sin(theta)/theta and (cos(theta) - sinc)/theta^2
#: come from their Taylor series (truncation error < 3e-16); above it the
#: quotients are evaluated directly.
_SERIES_ANGLE = 1e-2

#: row a is sigma_a / 2, flattened, with each entry's real and imaginary
#: parts side by side: real coordinates @ it are the flat complex matrix
#: as pairs of floats. Each entry is 0 or +-1/2, so every sum has one
#: rounding and the same value in any order
_HALF_PAULIS = (PAULIS.reshape(4, 4) / 2.0).view(float)


def two_phase_coordinates(xi, phi_y, phi_z) -> np.ndarray:
    """Pauli coordinates of the two-phase output U|xi>, with U =
    exp(i*(phi_y*sigma_y + phi_z*sigma_z)), and their derivatives by phi_y
    and phi_z: a real (3, ..., 4) stack over the broadcast shape of the
    inputs, of which a shared rotation is one value each. A non-finite
    input is refused (``check_point``).

    U turns the input's Bloch vector (cos(xi), sin(xi), 0) by the unit
    quaternion q = (w, y, z) = (cos(theta), -s*phi_y, -s*phi_z), theta =
    hypot(phi_y, phi_z) and s = sin(theta)/theta, into

        r_x = cos(xi)*(w^2 - y^2 - z^2) - sin(xi)*2wz
        r_y = cos(xi)*2wz + sin(xi)*(w^2 + y^2 - z^2)
        r_z = -cos(xi)*2wy + sin(xi)*2yz,

    and the product rule on q (x) q gives the derivatives, from dw/dphi_j
    = -s*phi_j and d(s*phi_k)/dphi_j = s*[j == k] + c*phi_j*phi_k with c =
    (cos(theta) - s)/theta^2. Every step is elementwise, so a row gets the
    same bits alone and in any batch.
    """
    theta = np.hypot(phi_y, phi_z)
    # theta is not finite where phi_y or phi_z is not
    if not (np.isfinite(xi).all() and np.isfinite(theta).all()):
        check_point(xi=np.ravel(xi), phi_y=phi_y, phi_z=phi_z)
    # the series where theta is small, else the quotients, each times its
    # row's 1 or 0: both are finite on every row (a small theta's
    # quotients divide by theta + 1), so the pick keeps the chosen bits
    small = theta < _SERIES_ANGLE
    large = ~small
    t2 = np.square(theta * small)
    t4 = t2 * t2
    cos = np.cos(theta)
    quotient = np.sin(theta) / (theta + small)
    s = (1.0 - t2 / 6.0 + t4 / 120.0) * small + quotient * large
    c = ((-1.0 / 3.0 + t2 / 30.0 - t4 / 840.0) * small
         + (cos - quotient) / (theta * theta + small) * large)
    sy, sz, cy = s * phi_y, s * phi_z, c * phi_y
    # -q, -dq/dphi_y and -dq/dphi_z, whose products are those of q
    q = np.array([[-cos, sy, sz], [sy, phi_y * cy + s, phi_z * cy],
                  [sz, phi_z * cy, phi_z * (c * phi_z) + s]])
    # q_a q_b, then d(q_a q_b) = dq_a q_b + q_a dq_b: on row 0 the sum is
    # twice the product, and halving it is exact
    qq = q[:, :, None] * q[0]
    qq = qq + qq.swapaxes(1, 2)
    qq[0] *= 0.5
    (ww, wy, wz), (_, yy, yz), (_, _, zz) = np.moveaxis(qq, 0, 2)
    # the rotation's first two columns, which take (cos(xi), sin(xi), 0),
    # ahead of one axis for each axis of xi that the rotation lacks
    lead = (3,) + (1,) * (np.ndim(xi) - np.ndim(theta)) + np.shape(theta)
    columns = np.stack([ww - yy - zz, 2.0 * wz, -2.0 * wy, -2.0 * wz,
                        ww + yy - zz, 2.0 * yz], -1).reshape(lead + (2, 3))
    bloch = (np.cos(xi)[..., None] * columns[..., 0, :]
             + np.sin(xi)[..., None] * columns[..., 1, :])
    out = np.zeros(bloch.shape[:-1] + (4,))
    out[0, ..., 0] = 1.0
    out[..., 1:] = bloch
    return out


def dephasing_coordinates(alpha, delta) -> np.ndarray:
    """Pauli coordinates of dephased equatorial states and their (phi,
    delta) derivatives.

    ``alpha`` is the total phase phi + xi, a scalar or an array of them, and
    ``delta`` one value or an array that broadcasts against it. The state
    is (1, e^{-delta^2} cos(alpha), e^{-delta^2} sin(alpha), 0). Returns
    shape (3,) + alpha.shape + (4,): the state, d/dphi and d/ddelta. Inputs
    are not validated.
    """
    shrink = np.exp(-np.square(delta))
    x, y = shrink * np.cos(alpha), shrink * np.sin(alpha)
    out = np.zeros((3,) + x.shape + (4,))
    out[0, ..., 0] = 1.0
    # one assignment per coordinate, for the state and both derivatives
    out[..., 1] = x, -y, -2.0 * delta * x
    out[..., 2] = y, x, -2.0 * delta * y
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


def point_errors(values: dict, count: int) -> list:
    """The first fault of each of ``count`` points, or None where it has
    none: the first input of ``values``, in their order, that is not
    finite, else a negative ``delta``. Each value is one float, shared by
    every point, or an array of one per point."""
    errors = [None] * count

    def blame(v, bad, message):
        # every point where ``bad`` holds and that has no fault yet
        if isinstance(v, np.ndarray):
            for i in np.flatnonzero(bad).tolist():
                errors[i] = errors[i] or ValueError(message(float(v[i])))
        elif bad:
            error = ValueError(message(v))
            errors[:] = [e or error for e in errors]

    for name, v in values.items():
        blame(v, ~np.isfinite(v) if isinstance(v, np.ndarray)
              else not math.isfinite(v),
              lambda x, name=name: f"{name} must be finite, got {x!r}")
    delta = values.get("delta", 0.0)
    blame(delta, delta < 0,
          lambda x: f"dephasing strength must be >= 0, got {x}")
    return errors


def check_point(**values) -> None:
    """Raise the first fault that ``point_errors`` finds, at one point of
    floats or at the points of arrays of one length."""
    count = max((len(v) for v in values.values()
                 if isinstance(v, np.ndarray)), default=1)
    for error in point_errors(values, count):
        if error is not None:
            raise error


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


def _product_rule(singles, product) -> np.ndarray:
    """The state of independent copies and its derivatives: ``product`` of
    the copies' states, and d(a (x) b) = da (x) b + a (x) db. Each single
    is a stack (1 + n, ...) of its state and n derivatives."""
    joint = singles[0]
    for single in singles[1:]:
        left = product(joint, single[0])
        # adds in place through the view; ``left[1:] += ...`` would also
        # assign the slice back, a copy per call
        derivatives = left[1:]
        derivatives += product(joint[0], single[1:])
        joint = left
    return joint


def _outer(a, b) -> np.ndarray:
    """Flat outer products of two broadcast stacks of coordinate vectors,
    the first factor's index slowest."""
    # each factor spread to the product's length, so that the product runs
    # over flat rows: a[..., :, None] * b[..., None, :] runs an inner loop
    # as short as b's vectors, at several times the cost per product. The
    # spread factor of the result's shape, where one has it, takes the
    # product, which saves a temporary as large as the result
    m, k = a.shape[-1], b.shape[-1]
    x = a.repeat(k, axis=-1)
    y = b[..., None, :].repeat(m, axis=-2).reshape(b.shape[:-1] + (m * k,))
    shape = np.broadcast(x, y).shape
    return np.multiply(x, y, out=x if x.shape == shape
                       else y if y.shape == shape else None)


def copies_with_derivatives(singles) -> np.ndarray:
    """Pauli coordinates of the product state of independent copies and
    their derivatives, by the product rule.

    ``singles`` holds one coordinate stack (1 + n, ..., 4) per copy: its
    state, then its derivatives by n shared parameters; the middle axes
    broadcast. Returns the real (1 + n, ..., 4^m) stack of the m-copy
    coordinates r_c = Tr[rho sigma_c], copy 1's index slowest, as
    ``linalg.pauli_table`` orders the Pauli strings.
    """
    return _product_rule(singles, _outer)


def single_copy(family: ProbeFamily, params, xi):
    """One copy of ``family`` at ``params`` with input phase ``xi``, each
    one value or N rows: the real (3, ..., 4) stack of its state's Pauli
    coordinates and their two derivatives, and its quantum information
    diagonal (H_11, H_22). Inputs are not validated (``check_point``): the
    search masks delta < 0."""
    a, b = params
    if family.kind == PHASE_DEPHASING:
        return dephasing_coordinates(a + xi, b), dephasing_qfi(b)
    coords = two_phase_coordinates(xi, a, b)
    # a pure qubit's quantum information is |dr|^2 of its Bloch vector r,
    # a sum that, unlike 4 (<d psi|d psi> - |<psi|d psi>|^2), never cancels
    square = np.square(coords[1:, ..., 1:])
    return coords, square[..., 0] + square[..., 1] + square[..., 2]


def probe_with_derivatives(family: ProbeFamily, params,
                           phases) -> StateWithDerivatives:
    """Evaluate the multi-copy probe state and its parameter derivatives.

    ``params`` are the estimated-parameter values, ``(phi, delta)`` or
    ``(phi_y, phi_z)`` depending on the family, and ``phases`` the input
    phase of each copy. Each copy's matrices are rho = (1/2) sum_a r_a
    sigma_a of its ``single_copy`` coordinates; derivatives of the m-copy
    state follow the tensor-product rule (``density_matrices``) and are
    traceless by construction.
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
    point = dict(zip(family.parameter_names, params))
    for xi in phases:
        check_point(xi=xi, **point)
    joint = density_matrices([single_copy(family, params, xi)[0]
                              for xi in phases])
    return StateWithDerivatives(state=joint[0], derivatives=joint[1:])


def density_matrices(singles) -> np.ndarray:
    """The complex m-copy density matrices and their derivatives, (1 + n,
    ..., d, d), by the product rule on the matrices rho = (1/2) sum_a r_a
    sigma_a of each copy's coordinate stack (1 + n, ..., 4)
    (``single_copy``), whose middle axes broadcast: the reference path's
    counterpart of ``copies_with_derivatives``. Every step is elementwise,
    so a point gets the same bits alone and in a stack."""
    if len({c.shape for c in singles}) > 1:
        # the middle axes broadcast, behind the leading derivative axis
        middle = np.broadcast_shapes(*(c.shape[1:-1] for c in singles))
        singles = [np.broadcast_to(
            c.reshape(c.shape[:1] + (1,) * (len(middle) + 2 - c.ndim)
                      + c.shape[1:]), c.shape[:1] + middle + c.shape[-1:])
            for c in singles]
    return _product_rule([(c @ _HALF_PAULIS).view(complex).reshape(
        c.shape[:-1] + (2, 2)) for c in singles], tensor_product)
