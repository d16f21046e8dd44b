"""Small dense complex linear algebra helpers shared across the package.

Matrices are plain ``numpy.ndarray`` of dtype complex128. Basis convention:
computational basis |0>, |1> per qubit; two-qubit ordering |00>, |01>, |10>,
|11> with qubit 1 as the slow index.
"""

from __future__ import annotations

import numpy as np

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def hermiticity_defect(a: np.ndarray) -> float:
    """Max entrywise |A - A^dagger|."""
    return float(np.abs(a - a.conj().T).max())


def projector(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex).ravel()
    return np.outer(ket, ket.conj())


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor is the slow index (qubit 1)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def check_density_matrix(rho: np.ndarray, *, herm_atol: float = HERMITICITY_ATOL,
                         trace_atol: float = TRACE_ATOL,
                         eig_floor: float = EIGENVALUE_FLOOR) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace and PSD.

    Tolerances: hermiticity and trace 1e-10 entrywise, eigenvalues >= -1e-10.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    h = hermiticity_defect(rho)
    if h > herm_atol:
        raise ValueError(f"not Hermitian: max |A - A^dagger| = {h:.3e}")
    t = np.trace(rho)
    if abs(t - 1.0) > trace_atol:
        raise ValueError(f"trace {t} differs from 1 beyond {trace_atol}")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < eig_floor:
        raise ValueError(f"negative eigenvalue {w.min():.3e}")


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix (eigenvalues clipped at 0)."""
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * trace norm of a - b for Hermitian a, b."""
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (x, y, z) of a single-qubit state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("bloch_vector expects a 2x2 matrix")
    return np.array([
        float(np.real(np.trace(rho @ PAULI_X))),
        float(np.real(np.trace(rho @ PAULI_Y))),
        float(np.real(np.trace(rho @ PAULI_Z))),
    ])
