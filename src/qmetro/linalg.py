"""Small dense complex linear algebra helpers shared across the package.

Matrices are plain ``numpy.ndarray`` of dtype complex128. Basis convention:
computational basis |0>, |1> per qubit; two-qubit ordering |00>, |01>, |10>,
|11> with qubit 1 as the slow index.
"""

from __future__ import annotations

import numpy as np

ID2 = np.eye(2, dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HERMITICITY_ATOL = 1e-10
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


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix (eigenvalues clipped at 0)."""
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
