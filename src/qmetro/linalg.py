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


def projector(kets) -> np.ndarray:
    """|k><k| of one ket (d,) or of each ket of a stack (..., d), as a
    C-ordered (..., d, d) array; each is bit for bit ``np.outer(k,
    k.conj())``."""
    # a strided stack (the columns of a basis) would give a product in its
    # own memory order, and the kernels run slower on that than on C order
    kets = np.ascontiguousarray(kets, dtype=complex)
    return kets[..., :, None] * kets.conj()[..., None, :]


def tensor_product(a, b) -> np.ndarray:
    """Kronecker products of two broadcast stacks of matrices; the first
    factor is the slow index (qubit 1). Always complex128."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3],
                                         out.shape[-2] * out.shape[-1]))


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix (eigenvalues clipped at 0)."""
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
