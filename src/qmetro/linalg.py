"""Small dense complex linear algebra helpers shared across the package.

Matrices are plain ``numpy.ndarray`` of dtype complex128; ``pauli_table``
turns them into real Pauli coordinates. Basis convention: computational
basis |0>, |1> per qubit; two-qubit ordering |00>, |01>, |10>, |11> with
qubit 1 as the slow index, and Pauli strings ordered the same way.
"""

from __future__ import annotations

import numpy as np

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
#: (sigma_0, sigma_1, sigma_2, sigma_3) = (I, X, Y, Z): a qubit state is
#: rho = (1/2) sum_a r_a sigma_a with the real coordinates r_a = Tr[rho sigma_a]
PAULIS = np.array([ID2, PAULI_X, PAULI_Y, PAULI_Z])
#: _PAIR[2 i + j, a] = sigma_a[j, i] / 2: summing one qubit's row and column
#: index pair (i, j) of M against it gives that qubit's Tr[M sigma_a] / 2
_PAIR = np.ascontiguousarray(PAULIS.transpose(2, 1, 0).reshape(4, 4) / 2.0)

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


def pauli_table(elements) -> np.ndarray:
    """T[..., c] = Tr[M sigma_c] / d of each matrix M of a Hermitian (..., d,
    d) stack, d = 2^m, as a real C-ordered (..., 4^m) array. The m-qubit
    Pauli string sigma_c = sigma_{c_1} (x) ... (x) sigma_{c_m} has qubit 1's
    index slowest, as ``tensor_product`` orders its factors, so Tr[M rho] =
    sum_c T[c] r_c for the coordinates r_c = Tr[rho sigma_c] of a state."""
    elements = np.asarray(elements, dtype=complex)
    d = elements.shape[-1]
    m = d.bit_length() - 1
    if d < 2 or d != 1 << m or elements.shape[-2] != d:
        raise ValueError("a Pauli table needs d x d matrices on qubits, d a "
                         f"power of 2, got shape {elements.shape}")
    lead = elements.shape[:-2]
    # (i_1 .. i_m, j_1 .. j_m) -> (i_1, j_1, .., i_m, j_m): qubit q's index
    # pair is the q-th axis of length 4, qubit 1 slowest
    pairs = np.arange(2 * m).reshape(2, m).T.ravel()
    t = elements.reshape((-1,) + (2,) * (2 * m)).transpose(0, *(1 + pairs))
    t = t.reshape(len(t), -1)
    # each pass sums the slowest remaining pair against _PAIR and appends
    # its Pauli index as the fastest axis: after m passes qubit 1's index
    # is the slowest again
    for _ in range(m):
        t = t.reshape(len(t), 4, -1).transpose(0, 2, 1) @ _PAIR
    return np.ascontiguousarray(t.real.reshape(lead + (4 ** m,)))


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix (eigenvalues clipped at 0)."""
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
