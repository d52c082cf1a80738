"""Small dense linear-algebra kernel for dimensions up to 8.

Everything here operates on plain numpy arrays: complex square matrices of
dimension 2, 4 or 8, and real 3x3 matrices. All functions are pure.

The frozen value types validate in __post_init__, through _freeze. _trusted
builds one without that check, and only a producer whose arrays are valid by
construction may use it (canonical_form, pauli_weights, compile_channel);
input from outside always goes through the public constructors.
"""

from __future__ import annotations

import numpy as np

from .errors import BadDimension, NonFiniteInput, NonHermitianInput

# Tolerances. A face slack, n . eta - 1 for a face normal n of the CP
# tetrahedron D or |eta_k| - 1 for the cube [-1, 1]^3, is -4 times a Pauli
# weight or Choi eigenvalue of the diagonal map and exact near a face; every
# verdict on D or the cube accepts slack up to FACE_TOL (eta units), so all agree.
FACE_TOL = 1e-9
ROUND_TOL = 1e-12  # unit sums, unitality, diagonality, Hermiticity
ORTHO_TOL = 1e-10  # orthogonality of rotations, the Bloch ball

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)


def _freeze(obj, name: str, shape: tuple) -> np.ndarray:
    """Store obj.<name> as a read-only float copy reshaped to shape; for the
    __post_init__ of frozen value types. Raises BadDimension on a mismatch."""
    try:
        a = np.array(getattr(obj, name), dtype=float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise BadDimension(f"{type(obj).__name__}.{name} needs shape {shape}: {exc}") from None
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


def _trusted(cls, **arrays):
    """cls holding read-only float copies of arrays, skipping __post_init__."""
    obj = object.__new__(cls)
    for name, value in arrays.items():
        a = np.array(value, dtype=float)
        a.setflags(write=False)
        object.__setattr__(obj, name, a)
    return obj


def require_hermitian(M: np.ndarray, tol: float = ROUND_TOL) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadDimension(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteInput("matrix must be finite")
    dev = np.abs(M - M.conj().T).max()
    if dev > tol:
        raise NonHermitianInput(f"Hermitian deviation {dev:.3e} exceeds {tol:.1e}")
    return M


def hermitian_eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues sorted
    ascending and orthonormal eigenvectors as columns.

    Raises NonFiniteInput if M holds NaN or infinity, NonHermitianInput if
    it is not Hermitian within ROUND_TOL.
    """
    return np.linalg.eigh(require_hermitian(M))


def svd3(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition of a real 3x3 matrix.

    Returns (U, sigma, V) with A = U @ diag(sigma) @ V.T, U and V
    orthogonal, and sigma nonnegative in descending order.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        raise BadDimension(f"expected 3x3, got shape {A.shape}")
    U, s, Vt = np.linalg.svd(A)
    return U, s, Vt.T


def unitary_exp(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H and finite t, via eigendecomposition (hbar = 1)."""
    if not np.isfinite(t):
        raise NonFiniteInput(f"time must be finite, got {t}")
    return _exp_eig(*hermitian_eig(H), t)


def _exp_eig(w: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:  # H = V diag(w) V^H
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def partial_trace_ancilla(rho: np.ndarray, ancilla_dim: int = 4) -> np.ndarray:
    """Trace out the ancilla of a qubit (x) ancilla state.

    Tensor ordering is system (x) ancilla, row-major: index =
    qubit_index * ancilla_dim + ancilla_index.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2 * ancilla_dim, 2 * ancilla_dim):
        raise BadDimension(
            f"expected dim {2 * ancilla_dim}, got shape {rho.shape}"
        )
    r = rho.reshape(2, ancilla_dim, 2, ancilla_dim)
    return np.einsum("iaja->ij", r)
