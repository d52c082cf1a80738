"""Small dense linear-algebra kernel for dimensions up to 8.

Everything here operates on plain numpy arrays: complex square matrices of
dimension 2, 4 or 8, and real 3x3 matrices. All functions are pure.

Validate once, at the public boundary. A public function checks what its caller
passes (with _real, require_hermitian or a value type's __post_init__) and hands
it to an unchecked private kernel, the one source of its formula. Arrays the
program built, and the read-only arrays of value types, go straight to kernels.
_trusted builds a value type without its __post_init__, only from arrays valid by
construction (from_eta, catalog, the cached canonical form, pauli_weights,
compile_channel, design_coupling, trajectory).
"""

from __future__ import annotations

import numpy as np

from .errors import BadDimension, NonFiniteInput, NonHermitianInput, QubitGeomError

# Tolerances. Every verdict on the CP tetrahedron D reads geometry._slack, its
# largest face slack n . eta - 1; one on the cube [-1, 1]^3 reads |eta_k| - 1 or
# sigma_max - 1. Each accepts slack up to FACE_TOL (eta units), so all agree.
FACE_TOL = 1e-9
ROUND_TOL = 1e-12  # unit sums, unitality, diagonality, Hermiticity
ORTHO_TOL = 1e-10  # orthogonality of rotations, the Bloch ball

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = np.array([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])


def _real(x, name: str, shape: tuple | None = None) -> np.ndarray:
    """x as a float array of the given shape, -1 matching any length along an
    axis (None: any shape). Raises BadDimension for a value that is not real
    numbers or has another shape, NonFiniteInput for NaN or infinity."""
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadDimension(f"{name} must be real numbers: {exc}") from None
    if shape is not None and a.shape != shape and (
            a.ndim != len(shape) or any(n not in (-1, m) for m, n in zip(a.shape, shape))):
        raise BadDimension(f"{name} needs shape {shape}, got {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:  # a C loop, where ndarray.all is Python
        raise NonFiniteInput(f"{name} must be finite")
    return a


def _freeze(obj, name: str, shape: tuple) -> np.ndarray:
    """Store obj.<name> as a read-only copy of _real(obj.<name>); for the
    __post_init__ of frozen value types."""
    try:
        a = _real(getattr(obj, name), name, shape).copy()
    except QubitGeomError as exc:  # the type is named only on the error path
        raise type(exc)(f"{type(obj).__name__}.{exc}") from None
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


def require_hermitian(M: np.ndarray) -> np.ndarray:
    try:
        M = np.asarray(M, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadDimension(f"matrix must be numbers: {exc}") from None
    if M.ndim != 2 or not 0 < M.shape[0] == M.shape[1]:
        raise BadDimension(f"expected a nonempty square matrix, got shape {M.shape}")
    if np.count_nonzero(np.isfinite(M)) != M.size:  # before M - M^H: inf - inf warns
        raise NonFiniteInput("matrix must be finite")
    dev = np.abs(M - M.conj().T).max()
    if dev > ROUND_TOL:
        raise NonHermitianInput(f"Hermitian deviation {dev:.3e} exceeds {ROUND_TOL:.1e}")
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
    U, s, Vt = np.linalg.svd(_real(A, "A", (3, 3)))
    return U, s, Vt.T


def unitary_exp(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H and finite t, via eigendecomposition (hbar = 1)."""
    return _exp_eig(*hermitian_eig(H), float(_real(t, "time", ())))


def _exp_eig(w: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:  # H = V diag(w) V^H
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def _det3(M: np.ndarray) -> float:
    (a, b, c), (d, e, f), (g, h, i) = M.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def partial_trace_ancilla(rho: np.ndarray) -> np.ndarray:
    """Trace out the ancilla of a qubit (x) ancilla state, a 2d x 2d Hermitian
    matrix checked as require_hermitian does; d is read from its shape.

    Tensor ordering is system (x) ancilla, row-major: index =
    qubit_index * d + ancilla_index. Raises BadDimension if the dimension is odd.
    """
    rho = require_hermitian(rho)
    dim, odd = divmod(rho.shape[0], 2)
    if odd:
        raise BadDimension(f"expected an even dimension 2d, got shape {rho.shape}")
    return _trace_ancilla(rho, dim)


def _trace_ancilla(rho: np.ndarray, dim: int) -> np.ndarray:  # rho: (2 dim) x (2 dim)
    return np.einsum("iaja->ij", rho.reshape(2, dim, 2, dim))
