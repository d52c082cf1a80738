"""Small dense linear-algebra kernel for dimensions up to 8, on plain numpy arrays:
complex square matrices of dimension 2, 4 or 8 and real 3x3 matrices. All pure.

Validate once, at the public boundary. A public function checks what its caller
passes (with _real, require_hermitian or a value type's __init__) and hands it to
an unchecked private kernel, the one source of its formula. Arrays the program
built, and the read-only arrays of value types, go straight to kernels; _trusted
keeps such arrays, uncopied, in a value type built without its __init__.
Where numpy's dispatch outweighs the work and numpy does not decide the bits, a
kernel reads tolist() and does Python arithmetic, as require_hermitian does. BLAS
products (written a.dot(b): @'s bits, less dispatch), svd and seeding stay numpy.
On hot paths, call ufuncs and ndarray methods, not numpy's Python wrappers, which add a
frame before the same C loop. Three stay: np.einsum in _trace_ancilla (ndarray.trace
warns of overflow on 1e308 I_8), _eigh's eigh, numpy's public LAPACK entry, and
np.count_nonzero in _real, the cheapest finiteness count numpy exposes.

One source per rule. _unit_sum adds weights left to right from 0.0, numpy's order for up
to eight values, never with sum(): 3.12's is compensated, so sum([0.5, 1e16, -1e16, 0.5])
is 1.0 there and 0.5 on 3.11. The norm of a 3-vector is math.hypot: the same bits on 3.10
to 3.13, and inf, not a warning, past the largest double. _svd and _eigh refuse a singular
value or eigenvalue there.
"""

from __future__ import annotations

import numpy as np

from .errors import BadDimension, NonFiniteInput, NonHermitianInput, QubitGeomError, WeightsNotNormalized

# Tolerances. Every verdict on the CP tetrahedron D is geometry._cp, the one test of its
# largest face slack n . eta - 1; one on the cube [-1, 1]^3 reads |eta_k| - 1 or
# sigma_max - 1. Each accepts slack up to FACE_TOL (eta units), so all agree.
FACE_TOL = 1e-9
ROUND_TOL = 1e-12  # unit sums, unitality, diagonality, Hermiticity
ORTHO_TOL = 1e-10  # orthogonality of rotations, the Bloch ball

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = np.array([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])
_NO_SHIFT = np.zeros(3)  # b of a unital channel: AffineChannel's default, from_eta's
for _a in (SIGMA_X, SIGMA_Y, SIGMA_Z, PAULIS, _NO_SHIFT):
    _a.setflags(write=False)  # shared by every call: a caller's write would reach them all


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


def _unit_sum(values: list[float], name: str) -> None:
    """The one unit-sum test: refuse floats whose sum is not 1 within ROUND_TOL."""
    total = 0.0
    for v in values:  # left to right: numpy's order, where sum() compensates since Python 3.12
        total += v
    if abs(total - 1.0) > ROUND_TOL:  # NonFiniteInput past the largest double
        raise (NonFiniteInput(f"the {name}' sum overflows") if abs(total) == np.inf
               else WeightsNotNormalized(f"{name} sum to {total}, expected 1"))


class _Value:  # an immutable value type: its fields are its annotations, set by __init__
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __setattr__(self, name, *value):  # and __delattr__, as in a frozen dataclass
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
    __delattr__ = __setattr__

    def _asdict(self) -> dict:  # field -> value, in order: the CLI's JSON object of a value
        return {name: getattr(self, name) for name in self._fields}

    def __repr__(self):  # a dataclass's text
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


def _freeze(obj: _Value, name: str, value, shape: tuple) -> np.ndarray:
    """Set obj.<name> to a read-only copy of _real(value), a float if shape is ()."""
    try:
        a = _real(value, name, shape).copy()
    except QubitGeomError as exc:  # the type is named only on the error path
        raise type(exc)(f"{type(obj).__name__}.{exc}") from None
    a.setflags(write=False)
    obj.__dict__[name] = a if shape else float(a)
    return a


def _trusted(cls, **fields):
    """cls holding fields as given, skipping its __init__; its float arrays made read-only."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # _Value refuses only setattr
    return obj


def require_hermitian(M: np.ndarray) -> np.ndarray:
    try:
        M = np.asarray(M, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadDimension(f"matrix must be numbers: {exc}") from None
    if M.ndim != 2 or not 0 < M.shape[0] == M.shape[1]:
        raise BadDimension(f"expected a nonempty square matrix, got shape {M.shape}")
    entries, transposed = M.ravel().tolist(), M.T.ravel().tolist()  # Python complex: numpy's bits
    if not all(z - z == 0 for z in entries):  # z - z is 0 for finite z, else NaN
        raise NonFiniteInput("matrix must be finite")
    try:  # max |M_ij - conj M_ji|; abs raises OverflowError past the largest double
        dev = max(abs(a - b.conjugate()) for a, b in zip(entries, transposed))
    except OverflowError:
        dev = np.inf
    if dev > ROUND_TOL:
        raise NonHermitianInput(f"Hermitian deviation {dev:.3e} exceeds {ROUND_TOL:.1e}")
    return M


def hermitian_eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues sorted
    ascending and orthonormal eigenvectors as columns.

    Raises NonFiniteInput for NaN or infinity, an eigenvalue that overflows or no
    convergence, NonHermitianInput if M is not Hermitian within ROUND_TOL.
    """
    return _eigh(require_hermitian(M))


def _eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # M: finite and Hermitian
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError:  # entries spanning 1e-300 to 1e300 can stall LAPACK
        raise NonFiniteInput("the eigendecomposition did not converge") from None
    if max(-w[0], w[-1]) == np.inf:  # finite M, but an eigenvalue past the largest double
        raise NonFiniteInput("an eigenvalue overflows")
    return w, V


def svd3(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition of a real 3x3 matrix.

    Returns (U, sigma, V) with A = U @ diag(sigma) @ V.T, U and V
    orthogonal, and sigma nonnegative in descending order. Raises
    NonFiniteInput for NaN or infinity, or a sigma past the largest double.
    """
    U, s, Vt = _svd(_real(A, "A", (3, 3)))
    return U, s, Vt.T


def _svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # A: finite, real 3x3
    U, s, Vt = np.linalg.svd(A)
    if s[0] == np.inf:  # finite A, but its largest singular value past the largest double
        raise NonFiniteInput("a singular value overflows")
    return U, s, Vt


def unitary_exp(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H and finite t and H t, via eigendecomposition (hbar = 1)."""
    return _exp_eig(*hermitian_eig(H), float(_real(t, "time", ())))


def _exp_eig(w: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:  # H = V diag(w) V^H
    if max(map(abs, w.tolist())) * abs(t) == np.inf:  # Python floats overflow with no warning
        raise NonFiniteInput(f"an eigenvalue times t = {t} overflows")
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def _det3(M: np.ndarray) -> float:
    (a, b, c), (d, e, f), (g, h, i) = M.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def partial_trace_ancilla(rho: np.ndarray) -> np.ndarray:
    """Trace out the ancilla of a qubit (x) ancilla state, a 2d x 2d Hermitian
    matrix checked as require_hermitian does; d is read from its shape.

    Tensor ordering is system (x) ancilla, row-major: index = qubit_index * d +
    ancilla_index. Raises BadDimension for an odd dimension, NonFiniteInput on overflow.
    """
    rho = require_hermitian(rho)
    dim, odd = divmod(rho.shape[0], 2)
    if odd:
        raise BadDimension(f"expected an even dimension 2d, got shape {rho.shape}")
    out = _trace_ancilla(rho, dim)
    if not np.isfinite(out).all():  # a sum of entries near the largest double
        raise NonFiniteInput("the partial trace overflows")
    return out


def _trace_ancilla(rho: np.ndarray, dim: int) -> np.ndarray:  # rho: (2 dim) x (2 dim)
    return np.einsum("iaja->ij", rho.reshape(2, dim, 2, dim))
