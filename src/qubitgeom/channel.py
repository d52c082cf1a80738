"""Single-qubit states and channels.

States are 2x2 density matrices or, equivalently, real Bloch vectors s with
rho = (I + s . sigma) / 2. A channel acts on Bloch vectors as an affine map
s -> A s + b. Unital channels (b = 0) with diagonal A are parameterised by
the diagonal eta = (eta_x, eta_y, eta_z); the completely positive ones form
a regular tetrahedron in eta-space (see the geometry module).

Complete positivity is a property of the trace-1 Choi matrix, the channel
applied to one half of a maximally entangled pair. A unital channel is
factored once (one SVD, cached on the channel) as A = Q diag(delta) Q^T R,
and its Choi eigenvalues are the Pauli weights of delta, so only a
non-unital channel has its Choi matrix built and diagonalised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry, linalg
from .errors import BadDimension, NotUnital, UnknownName, UnphysicalBloch
from .linalg import PAULIS, _det3, _freeze, _real, _trusted

# Row 4j + k is sigma_j^T (x) sigma_k / 4, flattened; rows j = k sum to |Psi+><Psi+|.
_PAULI_TENSOR = np.array([np.kron(p.T, q).ravel() / 4.0 for p in PAULIS for q in PAULIS])


def bloch_to_density(s: np.ndarray) -> np.ndarray:
    """Density matrix (I + s . sigma) / 2 of a Bloch vector."""
    return _density(_in_ball(_real(s, "Bloch vector", (3,))))


def _in_ball(s: np.ndarray) -> np.ndarray:
    norm = math.sqrt(s.dot(s))  # np.linalg.norm(s) to the bit, without its overhead
    if norm > 1.0 + linalg.ORTHO_TOL:
        raise UnphysicalBloch(f"|s| = {norm} exceeds 1")
    return s


def _density(s: np.ndarray) -> np.ndarray:
    """(I + s . sigma) / 2, unchecked: for a Bloch vector valid by construction."""
    x, y, z = s.tolist()
    x, y = x + 0.0, y + 0.0  # + 0.0: no -0 where the Pauli sum has +0
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector s_i = Tr(rho sigma_i), read off the entries of a density
    matrix: 2x2, Hermitian and of unit trace within ROUND_TOL, |s| <= 1 + ORTHO_TOL."""
    rho = linalg.require_hermitian(rho)
    if rho.shape != (2, 2):
        raise BadDimension(f"density matrix must be 2x2, got shape {rho.shape}")
    (r00, r01), (r10, r11) = rho.tolist()
    if abs((r00 + r11).real - 1.0) > linalg.ROUND_TOL:
        raise UnphysicalBloch(f"density matrix has trace {(r00 + r11).real}, expected 1")
    x, y, z = (r01 + r10).real, r10.imag - r01.imag, (r00 - r11).real
    return _in_ball(np.array([x + 0.0, y + 0.0, z + 0.0]))  # + 0.0: no -0, as in the trace form


@dataclass(frozen=True)
class AffineChannel:
    """Affine Bloch-vector map s -> A s + b.

    A is a real 3x3 matrix, b a real translation. Instances are immutable.
    """

    A: np.ndarray
    b: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        _freeze(self, "A", (3, 3))
        _freeze(self, "b", (3,))

    @classmethod
    def from_eta(cls, eta) -> "AffineChannel":
        """Diagonal unital channel with squeezing parameters eta."""
        return _trusted(cls, A=np.diag(_real(eta, "eta", (3,))), b=np.zeros(3))

    @cached_property  # A and b are read-only, so each of these is computed once
    def is_unital(self) -> bool:
        return math.sqrt(self.b.dot(self.b)) <= linalg.ROUND_TOL  # np.linalg.norm to the bit

    @cached_property
    def is_diagonal(self) -> bool:
        (_, a01, a02), (a10, _, a12), (a20, a21, _) = self.A.tolist()
        return self.is_unital and max(map(abs, (a01, a02, a10, a12, a20, a21))) <= linalg.ROUND_TOL

    @cached_property
    def _canonical(self) -> "CanonicalForm":
        Q, sigma, Vt = np.linalg.svd(self.A)  # svd3 without its check: A is frozen
        if _det3(Q) < 0:
            Q[:, 2] = -Q[:, 2]
            sigma[2] = -sigma[2]
        # Need det(S) = det(V^T) so that R = Q S V^T is proper.
        S = np.array([1.0, 1.0, -1.0 if _det3(Vt) < 0 else 1.0])
        return _trusted(CanonicalForm, Q=Q, delta=sigma * S, R=(Q * S) @ Vt)

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(delta, u1, u2), A = u2 diag(delta) u1: (eta, I, I) if diagonal, else from _canonical."""
        if self.is_diagonal:
            return self.eta, np.eye(3), np.eye(3)
        form = self._canonical
        return form.delta, form.Q.T @ form.R, form.Q

    @property
    def eta(self) -> np.ndarray:
        """Diagonal of A; meaningful for diagonal unital channels."""
        return np.diag(self.A).copy()


def apply(ch: AffineChannel, s: np.ndarray) -> np.ndarray:
    """Image A s + b of a Bloch vector under the channel."""
    return ch.A @ _real(s, "Bloch vector", (3,)) + ch.b


def choi(ch: AffineChannel) -> np.ndarray:
    """Trace-1 Choi matrix (id x S)(|Psi+><Psi+|) of the channel.

    |Psi+> = (|00> + |11>)/sqrt(2); the channel acts on the second factor.
    As |Psi+><Psi+| = sum_j sigma_j^T (x) sigma_j / 4 and S(sigma_j) =
    sum_k T_kj sigma_k with T = [[1, 0], [b, A]], it is the contraction
    sum_jk T_kj sigma_j^T (x) sigma_k / 4. The result is Hermitian with unit
    trace; it is positive semidefinite iff the channel is completely positive.
    """
    Tt = np.zeros((4, 4))
    Tt[0] = (1.0, *ch.b)
    Tt[1:, 1:] = ch.A.T
    return (Tt.reshape(16) @ _PAULI_TENSOR).reshape(4, 4)


def is_cp(ch: AffineChannel) -> tuple[bool, float]:
    """Complete-positivity test via the Choi spectrum: (flag, min_eigenvalue), flag
    True iff the spectrum's face slack geometry._slack, -4 * min_eigenvalue, is at
    most FACE_TOL (1e-9). On a diagonal map the flag is in_D's to the bit."""
    w = geometry._weights(ch._factors[0]) if ch.is_unital else np.linalg.eigh(choi(ch))[0]
    return geometry._slack(w) <= linalg.FACE_TOL, min(w.tolist())


def is_positive_unital(ch: AffineChannel) -> bool:
    """Positivity test for a unital channel: A must contract the ball, so its
    largest singular value, delta[0] of the canonical form, is at most 1 + FACE_TOL."""
    if not ch.is_unital:
        raise NotUnital("positivity test implemented for unital channels only")
    return bool(ch._canonical.delta[0] - 1.0 <= linalg.FACE_TOL)


@dataclass(frozen=True)
class CanonicalForm:
    """Rotation-diagonal-rotation factorisation A = Q diag(delta) Q^T R.

    Q and R are proper rotations; delta is a signed diagonal whose absolute
    values are the singular values of A in descending order.
    """

    Q: np.ndarray
    delta: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        _freeze(self, "Q", (3, 3))
        _freeze(self, "delta", (3,))
        _freeze(self, "R", (3, 3))

    def reconstruct(self) -> np.ndarray:
        return self.Q @ np.diag(self.delta) @ self.Q.T @ self.R


def canonical_form(ch: AffineChannel) -> CanonicalForm:
    """Factor a unital channel as a rotation, a diagonal squeeze, a rotation.

    Built from the SVD A = U diag(sigma) V^T. Improper factors are repaired
    by sign flips absorbed into delta so that Q and R always come out as
    proper rotations; the sign pattern of delta is chosen with as few
    negative entries as possible. Works for singular A and det(A) < 0. The
    form is computed once per channel: canonical_form(ch) is canonical_form(ch).
    """
    if not ch.is_unital:
        raise NotUnital("canonical form requires a unital channel")
    return ch._canonical


_CATALOG = {"identity": (1.0, 1.0, 1.0), "rot_x": (1.0, -1.0, -1.0), "rot_y": (-1.0, 1.0, -1.0),
            "rot_z": (-1.0, -1.0, 1.0), "transpose": (1.0, -1.0, 1.0),
            "universal_not": (-1.0, -1.0, -1.0), "pancake": (1.0, 1.0, 0.0)}


def catalog(name: str, p: float | None = None) -> AffineChannel:
    """Named channels: the tetrahedron vertices, the classic non-CP positive
    maps (transpose, universal_not, pancake), and depolarize(p)."""
    if not (isinstance(name, str) and (name in _CATALOG or name == "depolarize")):
        raise UnknownName(f"unknown channel name {name!r}")
    eta = _CATALOG.get(name)
    if eta is None:  # depolarize
        if p is None:
            raise UnknownName("depolarize requires a probability parameter")
        p = float(_real(p, "depolarize probability", ()))
        if not 0.0 <= p <= 1.0:
            raise UnknownName(f"depolarize probability {p} outside [0, 1]")
        eta = (1.0 - p, 1.0 - p, 1.0 - p)
    return _trusted(AffineChannel, A=np.diag(eta), b=np.zeros(3))  # from_eta without its check


def channel_from_json(obj) -> AffineChannel:
    """Parse the shared JSON channel schema. Raises BadDimension for a value
    that is not an object with 3 numbers under "eta", or numeric "A" and "b"."""
    if isinstance(obj, dict) and "eta" in obj:
        eta = obj["eta"]
        if not (isinstance(eta, list) and all(isinstance(v, (int, float)) for v in eta)):
            raise BadDimension(f"eta must be a list of 3 numbers, got {eta!r}")
        return AffineChannel.from_eta(eta)
    if isinstance(obj, dict) and "A" in obj:
        return AffineChannel(obj["A"], obj.get("b", np.zeros(3)))
    raise BadDimension("channel JSON must be an object with 'eta' or 'A'")
