"""Geometry of diagonal unital channels in eta-space.

The completely positive diagonal unital channels form a regular tetrahedron
D with vertices at the identity (1,1,1) and the three pi-rotations
R_x = (1,-1,-1), R_y = (-1,1,-1), R_z = (-1,-1,1). Equivalently D is cut
out of the cube [-1,1]^3 by the four half-spaces

    |eta_x + eta_y| <= 1 + eta_z,    |eta_x - eta_y| <= 1 - eta_z.

This module provides membership tests, the linear correspondence with Pauli
mixtures, Euclidean (and constrained) projection onto D - the best-CP
approximation of a positive map - and the decomposition of any positive
diagonal unital map into a convex mixture of a CP part and a CP part
composed with the transpose.

A projection tries every set of active faces at once: the KKT step of a set
depends on the set and the pinned coordinates but not on the point, so each
step matrix is computed once per pinning pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import EmptyIntersection, OutsideCube, WeightsNotNormalized
from .linalg import FACE_TOL, ROUND_TOL, _freeze, _real, _trusted

VERTICES = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])

# Rows n with D = {eta : n . eta <= 1}; row k is opposite vertex k of
# (identity, R_x, R_y, R_z) and n . eta = 1 - 4 * weight_k.
FACE_NORMALS = -VERTICES
_FACE_RHS = np.ones(4)

# Cube corners outside D; corner k is the antipode of vertex k.
NONCP_CORNERS = -VERTICES

TRANSPOSE_ETA = np.array([1.0, -1.0, 1.0])


def in_D(eta) -> bool:
    """Tetrahedron membership: true iff eta is a CP diagonal unital map, that
    is iff its largest face slack n . eta - 1 is at most FACE_TOL (1e-9)."""
    return _slack(_weights(_real(eta, "eta", (3,)))) <= FACE_TOL


@dataclass(frozen=True)
class PauliMixture:
    """Weights (p_I, p_x, p_y, p_z) over the four tetrahedron vertices, of unit
    sum for mixture_to_eta. A negative weight, flagged by `signed`, keeps the
    affine decomposition of a positive-but-not-CP map.
    """

    p: np.ndarray

    def __post_init__(self):
        _freeze(self, "p", (4,))

    @property
    def signed(self) -> bool:
        """True iff the largest face slack exceeds FACE_TOL (1e-9)."""
        return _slack(self.p) > FACE_TOL


def pauli_weights(eta) -> PauliMixture:
    """Vertex weights of eta: p_k = (1 - n_k . eta) / 4."""
    return _trusted(PauliMixture, p=_weights(_real(eta, "eta", (3,))))


def _weights(eta: np.ndarray) -> np.ndarray:  # eta: a float array of shape (3,)
    return 0.25 - FACE_NORMALS @ (eta / 4.0)  # the same bits, without overflow near 1e308


def _slack(p: np.ndarray) -> float:  # p: the weights of eta, or 4 Choi eigenvalues
    """Largest face slack n_k . eta - 1 = -4 p_k; eta is in D iff it is <= FACE_TOL."""
    return -4.0 * min(p.tolist())


def mixture_to_eta(p) -> np.ndarray:
    """Convex (or affine) combination of the vertices; inverse of
    pauli_weights."""
    p = (p if isinstance(p, PauliMixture) else PauliMixture(p)).p
    if abs(p.sum() - 1.0) > ROUND_TOL:
        raise WeightsNotNormalized(f"weights sum to {p.sum()}, expected 1")
    return VERTICES.T @ p


def compose(a, b) -> np.ndarray:
    """Composition of two diagonal maps: componentwise product."""
    return _real(a, "a", (3,)) * _real(b, "b", (3,))


@cache
def _steps(free: tuple[bool, bool, bool]):
    """KKT steps for the slice whose pinned coordinates are ~free.

    G stacks the pinning rows and the face normals; active sets k run smallest
    first, so the first of two equally near candidates wins. Rows 3k..3k+2 of
    W hold the step G_k^T (G_k G_k^T)^-1 of set k (pinv if its rows G_k are
    dependent), zero-padded to len(G) columns; rows[k] is 1 on G_k, else 0.
    """
    pins = np.eye(3)[~np.array(free)]
    G = np.vstack([pins, FACE_NORMALS])
    sets = [a for size in range(4) for a in combinations(range(4), size)]
    W = np.zeros((len(sets), 3, len(G)))
    for k, active in enumerate(sets):
        idx = list(range(len(pins))) + [len(pins) + f for f in active]
        if idx:
            Gk = G[idx]
            dependent = np.linalg.matrix_rank(Gk) < len(idx)
            W[k][:, idx] = np.linalg.pinv(Gk) if dependent else Gk.T @ np.linalg.inv(Gk @ Gk.T)
    return G, W.reshape(-1, len(G)), W.any(axis=1).astype(float)


def _project_polytope(y: np.ndarray, free: tuple[bool, bool, bool], r: np.ndarray) -> np.ndarray:
    """Nearest point to y of D on the slice {eta[~free] = r[:-4]}; r[-4:] is _FACE_RHS.

    Takes the KKT step x_k = y - W_k (G y - r) for every active set k at once;
    the projection onto a nonempty convex polytope is among the candidates that
    meet their own constraints and lie in D. Raises EmptyIntersection if none does,
    and OutsideCube if max|y| > 1e6, where a candidate's rounding error, about
    eps * |y|, starts to outgrow the absolute FACE_TOL it is checked against.
    """
    if max(map(abs, y.tolist())) > 1e6:
        raise OutsideCube(f"eta {y} too far from D to project (max |eta_k| > 1e6)")
    G, W, rows = _steps(free)
    X = y - (W @ (G @ y - r)).reshape(-1, 3)
    resid = X @ G.T - r
    # |resid| <= FACE_TOL on the set's own rows, resid <= FACE_TOL on the others
    ok = (np.maximum(resid, -resid * rows) <= FACE_TOL).all(axis=1)
    d2 = np.where(ok, ((X - y) ** 2).sum(axis=1), np.inf).tolist()
    best, best_d2 = None, np.inf
    for k, d in enumerate(d2):
        if d < best_d2 - 1e-15:
            best, best_d2 = k, d
    if best is None:
        raise EmptyIntersection("constraint slice does not meet the tetrahedron")
    return X[best]


def project_to_D(eta) -> np.ndarray:
    """Euclidean nearest point of the tetrahedron D.

    The trace inner product on diagonal unital maps reduces to the
    Euclidean metric in eta-space, so this is the best-CP approximation.
    """
    return _project_polytope(_real(eta, "eta", (3,)), (True, True, True), _FACE_RHS)


def project_constrained(eta, free_mask, fixed_values) -> np.ndarray:
    """Nearest point of D within an axis-aligned affine slice.

    free_mask marks the coordinates allowed to vary; fixed_values pins the
    remaining coordinates, in coordinate order. Raises EmptyIntersection
    when the slice misses D.
    """
    free = _real(free_mask, "free_mask", (3,)) != 0.0
    fixed_vals = _real(fixed_values, "pinned values", (np.count_nonzero(~free),))
    return _project_polytope(_real(eta, "eta", (3,)), tuple(free.tolist()),
                             np.concatenate((fixed_vals, _FACE_RHS)))


@dataclass(frozen=True)
class SWDecomposition:
    """Positive map as p * cp1 + (1 - p) * (cp2 o transpose).

    cp1 and cp2 both lie in D; corner = compose(cp2, transpose) is the
    non-CP cube corner whose pyramid contains the input.
    """

    p: float
    cp1: np.ndarray
    corner: np.ndarray
    cp2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.p * self.cp1 + (1.0 - self.p) * (self.cp2 * TRANSPOSE_ETA)


def sw_decompose(eta) -> SWDecomposition:
    """Split a positive diagonal unital map into CP and CP-after-transpose.

    Inside D the split is trivial (p = 1). Outside, eta lies in exactly one
    of the four pyramids between a face of D and the cube corner behind it;
    the line from that corner through eta meets the opposite face of D at
    cp1, and the corner itself is a transposed tetrahedron vertex cp2. Face
    and cube slacks up to FACE_TOL (1e-9) are accepted: p = 1 exactly when
    in_D(eta), and an eta up to FACE_TOL beyond the cube is split as eta /
    max|eta_k|. Raises OutsideCube past that.
    """
    eta = _real(eta, "eta", (3,))
    radius = max(map(abs, eta.tolist()))
    if radius - 1.0 > FACE_TOL:
        raise OutsideCube(f"eta {eta} outside [-1, 1]^3")
    w = _weights(eta)
    if _slack(w) <= FACE_TOL:
        return SWDecomposition(1.0, eta.copy(), TRANSPOSE_ETA.copy(), VERTICES[0].copy())
    if radius > 1.0:  # the violated face's slack s becomes (s + 1 - radius) / radius > 0
        eta = eta / radius
        w = _weights(eta)
    k = w.argmin()  # the single violated face: the first least weight
    corner = NONCP_CORNERS[k]
    # eta = (1 - p) corner + p cp1, n_k . cp1 = 1, n_k . corner = 3; d is exact near the corner
    d = eta - corner
    p = -(FACE_NORMALS[k] @ d) / 2.0 + 0.0  # + 0.0: no -0 at the corner
    cp1 = corner + d / p if p > 0.0 else corner / 3.0  # eta == corner: centroid of the face
    cp2 = corner * TRANSPOSE_ETA  # compose(corner, transpose); transpose is an involution
    return SWDecomposition(float(p), cp1, corner, cp2)
