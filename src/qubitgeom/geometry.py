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

The Pauli weights of eta are 0.25 + eta . _WEIGHT_STEP over any leading axes:
the bits of 0.25 - n . (eta / 4).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

import numpy as np

from .errors import EmptyIntersection, NotCP, OutsideCube
from .linalg import FACE_TOL, _freeze, _real, _trusted, _unit_sum, _Value

VERTICES = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])

# Rows n with D = {eta : n . eta <= 1}; row k is opposite vertex k of
# (identity, R_x, R_y, R_z) and n . eta = 1 - 4 * weight_k.
FACE_NORMALS = -VERTICES
_WEIGHT_STEP = -FACE_NORMALS.T / 4.0  # column k: d weight_k / d eta

# Cube corners outside D; corner k is the antipode of vertex k.
NONCP_CORNERS = -VERTICES

TRANSPOSE_ETA = np.array([1.0, -1.0, 1.0])
for _a in (VERTICES, FACE_NORMALS, NONCP_CORNERS, TRANSPOSE_ETA):
    _a.setflags(write=False)  # shared by every call (a split's corner is a row): keep them intact


def in_D(eta) -> bool:
    """Tetrahedron membership: true iff eta is a CP diagonal unital map, that
    is iff its largest face slack n . eta - 1 is at most FACE_TOL (1e-9)."""
    return _cp(_weights(_real(eta, "eta", (3,))).tolist())


class PauliMixture(_Value):
    """Weights (p_I, p_x, p_y, p_z) over the four tetrahedron vertices, of unit
    sum for mixture_to_eta. A negative weight, flagged by `signed`, keeps the
    affine decomposition of a positive-but-not-CP map.
    """

    p: np.ndarray

    def __init__(self, p):
        _freeze(self, "p", p, (4,))

    @property
    def signed(self) -> bool:
        """True iff the largest face slack exceeds FACE_TOL (1e-9)."""
        return not _cp(self.p.tolist())


def pauli_weights(eta) -> PauliMixture:
    """Vertex weights of eta: p_k = (1 - n_k . eta) / 4."""
    return _trusted(PauliMixture, p=_weights(_real(eta, "eta", (3,))))


def _weights(eta: np.ndarray) -> np.ndarray:  # eta: floats of shape (..., 3)
    return 0.25 + eta.dot(_WEIGHT_STEP)  # no n . eta to overflow near 1e308


def _eta(p: np.ndarray) -> np.ndarray:  # p: 4 floats; the inverse of _weights, one eta at a time
    return VERTICES.T.dot(p)


def _cp(p: list[float]) -> bool:  # p: the weights of eta, or 4 Choi eigenvalues, as floats
    """The one verdict on D: its largest face slack n_k . eta - 1 = -4 p_k is <= FACE_TOL."""
    return -4.0 * min(p) <= FACE_TOL


def _cp_weights(eta: np.ndarray, refusal: str, *args) -> np.ndarray:
    """eta's weights clipped at 0 if _cp passes them, else NotCP(refusal.format(*args, least=l)),
    made only then, with l the least weight."""
    p = _weights(eta)
    if not _cp(p.tolist()):
        raise NotCP(refusal.format(*args, least=min(p.tolist())))
    return np.maximum(p, 0.0)


def mixture_to_eta(p) -> np.ndarray:
    """Convex (or affine) combination of the vertices; inverse of
    pauli_weights. NonFiniteInput if the weights' sum or the combination overflows."""
    p = (p if isinstance(p, PauliMixture) else PauliMixture(p)).p
    _unit_sum(p.tolist(), "weights")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves inf or nan: refused below
        eta = _eta(p)
    return _real(eta, "the combination of the vertices")


def compose(a, b) -> np.ndarray:
    """Composition of two diagonal maps: componentwise product; NonFiniteInput if it overflows."""
    a, b = _real(a, "a", (3,)).tolist(), _real(b, "b", (3,)).tolist()
    return _real([x * y for x, y in zip(a, b)], "the product a * b")  # Python floats: no warning


@cache
def _steps(free: tuple[bool, bool, bool]) -> np.ndarray:
    """KKT steps for the slice whose pinned coordinates are ~free.

    G is FACE_NORMALS with the pinned columns zeroed, so no step moves a pin.
    Active sets k run smallest first, so the first of two equally near
    candidates wins; a set whose rows G_k are dependent is left out, as an
    independent subset carries its KKT multipliers. Rows 3k..3k+2 hold the step
    G_k^T (G_k G_k^T)^-1 of kept set k, zero-padded to 4 columns.
    """
    G, W = FACE_NORMALS * free, []
    for size in range(4):
        for active in map(list, combinations(range(4), size)):
            Gk = G[active]
            if np.linalg.matrix_rank(Gk) == size:
                W.append(np.zeros((3, 4)))
                W[-1][:, active] = Gk.T @ np.linalg.inv(Gk @ Gk.T)
    return np.concatenate(W)


def _project_polytope(y: np.ndarray, free: tuple[bool, bool, bool]) -> np.ndarray:
    """Nearest point to y of D on the slice that holds y's coordinates ~free.

    Takes the KKT step x_k = y - W_k (n . y - 1) for every active set k at once;
    the projection onto a nonempty convex polytope is among the candidates that
    lie in D, as _cp reads their weights. Raises EmptyIntersection if none
    does, and OutsideCube if max|y| > 1e6, where a candidate's rounding error,
    about eps * |y|, starts to outgrow the absolute FACE_TOL it is checked against.
    """
    if max(map(abs, y.tolist())) > 1e6:
        raise OutsideCube(f"eta {y} too far from D to project (max |eta_k| > 1e6)")
    X = y - _steps(free).dot(FACE_NORMALS.dot(y) - 1.0).reshape(-1, 3)
    d2 = np.add.reduce((X - y) ** 2, axis=1).tolist()
    best, best_d2 = None, np.inf
    for k, (p, d) in enumerate(zip(_weights(X).tolist(), d2)):
        if d < best_d2 - 1e-15 and _cp(p):
            best, best_d2 = k, d
    if best is None:
        raise EmptyIntersection("constraint slice does not meet the tetrahedron")
    return X[best]


def project_to_D(eta) -> np.ndarray:
    """Euclidean nearest point of the tetrahedron D.

    The trace inner product on diagonal unital maps reduces to the
    Euclidean metric in eta-space, so this is the best-CP approximation.
    """
    return _project_polytope(_real(eta, "eta", (3,)), (True, True, True))


def project_constrained(eta, free_mask, fixed_values) -> np.ndarray:
    """Nearest point of D within an axis-aligned affine slice.

    free_mask marks the coordinates allowed to vary; fixed_values pins the
    remaining coordinates, in coordinate order. The pins replace those of eta,
    only the free coordinates are solved for, and the result holds the pins
    exactly. Raises EmptyIntersection when the slice misses D, before any
    arithmetic for a pin beyond 2.
    """
    free = _real(free_mask, "free_mask", (3,)) != 0.0
    pins = _real(fixed_values, "pinned values", (np.count_nonzero(~free),))
    y = _real(eta, "eta", (3,)).copy()
    if max(map(abs, pins.tolist()), default=0.0) > 2.0:
        raise EmptyIntersection("constraint slice does not meet the tetrahedron")
    y[~free] = pins
    x = _project_polytope(y, tuple(free.tolist()))
    x[~free] = pins  # a pin of -0.0 minus a zero step can come out +0.0
    return x


class SWDecomposition(_Value):
    """Positive map as p * cp1 + (1 - p) * (cp2 o transpose).

    cp1 and cp2 both lie in D; corner = compose(cp2, transpose) is the
    non-CP cube corner whose pyramid contains the input.
    """

    p: float
    cp1: np.ndarray
    corner: np.ndarray
    cp2: np.ndarray

    def __init__(self, p, cp1, corner, cp2):
        for name, value, shape in zip(self._fields, (p, cp1, corner, cp2), ((), (3,), (3,), (3,))):
            _freeze(self, name, value, shape)

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
    if _cp(w.tolist()):
        return _trusted(SWDecomposition, p=1.0, cp1=eta.copy(), corner=TRANSPOSE_ETA, cp2=VERTICES[0])
    if radius > 1.0:  # the violated face's slack s becomes (s + 1 - radius) / radius > 0
        eta = eta / radius
        w = _weights(eta)
    k = w.argmin()  # the single violated face: the first least weight
    corner = NONCP_CORNERS[k]
    # eta = (1 - p) corner + p cp1, n_k . cp1 = 1, n_k . corner = 3; d is exact near the corner
    d = eta - corner
    p = -FACE_NORMALS[k].dot(d) / 2.0 + 0.0  # + 0.0: no -0 at the corner
    cp1 = corner + d / p if p > 0.0 else corner / 3.0  # eta == corner: centroid of the face
    cp2 = corner * TRANSPOSE_ETA  # compose(corner, transpose); transpose is an involution
    return _trusted(SWDecomposition, p=float(p), cp1=cp1, corner=corner, cp2=cp2)
