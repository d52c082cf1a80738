import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def random_rotation(rng) -> np.ndarray:
    """Haar-ish proper rotation from QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def random_eta_in_D(rng) -> np.ndarray:
    """Uniform-ish CP diagonal channel via Dirichlet mixture weights."""
    from qubitgeom import geometry

    p = rng.dirichlet(np.ones(4))
    return geometry.VERTICES.T @ p


def bit_lock_targets(rng) -> np.ndarray:
    """2,228 points of D for bit-lock tests: 2,000 Dirichlet points; the vertices, edge
    midpoints and face centroids, and the same 14 moved out by 1e-10 into the tolerance
    band, where a Pauli weight is slightly negative; 200 points near the identity, at
    distances from 1e-1 down to 1e-18."""
    from qubitgeom import geometry

    V = geometry.VERTICES
    corners = np.concatenate([V, [(V[i] + V[j]) / 2 for i in range(4) for j in range(i + 1, 4)],
                              [(V.sum(axis=0) - V[i]) / 3 for i in range(4)]])
    eps = 10.0 ** -rng.uniform(1, 18, (200, 1))
    near = (1.0 - eps) * V[0] + eps * (rng.dirichlet(np.ones(3), 200) @ V[1:])
    dirichlet = rng.dirichlet(np.ones(4), 2000) @ V
    return np.concatenate([dirichlet, corners, corners * (1 + 1e-10), near])


def raised(f, *args) -> tuple[type, str]:
    """The type and message of the QubitGeomError that f(*args) raises."""
    from qubitgeom.errors import QubitGeomError

    with pytest.raises(QubitGeomError) as exc:
        f(*args)
    return type(exc.value), str(exc.value)


def face_slack(eta) -> float:
    """Largest face slack max(n . eta) - 1 of D: the number in_D compares with FACE_TOL."""
    from qubitgeom import geometry

    return float(max(geometry.FACE_NORMALS @ np.asarray(eta, dtype=float))) - 1.0


def random_hermitian(rng, dim: int) -> np.ndarray:
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (M + M.conj().T) / 2


def random_density(rng) -> np.ndarray:
    from qubitgeom import bloch_to_density

    s = rng.standard_normal(3)
    s *= rng.uniform(0, 1) / np.linalg.norm(s)
    return bloch_to_density(s)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    w = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(w)))
