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
