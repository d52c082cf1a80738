from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest

import qubitgeom as qg
from qubitgeom import geometry, linalg
from qubitgeom.errors import (BadDimension, EmptyIntersection, NonFiniteInput,
                              OutsideCube, WeightsNotNormalized)
from qubitgeom.linalg import FACE_TOL

from conftest import face_slack, random_eta_in_D


# ---------------------------------------------------------------- oracles

def segment_nearest(y, a, b):
    """Nearest point of the segment [a, b] to y."""
    t = np.clip((y - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
    return a + t * (b - a)


def exact_project_oracle(eta):
    """Exact projection of an exterior point onto D, built from the vertices
    alone and independent of the KKT steps: the nearest of the 4 vertices,
    the nearest points of the 6 edges, and the plane projections onto the 4
    faces that fall inside their triangle."""
    y = np.asarray(eta, dtype=float)
    V = geometry.VERTICES
    cands = list(V) + [segment_nearest(y, V[i], V[j]) for i, j in combinations(range(4), 2)]
    for k in range(4):
        a, b, c = np.delete(V, k, axis=0)
        # y - a = u (b - a) + v (c - a) + w n, with n normal to the face
        n = np.cross(b - a, c - a)
        u, v, _ = np.linalg.solve(np.column_stack([b - a, c - a, n]), y - a)
        if u >= 0.0 and v >= 0.0 and u + v <= 1.0:
            cands.append(a + u * (b - a) + v * (c - a))
    d = [np.sum((x - y) ** 2) for x in cands]
    return cands[int(np.argmin(d))]


def _solve_exact(M, r):
    """Solution of M z = r in Fractions by Gaussian elimination; None if M is singular."""
    A = [list(row) + [v] for row, v in zip(M, r)]
    n = len(A)
    for c in range(n):
        p = next((i for i in range(c, n) if A[i][c] != 0), None)
        if p is None:
            return None
        A[c], A[p] = A[p], A[c]
        for i in range(n):
            if i != c and A[i][c] != 0:
                f = A[i][c] / A[c][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    return [A[i][n] / A[i][i] for i in range(n)]


def exact_constrained_oracle(eta, free, pins):
    """Exact projection of eta onto D within the slice eta[~free] = pins, in
    Fractions; None if the slice misses D. Each set S of faces whose normals are
    independent on the free coordinates gives the nearest point of the slice on
    those faces, x = b - G^T (G G^T)^-1 (G b - c), for b the point with the pins
    written in, G the normals of S on the free coordinates and c their right-hand
    sides less the pinned part; the answer is the nearest candidate in D."""
    b = [Fraction(v) for v in eta]
    for i, v in zip(np.flatnonzero(~free), pins):
        b[i] = Fraction(v)
    fi = np.flatnonzero(free)
    normals = [[Fraction(int(v)) for v in n] for n in geometry.FACE_NORMALS]
    best, best_d = None, None
    for size in range(len(fi) + 1):
        for S in combinations(normals, size):
            G = [[n[j] for j in fi] for n in S]
            lam = _solve_exact([[sum(u * v for u, v in zip(g, h)) for h in G] for g in G],
                               [sum(n[j] * b[j] for j in range(3)) - 1 for n in S])
            if lam is None:
                continue
            x = list(b)
            for k, j in enumerate(fi):
                x[j] -= sum(g[k] * l for g, l in zip(G, lam))
            if all(sum(n[j] * x[j] for j in range(3)) <= 1 for n in normals):
                d = sum((u - v) ** 2 for u, v in zip(x, b))
                if best is None or d < best_d:
                    best, best_d = x, d
    return best


def simplex_project_oracle(etas):
    """Projection onto D of each row of etas through the probability simplex.

    V V^T = 4 I - J for the vertex rows V, so |eta - eta'| = 2 |p - p'| for
    weights of unit sum, and the nearest point of D is V^T q for q the nearest
    simplex point to p = (1 - n . eta) / 4. q is a sort, a cumulative sum and a
    threshold (Held, Wolfe & Crowder 1974; Duchi et al., ICML 2008).
    """
    p = (1.0 - etas @ geometry.FACE_NORMALS.T) / 4.0
    u = -np.sort(-p, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    rho = np.count_nonzero(u - css / np.arange(1, 5) > 0.0, axis=1)  # true on a prefix
    theta = css[np.arange(len(p)), rho - 1] / rho
    return np.maximum(p - theta[:, None], 0.0) @ geometry.VERTICES


def grid_project_oracle(eta, step=2.5e-4):
    """Brute-force projection: barycentric grids over the four faces,
    coarse pass then local refinement (valid because the squared distance
    is convex on each face)."""
    eta = np.asarray(eta, dtype=float)
    best, best_d = None, np.inf
    for k in range(4):
        tri = np.delete(geometry.VERTICES, k, axis=0)
        a, b, c = tri

        def face_best(u0, u1, v0, v1, h):
            u = np.arange(max(u0, 0.0), min(u1, 1.0) + h / 2, h)
            v = np.arange(max(v0, 0.0), min(v1, 1.0) + h / 2, h)
            U, V = np.meshgrid(u, v, indexing="ij")
            mask = U + V <= 1.0 + 1e-12
            U, V = U[mask], V[mask]
            pts = a + np.outer(U, b - a) + np.outer(V, c - a)
            d = np.sum((pts - eta) ** 2, axis=1)
            i = int(np.argmin(d))
            return U[i], V[i], pts[i], d[i]

        u, v, _, _ = face_best(0.0, 1.0, 0.0, 1.0, 0.02)
        _, _, p, d = face_best(u - 0.03, u + 0.03, v - 0.03, v + 0.03, step)
        if d < best_d:
            best_d, best = d, p
    return best


# ----------------------------------------------------------- membership

def test_in_D_examples():
    assert qg.in_D([1, 1, 1])
    assert not qg.in_D([1, -1, 1])
    assert qg.in_D([-1 / 3, -1 / 3, -1 / 3])


def test_face_normals_closed_under_flips_and_permutations():
    faces = sorted(map(tuple, geometry.FACE_NORMALS))
    for v in geometry.VERTICES:  # the identity and the three two-sign flips
        assert sorted(map(tuple, geometry.FACE_NORMALS * v)) == faces
    for perm in permutations(range(3)):
        assert sorted(map(tuple, geometry.FACE_NORMALS[:, perm])) == faces


def test_in_D_matches_inequalities(rng):
    for eta in rng.uniform(-1, 1, (500, 3)):
        x, y, z = eta
        expected = abs(x + y) <= 1 + z + 1e-9 and abs(x - y) <= 1 - z + 1e-9
        assert qg.in_D(eta) == expected


# --------------------------------------------------------- Pauli weights

def test_pauli_weights_examples():
    assert np.allclose(qg.pauli_weights([1, 1, 1]).p, [1, 0, 0, 0])
    mix = qg.pauli_weights([-1 / 3, -1 / 3, -1 / 3])
    assert np.allclose(mix.p, [0, 1 / 3, 1 / 3, 1 / 3])
    assert not mix.signed
    signed = qg.pauli_weights([1, -1, 1])
    assert np.allclose(signed.p, [0.5, 0.5, -0.5, 0.5])
    assert signed.signed


def _weight_points(rng):
    """Seeded points for the Pauli-weight kernel: both zeros, subnormals, magnitudes
    from 1e-300 to 1.7e308 in every sign pattern, the vertices and their antipodes."""
    signs = rng.choice([-1.0, 1.0], (30000, 3))
    special = [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [5e-324, -5e-324, 0.0],
               [2.2250738585072014e-308, -1e-310, 3e-320], [1.7e308, -1.7e308, 1.7e308]]
    return np.vstack([signs * 10.0 ** rng.uniform(-300, np.log10(1.7e308), (30000, 3)),
                      signs * 10.0 ** rng.uniform(-324, -300, (30000, 3)),
                      rng.uniform(-1.5, 1.5, (30000, 3)), geometry.VERTICES,
                      -geometry.VERTICES, special])


def test_weights_bits_locked(rng):
    """geometry._weights is 0.25 - n . (eta / 4) to the bit, row by row and over a
    batch axis, with no warning on any finite input."""
    points = _weight_points(rng)
    batch = geometry._weights(points)
    for eta, w in zip(points, batch):
        reference = 0.25 - geometry.FACE_NORMALS @ (eta / 4.0)
        assert geometry._weights(eta).tobytes() == reference.tobytes() == w.tobytes()


def test_weights_roundtrip(rng):
    for eta in rng.uniform(-1, 1, (200, 3)):
        mix = qg.pauli_weights(eta)
        assert abs(np.sum(mix.p) - 1.0) < 1e-12
        assert np.max(np.abs(qg.mixture_to_eta(mix) - eta)) < 1e-12
        assert (np.min(mix.p) >= -1e-12) == (face_slack(eta) <= 4e-12)


def test_mixture_to_eta_rejects_unnormalised():
    with pytest.raises(WeightsNotNormalized):
        qg.mixture_to_eta(np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(NonFiniteInput):
        qg.mixture_to_eta([np.nan, 0.0, 0.0, 1.0])


def test_mixture_to_eta_unit_sum_bits_locked(rng):
    """The unit-sum test reads numpy's sum of the weights, bit for bit, at the tolerance's edge."""
    from qubitgeom.linalg import ROUND_TOL

    for _ in range(2000):
        p = rng.dirichlet(np.ones(4)) * (1.0 + rng.choice([-1, 1]) * ROUND_TOL * rng.uniform(0.5, 1.5))
        p[rng.integers(4)] *= float(10.0 ** rng.integers(-20, 3))
        total = np.sum(p)
        if abs(total - 1.0) > ROUND_TOL:
            with pytest.raises(WeightsNotNormalized, match=f"^weights sum to {total}, expected 1$"):
                qg.mixture_to_eta(p)
        else:
            assert qg.mixture_to_eta(p).tobytes() == (geometry.VERTICES.T @ p).tobytes()


# ------------------------------------------------------------ projection

def test_project_paper_points():
    assert np.max(np.abs(qg.project_to_D([-1, -1, -1]) - [-1 / 3] * 3)) < 1e-12
    assert np.max(np.abs(qg.project_to_D([1, 1, 0]) - [2 / 3, 2 / 3, 1 / 3])) < 1e-12
    assert np.max(np.abs(qg.project_to_D([0, 0, 0]))) < 1e-15


def test_project_idempotent_and_obtuse(rng):
    for eta in rng.uniform(-1, 1, (100, 3)):
        p = qg.project_to_D(eta)
        assert qg.in_D(p)
        assert np.max(np.abs(qg.project_to_D(p) - p)) < 1e-9
        # variational characterisation of projection onto a convex set
        for v in geometry.VERTICES:
            assert (eta - p) @ (v - p) <= 1e-9


def test_project_matches_grid_oracle(rng):
    checked = 0
    while checked < 30:
        eta = rng.uniform(-1, 1, 3)
        if qg.in_D(eta):
            continue
        p = qg.project_to_D(eta)
        o = grid_project_oracle(eta)
        assert np.linalg.norm(p - o) < 2e-3
        checked += 1


def _exterior_points_near_boundary(rng):
    """Points just outside D near its faces, edges and vertices: a boundary
    point pushed out along an outward direction of its normal cone."""
    pts = []
    for _ in range(100):
        for n_active in (1, 2, 3):
            faces = rng.choice(4, size=n_active, replace=False)
            w = np.zeros(4)
            inner = np.setdiff1d(np.arange(4), faces)
            w[inner] = rng.dirichlet(np.ones(len(inner)))
            x = geometry.VERTICES.T @ w
            out = rng.uniform(0.01, 1.0, n_active) @ geometry.FACE_NORMALS[faces]
            pts.append(x + rng.uniform(1e-6, 0.5) * out / np.linalg.norm(out))
    return pts


def test_project_vertex_optimality_near_boundary(rng):
    for y in _exterior_points_near_boundary(rng):
        x = qg.project_to_D(y)
        assert face_slack(x) <= 1e-12
        assert np.max((geometry.VERTICES - x) @ (y - x)) <= 1e-12


def _slice_vertices(free, fixed):
    """Vertices of D within the slice: points where the pinning rows and
    enough face constraints meet, found by direct solves."""
    pins = np.eye(3)[~free]
    verts = []
    for faces in combinations(range(4), int(np.sum(free))):
        G = np.vstack([pins, geometry.FACE_NORMALS[list(faces)]])
        if abs(np.linalg.det(G)) < 1e-12:
            continue
        v = np.linalg.solve(G, np.concatenate([fixed, np.ones(len(faces))]))
        if face_slack(v) <= 1e-12:
            verts.append(v)
    return np.array(verts)


def test_project_constrained_vertex_optimality(rng):
    for _ in range(300):
        free = rng.random(3) < 0.5
        if free.all():
            continue
        fixed = random_eta_in_D(rng)[~free]
        y = rng.uniform(-1.5, 1.5, 3)
        x = qg.project_constrained(y, free, fixed)
        assert face_slack(x) <= 1e-12
        assert np.array_equal(x[~free], fixed)
        verts = _slice_vertices(free, fixed)
        assert np.max((verts - x) @ (y - x)) <= 1e-12


def test_project_constrained_pancake_slice():
    p = qg.project_constrained([1, 1, 0], [True, True, False], [0.0])
    assert np.max(np.abs(p - [0.5, 0.5, 0.0])) < 1e-12


def test_project_constrained_fixed_point(rng):
    eta = random_eta_in_D(rng)
    p = qg.project_constrained(eta, [True, True, False], [eta[2]])
    assert np.max(np.abs(p - eta)) < 1e-9


def test_exact_oracle_matches_projection(rng):
    for y in list(rng.uniform(-1.5, 1.5, (500, 3))) + _exterior_points_near_boundary(rng):
        if not qg.in_D(y):
            assert np.linalg.norm(qg.project_to_D(y) - exact_project_oracle(y)) < 1e-12


def test_simplex_oracle_matches_projection():
    V = geometry.VERTICES
    assert np.array_equal(V @ V.T, 4.0 * np.eye(4) - 1.0)
    rng = np.random.default_rng(1016)
    etas = np.concatenate([rng.uniform(-1.5, 1.5, (8000, 3)), rng.uniform(-1.0, 1.0, (8000, 3)),
                           rng.uniform(-1.5, 1.5, (4000, 1)) * V[rng.integers(0, 4, 4000)]])
    got = np.array([qg.project_to_D(eta) for eta in etas])
    assert np.linalg.norm(got - simplex_project_oracle(etas), axis=1).max() <= 1e-15


def test_far_projection_matches_oracle_or_raises():
    """A KKT candidate's rounding error grows as eps * |eta|, against the absolute
    FACE_TOL: up to max|eta_k| = 1e6 projections match the simplex oracle, and
    beyond it, where a wrong candidate can pass that check, they raise OutsideCube."""
    rng = np.random.default_rng(1017)
    u = rng.standard_normal((2000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    got = np.array([qg.project_to_D(1e6 * x) for x in u])
    assert np.linalg.norm(got - simplex_project_oracle(1e6 * u), axis=1).max() <= 1e-9
    qg.project_to_D([1e6, 0.0, 0.0])
    for y in [[np.nextafter(1e6, 2e6), 0.0, 0.0], *(5e6 * u)]:
        with pytest.raises(OutsideCube):
            qg.project_to_D(y)
    with pytest.raises(OutsideCube):
        qg.project_constrained([5e6, 0.0, 0.0], [True, True, False], [0.0])


def test_project_constrained_edge_slice_vs_grid():
    # slice x = -1 meets D in the edge between the y- and z-rotations
    y = np.array([-1.0, -1.0, -1.0])
    p = qg.project_constrained(y, [False, True, True], [-1.0])
    assert np.max(np.abs(p - [-1.0, 0.0, 0.0])) < 1e-9
    # exact oracle: the nearest point of that edge
    ry, rz = geometry.VERTICES[2], geometry.VERTICES[3]
    assert np.linalg.norm(p - segment_nearest(y, ry, rz)) < 1e-12
    # dense grid oracle over the slice, coarse pass then 1e-4 refinement
    best, best_d = None, np.inf
    for h, (y0, y1) in ((1e-2, (-1.0, 1.0)), (1e-4, (-0.02, 0.02))):
        for y in np.arange(y0, y1 + h / 2, h):
            for z in np.arange(y0, y1 + h / 2, h):
                cand = np.array([-1.0, y, z])
                if face_slack(cand) > 1e-12:
                    continue
                d = np.sum((cand - np.array([-1.0, -1.0, -1.0])) ** 2)
                if d < best_d:
                    best_d, best = d, cand
    assert np.linalg.norm(p - best) < 2e-4


def test_project_constrained_empty_slice():
    with pytest.raises(EmptyIntersection):
        qg.project_constrained([0, 0, 0], [True, True, False], [-1.5])
    with pytest.raises(EmptyIntersection):
        qg.project_constrained([0, 0, 0], [False, True, True], [2.0])


def test_project_constrained_pin_tolerance():
    """Pins are substituted, not solved for: a pin within FACE_TOL / 2 of the
    cube's face comes back bit for bit (the face slacks of (pin, 0, 0) are
    FACE_TOL / 2), one past 1 + FACE_TOL misses D, and so do the far values."""
    for sign in (1.0, -1.0):
        pin = sign * (1 + 0.5 * FACE_TOL)
        eta = qg.project_constrained([0, 0, 0], [False, True, True], [pin])
        assert eta.tobytes() == np.array([pin, 0.0, 0.0]).tobytes()
        for v in (1 + 1.5 * FACE_TOL, 1 + 2.5 * FACE_TOL, 1.5, 2.0, np.nextafter(2.0, 3.0), 1e6):
            with pytest.raises(EmptyIntersection):
                qg.project_constrained([0, 0, 0], [False, True, True], [sign * v])
    with pytest.raises(EmptyIntersection):  # all pinned: the slice is the point, checked as in_D
        qg.project_constrained([0, 0, 0], [False, False, False], [1.0, 1.0, 1 + 1.5 * FACE_TOL])


def test_project_constrained_matches_exact_oracle():
    """Over every pin pattern, the free coordinates are within 1e-15 of the exact
    projection, the pins come back bit for bit, and a slice misses D exactly when
    the exact oracle finds it empty."""
    rng = np.random.default_rng(2121)
    patterns = [np.array(f) for f in product((True, False), repeat=3) if not all(f)]
    empty = 0
    for k in range(300):
        free = patterns[k % len(patterns)]
        y, pins = rng.uniform(-1.6, 1.6, 3), rng.uniform(-1.05, 1.05, np.count_nonzero(~free))
        exact = exact_constrained_oracle(y, free, pins)
        if exact is None:
            empty += 1
            with pytest.raises(EmptyIntersection):
                qg.project_constrained(y, free, pins)
            continue
        x = qg.project_constrained(y, free, pins)
        assert x[~free].tobytes() == pins.tobytes()
        assert max(abs(float(Fraction(v) - e)) for v, e in zip(x.tolist(), exact)) <= 1e-15
    assert 0 < empty < 100


def test_project_constrained_keeps_negative_zero_pin():
    for free, pins in (([True, True, False], [-0.0]), ([False, True, False], [-0.0, -0.0]),
                       ([False, False, False], [-0.0, 0.5, -0.0])):
        x = qg.project_constrained([0.9, -0.9, 0.3], free, pins)
        assert x[~np.array(free)].tobytes() == np.array(pins).tobytes()


def test_project_constrained_ignores_far_pinned_coordinate():
    """A pinned coordinate of eta is replaced by its pin before any arithmetic,
    so a value beyond the 1e6 projection limit does not matter."""
    for far in (1e7, -1e300, 1.7e308):
        x = qg.project_constrained([far, 1.0, 1.0], [False, True, True], [0.0])
        assert x.tobytes() == qg.project_constrained([0.0, 1.0, 1.0], [False, True, True], [0.0]).tobytes()
        assert np.allclose(x, [0.0, 0.5, 0.5], rtol=0.0, atol=1e-15)


# ----------------------------------------------------------- composition

def test_compose():
    x = np.array([0.3, -0.2, 0.9])
    assert np.allclose(qg.compose([1, 1, 1], x), x)
    assert np.allclose(qg.compose([-1, 1, -1], [1, -1, 1]), [-1, -1, -1])
    assert np.allclose(qg.compose([1, -1, 1], [1, -1, 1]), [1, 1, 1])


def test_corner_transpose_identities():
    # each non-CP corner is a tetrahedron vertex composed with transpose
    seen = []
    for corner in geometry.NONCP_CORNERS:
        cp2 = qg.compose(corner, geometry.TRANSPOSE_ETA)
        assert any(np.array_equal(cp2, v) for v in geometry.VERTICES)
        assert np.array_equal(qg.compose(cp2, geometry.TRANSPOSE_ETA), corner)
        seen.append(tuple(cp2))
    assert len(set(seen)) == 4


# -------------------------------------------------- positive-map splitting

def test_constants_read_only():
    """The module constants are shared by every call: a write raises, and a split
    whose corner a caller tried to change comes out the same the next time."""
    first = qg.sw_decompose([-0.9, -0.8, -0.7])
    with pytest.raises(ValueError, match="read-only"):
        first.corner[0] = 5.0
    for constant in (geometry.VERTICES, geometry.FACE_NORMALS, geometry.NONCP_CORNERS,
                     geometry.TRANSPOSE_ETA, linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z,
                     linalg.PAULIS):
        with pytest.raises(ValueError, match="read-only"):
            constant[0] = 0.0
    again = qg.sw_decompose([-0.9, -0.8, -0.7])
    for name in ("p", "cp1", "corner", "cp2"):
        assert np.array_equal(getattr(again, name), getattr(first, name))
    assert again.p == 0.3 and np.array_equal(again.corner, [-1.0, -1.0, -1.0])


def test_sw_decompose_corner():
    dec = qg.sw_decompose([-1, -1, -1])
    assert abs(dec.p) < 1e-12
    assert np.allclose(dec.cp2, [-1, 1, -1])
    assert np.max(np.abs(dec.reconstruct() - [-1, -1, -1])) < 1e-12


def test_sw_decompose_near_corner():
    dec = qg.sw_decompose([-0.9, -0.9, -0.9])
    assert abs(dec.p - 0.15) < 1e-12
    assert np.max(np.abs(dec.cp1 - [-1 / 3] * 3)) < 1e-12
    assert np.max(np.abs(dec.reconstruct() - [-0.9, -0.9, -0.9])) < 1e-12


def test_sw_decompose_close_to_every_corner():
    # eta - corner is exact here, where (eta - lam corner) / (1 - lam) lost
    # cp1 to rounding: face slack up to 2.2e-3 at a = 1e-13
    for corner in geometry.NONCP_CORNERS:
        for a in (1e-9, 1e-12, 1e-13):
            eta = corner * np.array([1.0, 1.0 - a, 1.0 - a])
            dec = qg.sw_decompose(eta)
            assert np.max(geometry.FACE_NORMALS @ dec.cp1 - 1.0) <= FACE_TOL
            assert 0.0 <= dec.p <= 1.0
            assert np.max(np.abs(dec.reconstruct() - eta)) <= 1e-15
        dec = qg.sw_decompose(corner)
        assert str(dec.p) == "0.0" and np.array_equal(dec.cp1, corner / 3.0)
        assert np.array_equal(dec.reconstruct(), corner)


def test_sw_decompose_interior():
    dec = qg.sw_decompose([0, 0, 0])
    assert dec.p == 1.0
    assert np.allclose(dec.cp1, [0, 0, 0])


def test_sw_decomposition_built_from_lists():
    """The constructor reads each part as 3 floats, as sw_decompose builds them."""
    dec = qg.SWDecomposition(0.5, [1, 1, 1], [-1, -1, -1], [1, -1, 1])
    assert dec.reconstruct().tolist() == [1.0, 1.0, 1.0]


def test_sw_decompose_just_beyond_the_cube():
    # corners scaled past the cube, and a point past the face x = 1: within
    # FACE_TOL of the cube the split is valid, beyond it OutsideCube is raised;
    # 1 + 1e-9 rounds to 1.00000008e-9 past the cube, so those corners raise
    cases = [(c * (1 + d), d) for d in (1e-13, 5e-10, 1e-9) for c in geometry.NONCP_CORNERS]
    cases.append((np.array([1 + 5e-10, 0.3, 0.2]), 5e-10))
    for eta, excess in cases:
        positive = qg.is_positive_unital(qg.AffineChannel.from_eta(eta))
        assert positive == (np.max(np.abs(eta)) - 1.0 <= FACE_TOL)
        if not positive:
            with pytest.raises(OutsideCube):
                qg.sw_decompose(eta)
            continue
        dec = qg.sw_decompose(eta)
        assert 0.0 <= dec.p < 1.0
        assert qg.in_D(dec.cp1) and qg.in_D(dec.cp2)
        assert np.max(np.abs(dec.reconstruct() - eta)) <= 2 * excess
    assert sum(qg.is_positive_unital(qg.AffineChannel.from_eta(eta)) for eta, _ in cases) == 9


def test_sw_decompose_random_cube(rng):
    for eta in rng.uniform(-1, 1, (1000, 3)):
        dec = qg.sw_decompose(eta)
        assert 0.0 <= dec.p <= 1.0
        assert qg.in_D(dec.cp1)
        assert any(np.array_equal(dec.cp2, v) for v in geometry.VERTICES)
        assert np.max(np.abs(dec.reconstruct() - eta)) < 1e-12


def test_non_finite_eta_rejected():
    bad = [np.nan, 0.0, 0.0]
    for op in (qg.project_to_D, qg.sw_decompose, qg.pauli_weights, qg.in_D):
        with pytest.raises(NonFiniteInput):
            op(bad)
    with pytest.raises(NonFiniteInput):
        qg.project_constrained([0, np.inf, 0], [True, True, False], [0.0])
    with pytest.raises(NonFiniteInput):
        qg.project_constrained([1, 1, 0], [True, True, False], [np.nan])
    four = qg.Protocol.FOUR_STATE
    for bad in ([np.nan, 0.0, np.nan], [np.inf, 0.0, np.inf]):
        for op in (lambda eta: qg.overlap(four, eta), lambda eta: qg.success_probability(four, eta),
                   qg.probe_overlaps_dilation):
            with pytest.raises(NonFiniteInput):
                op(bad)


def test_bad_eta_shape_rejected():
    with pytest.raises(BadDimension):
        qg.pauli_weights([0.0, 0.0])
    for free, fixed in (([True, False], [0.0]), ([True, True, False], [0.0, 1.0]),
                        ([True, False, False], [0.0])):
        with pytest.raises(BadDimension):
            qg.project_constrained([0, 0, 0], free, fixed)


def test_sw_decompose_outside_cube():
    with pytest.raises(OutsideCube):
        qg.sw_decompose([1.5, 0, 0])
