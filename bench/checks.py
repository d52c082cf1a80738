"""Independent checks of qubitgeom answers.

Nothing here imports qubitgeom: every expected value is recomputed from the
paper's geometry with plain numpy, so a check cannot agree with the program
by sharing its code. Each check raises CheckFailed with a short reason.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# D = {eta : n . eta <= 1 for every row n}; vertex k is opposite face k.
FACE_NORMALS = np.array([[-1.0, -1.0, -1.0], [-1.0, 1.0, 1.0],
                         [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
VERTICES = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                     [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
SIGMAS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

D_TOL = 1e-9          # face slack accepted as "in D"
EXACT_TOL = 1e-9      # closed forms and reconstructions
# Hoeffding: each of the three Bloch components of a mean of n draws bounded
# by |s_j| deviates by more than |s_j| sqrt(2 ln(2/1e-15) / n) with
# probability below 1e-15, so the whole vector stays within this many
# |s| / sqrt(n) of its expectation except with probability below 1e-14.
SAMPLED_SIGMAS = math.sqrt(2.0 * math.log(2.0 / 1e-15))


class CheckFailed(AssertionError):
    pass


class KnownFault(Exception):
    """An answer shows a fault the program is known to have on a fixed,
    seed-independent input: the operation counts as failed, not as wrong."""


def require(cond, what: str):
    if not cond:
        raise CheckFailed(what)


def close(a, b, tol: float, what: str):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    err = float(np.max(np.abs(a - b))) if a.size else 0.0
    require(np.all(np.isfinite(a)) and err <= tol, f"{what}: error {err:.3e} > {tol:.1e}")


def face_slack(eta) -> float:
    """max_n n . eta - 1: <= 0 inside D, > 0 outside."""
    return float(np.max(FACE_NORMALS @ np.asarray(eta, dtype=float))) - 1.0


def in_d(eta, tol: float = D_TOL) -> bool:
    return face_slack(eta) <= tol


def bloch_of(rho) -> np.ndarray:
    """s_i = Tr(rho sigma_i)."""
    rho = np.asarray(rho, dtype=complex)
    return np.real(np.einsum("ij,kji->k", rho, SIGMAS))


def density_of(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return 0.5 * (np.eye(2) + np.einsum("k,kij->ij", s, SIGMAS))


def rotation(R, what: str):
    R = np.asarray(R, dtype=float)
    require(R.shape == (3, 3), f"{what}: shape {R.shape}")
    close(R.T @ R, np.eye(3), 1e-9, f"{what}: not orthogonal")
    require(np.linalg.det(R) > 0, f"{what}: not proper")


# -- channel layer -----------------------------------------------------------

def cp_verdict(flag, min_eig, cp_truth: bool, eta_slack: float | None = None):
    """is_cp must agree with the constructed truth; for a diagonal map the
    minimum Choi eigenvalue is also known in closed form, -slack / 4."""
    require(bool(flag) == cp_truth, f"is_cp says {flag}, construction says {cp_truth}")
    if eta_slack is not None:
        close(min_eig, -eta_slack / 4.0, 1e-12, "Choi minimum eigenvalue")


def canonical(Q, delta, R, A):
    rotation(Q, "canonical Q")
    rotation(R, "canonical R")
    close(np.asarray(Q) @ np.diag(delta) @ np.asarray(Q).T @ np.asarray(R), A,
          EXACT_TOL, "canonical form reconstruction")
    close(np.sort(np.abs(delta)), np.sort(np.linalg.svd(A, compute_uv=False)),
          EXACT_TOL, "canonical |delta| vs singular values")


def projection(x, y):
    """x is the Euclidean projection of y onto D iff x is in D and
    (y - x) . (v - x) <= 0 for every vertex v (D is their convex hull)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    require(x.shape == (3,) and np.all(np.isfinite(x)), "projection: bad shape")
    require(in_d(x), f"projection outside D by {face_slack(x):.3e}")
    worst = float(np.max((VERTICES - x) @ (y - x)))
    require(worst <= 1e-9, f"projection not optimal: (y-x).(v-x) = {worst:.3e}")


def sw_split(p, cp1, cp2, eta):
    """eta = p cp1 + (1 - p) (cp2 o transpose), p in [0, 1], cp1, cp2 in D."""
    require(0.0 <= p <= 1.0, f"sw p = {p} outside [0, 1]")
    require(in_d(cp1) and in_d(cp2), "sw parts outside D")
    recon = p * np.asarray(cp1) + (1.0 - p) * np.asarray(cp2) * np.array([1.0, -1.0, 1.0])
    close(recon, eta, EXACT_TOL, "sw reconstruction")


def network(u1, u2, weights, A):
    """A compiled network must satisfy u2 diag(V^T w) u1 = A."""
    rotation(u1, "network u1")
    rotation(u2, "network u2")
    w = np.asarray(weights, dtype=float)
    require(np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12, "network weights")
    close(np.asarray(u2) @ np.diag(VERTICES.T @ w) @ np.asarray(u1), A,
          1e-8, "network reconstruction")


def exact_output(rho, A, s):
    close(bloch_of(rho), np.asarray(A) @ s, EXACT_TOL, "run_exact output")


def sampled_output(bloch, A, s, n: int):
    dev = float(np.linalg.norm(np.asarray(bloch) - np.asarray(A) @ s))
    limit = SAMPLED_SIGMAS * float(np.linalg.norm(s)) / math.sqrt(n) + 1e-12
    require(dev <= limit, f"run_sampled off by {dev:.3e} > {limit:.3e}")


# -- dynamics and qkd ----------------------------------------------------------

def eta_closed_form(alpha2, t):
    """eta(t) = cos^2 t (1,1,1) + sin^2 t (2 alpha^2 - 1), for a scalar t or
    a grid of times (one row per time)."""
    t = np.asarray(t, dtype=float)[..., None]
    return np.cos(t) ** 2 + np.sin(t) ** 2 * (2.0 * np.asarray(alpha2) - 1.0)


def design(alpha, t, target):
    alpha = np.asarray(alpha, dtype=float)
    require(0.0 <= t <= math.pi / 2 + 1e-12, f"design t = {t} outside [0, pi/2]")
    close(np.sum(alpha ** 2), 1.0, 1e-12, "design alpha^2 sum")
    close(eta_closed_form(alpha ** 2, t), target, EXACT_TOL, "design reproduces target")


def reduced_state(rho, alpha2, t, s):
    close(bloch_of(rho), eta_closed_form(alpha2, t) * s, 1e-8, "simulate_reduced")


def trajectory(times, etas, alpha2, grid):
    close(times, grid, 0.0, "trajectory times")
    close(etas, eta_closed_form(alpha2, grid), EXACT_TOL, "trajectory etas")


def csv_rows(text: str, times, etas):
    """The CSV must carry the trajectory back exactly (17 digits round-trip)."""
    lines = text.split("\n")
    require(lines[0] == "t,eta_x,eta_y,eta_z" and lines[-1] == "", "csv framing")
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]])
    require(table.shape == (len(times), 4), f"csv shape {table.shape}")
    require(np.array_equal(table[:, 0], times) and np.array_equal(table[:, 1:], etas),
            "csv values do not round-trip")


def min_abs_overlap(four_state: bool, d: float) -> float:
    """Smallest |overlap| over the attacks allowed at disturbance d, from the
    geometry of D alone. The allowed channels are eta = (s, y, s) (four-state)
    or (s, s, s) (six-state) in D with s >= 1 - 2d: a convex polygon in
    (s, y), or a segment in s. The overlap (s + y) / 2, or s, is linear on
    it, so its smallest absolute value is 0 where it changes sign over the
    vertices, and otherwise the smallest over the vertices."""
    embed = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]) if four_state else np.ones((3, 1))
    c = np.array([0.5, 0.5]) if four_state else np.array([1.0])
    # constraints G x <= h: the faces of D, then -s <= -(1 - 2d)
    G = np.vstack([FACE_NORMALS @ embed, -np.eye(len(c))[:1]])
    h = np.concatenate([np.ones(4), [-(1.0 - 2.0 * d)]])
    values = []
    for rows in itertools.combinations(range(len(h)), len(c)):
        M = G[list(rows)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, h[list(rows)])
        if np.all(G @ x <= h + 1e-12):
            values.append(float(c @ x))
    require(values, f"no allowed attack at d = {d}")
    lo, hi = min(values), max(values)
    return 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))


def attack(report: dict, four_state: bool, d: float):
    """The report is an allowed attack, and its D, F, overlap and p_c follow
    from its eta: F = 1 - d, p_c = 1/2 + 1/2 sqrt(1 - ov^2 / F)."""
    eta = np.asarray(report["eta"], dtype=float)
    require(eta.shape == (3,) and in_d(eta), "attack channel outside D")
    if four_state:
        require(abs(eta[0] - eta[2]) <= 1e-12, "four-state attack not symmetric")
        ov = (eta[0] + eta[1]) / 2.0
    else:
        require(float(np.ptp(eta)) <= 1e-12, "six-state attack not symmetric")
        ov = eta[0]
    require(eta[0] >= 1.0 - 2.0 * d - 1e-12, "attack disturbs more than d")
    F = 1.0 - d
    p_c = 0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - ov * ov / F))
    close([report["D"], report["F"], report["overlap"], report["p_c"]],
          [d, F, ov, p_c], 1e-12, "attack D, F, overlap, p_c")


def attack_optimal(report: dict, four_state: bool, d: float):
    """The report's |overlap| is the smallest any allowed attack reaches."""
    best = min_abs_overlap(four_state, d)
    require(abs(report["overlap"]) <= best + 1e-12,
            f"attack |overlap| {abs(report['overlap']):.6f} > smallest {best:.6f}")


def dilation(F, D, ov, report: dict):
    close([F, D, ov], [report["F"], report["D"], report["overlap"]],
          1e-12, "dilation overlaps vs report")


def grid_optimum(grid_eta, four_state: bool, d: float, resolution: float):
    """The grid optimum is an allowed attack whose |overlap| is no better
    than the smallest allowed and worse by at most one grid step."""
    g = np.asarray(grid_eta, dtype=float)
    symmetric = abs(g[0] - g[2]) <= 1e-12 and (four_state or abs(g[0] - g[1]) <= 1e-12)
    require(g.shape == (3,) and in_d(g) and symmetric and g[0] >= 1.0 - 2.0 * d - 1e-9,
            "grid optimum infeasible")
    gov = abs(g[0] + g[1]) / 2.0 if four_state else abs(g[0])
    best = min_abs_overlap(four_state, d)
    require(best - 1e-9 <= gov <= best + resolution + 1e-12,
            f"grid |overlap| {gov:.6f} does not bracket {best:.6f}")
