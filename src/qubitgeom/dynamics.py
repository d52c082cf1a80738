"""Dynamical generation of diagonal unital channels.

Coupling a qubit to a four-dimensional ancilla with a fixed Hamiltonian

    H = alpha_x sx (x) (|a1><a2| + h.c.)
      + alpha_y sy (x) (|a1><a3| + h.c.)
      + alpha_z sz (x) (|a1><a4| + h.c.),      alpha_x^2+alpha_y^2+alpha_z^2 = 1,

and tracing out the ancilla after a time t produces the diagonal channel

    eta(t) = (1,1,1) cos^2 t + (2 alpha^2 - 1) sin^2 t        (hbar = 1),

a straight line in eta-space from the identity vertex to a point on the
opposite face of the tetrahedron. Conversely any CP point is reachable by
choosing the couplings and the time, which `design_coupling` inverts in
closed form. `simulate_reduced` runs the full 8-dimensional unitary and
serves as the independent oracle for the closed form.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import channel as qchannel
from . import geometry, linalg, serialize
from .errors import BadDimension, WeightsNotNormalized
from .linalg import ROUND_TOL, _freeze, _real, _trusted, _unit_sum, _Value

_ANCILLA_DIM = 4


# Axis i holds sigma_i (x) (|a1><a(i+2)| + h.c.); H is alpha . _GENERATORS.
_E = np.eye(_ANCILLA_DIM, dtype=complex)
_GENERATORS = np.array([np.kron(sigma, np.outer(_E[0], _E[i]) + np.outer(_E[i], _E[0]))
                        for i, sigma in enumerate(linalg.PAULIS) if i])


class CouplingSpec(_Value):
    """Normalised coupling strengths (alpha_x, alpha_y, alpha_z)."""

    alpha: np.ndarray

    def __init__(self, alpha):
        a = _freeze(self, "alpha", alpha, (3,)).tolist()
        _unit_sum([x * x for x in a], "squared couplings")  # Python floats: inf, no warning

    @classmethod
    def from_alpha2(cls, alpha2) -> "CouplingSpec":
        """Build from the squared couplings (nonnegative, summing to 1)."""
        a2 = _real(alpha2, "alpha^2", (3,))
        if np.any(a2 < -ROUND_TOL):
            raise WeightsNotNormalized("squared couplings must be nonnegative")
        return cls(np.sqrt(np.clip(a2, 0.0, None)))

    @cached_property  # alpha is read-only; simulate_reduced's eigendecomposition
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(total_hamiltonian(self))  # Hermitian by construction


def eta_of_t(spec: CouplingSpec, t) -> np.ndarray:
    """Closed-form channel parameters after evolving for time t: shape (3,)
    for a scalar t, (..., 3) for an array of times."""
    return _eta_of_t(spec, _real(t, "times"))


def _eta_of_t(spec: CouplingSpec, t: np.ndarray) -> np.ndarray:
    c = (2.0 * spec.alpha**2 - 1.0).reshape(-1, *[1] * t.ndim)  # (3, n) broadcasts faster
    return (np.cos(t) ** 2 + np.sin(t) ** 2 * c).transpose(*range(1, t.ndim + 1), 0)


def design_coupling(target) -> tuple[CouplingSpec, float]:
    """Couplings and time that generate a given CP diagonal channel.

    Inverts eta_of_t through the Pauli weights (p_I, p_x, p_y, p_z) of the
    target: eta_of_t is the mixture with p_I = cos^2(t) and p_k =
    sin^2(t) alpha_k^2, so sin^2(t) = 1 - p_I and alpha^2 is (p_x, p_y,
    p_z) renormalised. Returns t in [0, pi/2]; the identity target is
    degenerate and yields t = 0 with the conventional coupling (1, 0, 0).
    """
    p = geometry._cp_weights(_real(target, "eta", (3,)), "target {} is not a CP diagonal channel",
                             target)
    s2 = 1.0 - float(p[0])  # <= 1: p_I is clipped at 0
    if s2 <= 1e-15:
        return _trusted(CouplingSpec, alpha=np.array([1.0, 0.0, 0.0])), 0.0
    t = float(np.arcsin(math.sqrt(s2)))
    return _trusted(CouplingSpec, alpha=np.sqrt(p[1:] / np.add.reduce(p[1:]))), t


def total_hamiltonian(spec: CouplingSpec) -> np.ndarray:
    """The 8-dimensional coupling Hamiltonian (qubit (x) ancilla)."""
    return spec.alpha.dot(_GENERATORS.reshape(3, -1)).reshape(8, 8)  # tensordot's product


def simulate_reduced(spec: CouplingSpec, t: float, rho0: np.ndarray) -> np.ndarray:
    """Full-Hilbert-space evolution: evolve rho0 (x) |a1><a1| by
    exp(-iHt) and trace out the ancilla."""
    t = float(_real(t, "time", ()))
    qchannel.density_to_bloch(rho0)  # rejects all but a 2x2 density matrix
    # rho0 (x) |a1><a1| is zero off rows and columns 0 and 4, so it evolves to
    # V rho0 V^H with V the columns 0 and 4 of the full unitary
    if spec.__dict__.get("_t") != t.hex():  # keep the last t's V and V^H, as _eig is kept
        V = linalg._exp_eig(*spec._eig, t)[:, ::_ANCILLA_DIM]
        spec.__dict__.update(_t=t.hex(), _V=V, _VH=V.conj().T)
    evolved = spec._V @ np.asarray(rho0, dtype=complex) @ spec._VH
    return linalg._trace_ancilla(evolved, _ANCILLA_DIM)


class Trajectory(_Value):
    """Sampled path t -> eta(t) in channel-parameter space."""

    times: np.ndarray
    etas: np.ndarray  # shape (n, 3)

    def __init__(self, times, etas):
        times = _freeze(self, "times", times, (-1,))
        _freeze(self, "etas", etas, (len(times), 3))


def trajectory(spec: CouplingSpec, t_grid) -> Trajectory:
    """Evaluate eta_of_t over an ascending 1-D grid of times."""
    t_grid = _real(t_grid, "time grid", (-1,))
    if np.logical_or.reduce(t_grid[1:] < t_grid[:-1]):
        raise BadDimension("time grid must be ascending")
    return _trusted(Trajectory, times=t_grid.copy(), etas=_eta_of_t(spec, t_grid))


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV rendering: header t,eta_x,eta_y,eta_z and one row per sample, each
    float as format(v, ".17g") writes it."""
    table = np.empty((len(traj.times), 4))  # C order, read uncopied; column_stack's is F
    table[:, 0], table[:, 1:] = traj.times, traj.etas
    return serialize._csv_17g("t,eta_x,eta_y,eta_z", table)
