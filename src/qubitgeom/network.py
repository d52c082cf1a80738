"""Quantum-network simulation of unital single-qubit channels.

Any unital channel factors (see channel.canonical_form) into a rotation, a
diagonal map delta, and another rotation; it is CP exactly when delta lies
in the tetrahedron D, and then delta is a Pauli mixture whose weights are
the Choi eigenvalues of the channel. The network realises the mixture with
an ancilla register prepared in a superposition whose amplitude-squares are
the mixture weights. Only those weights matter for the induced channel, so
NetworkSpec stores the weights; the real, nonnegative amplitudes sqrt(weight)
appear only in its JSON form.

run_exact applies the three stages on the density matrix directly;
run_sampled draws mixture branches with a seeded generator (numpy PCG64)
and averages, converging to run_exact at the usual 1/sqrt(n) rate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import channel as qchannel
from . import geometry
from .errors import BadDimension, NotCP, NotUnital, QubitGeomError, WeightsNotNormalized
from .linalg import FACE_TOL, ORTHO_TOL, ROUND_TOL, _det3, _freeze, _real, _trusted


@dataclass(frozen=True)
class NetworkSpec:
    """Compiled network: pre-rotation u1, Pauli-mixture weights (p_I, p_x,
    p_y, p_z), post-rotation u2 (rotations act on Bloch vectors). The JSON
    form carries the ancilla amplitudes sqrt(weights) in place of weights."""

    u1: np.ndarray
    u2: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        w = _freeze(self, "weights", (4,))
        if not (np.all(w >= 0.0) and abs(np.sum(w) - 1.0) <= ROUND_TOL):
            raise WeightsNotNormalized("weights must be nonnegative with unit sum")
        for M in (_freeze(self, "u1", (3, 3)), _freeze(self, "u2", (3, 3))):
            if not (np.max(np.abs(M.T @ M - np.eye(3))) <= ORTHO_TOL and _det3(M) >= 0):
                raise QubitGeomError("u1, u2 must be proper rotations")

    def to_json(self) -> dict:
        return {"u1": self.u1.tolist(), "u2": self.u2.tolist(),
                "amplitudes": np.sqrt(self.weights).tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "NetworkSpec":
        if not (isinstance(obj, dict) and {"u1", "u2", "amplitudes"} <= obj.keys()):
            raise BadDimension("network JSON needs an object with u1, u2 and amplitudes")
        return cls(obj["u1"], obj["u2"], _real(obj["amplitudes"], "amplitudes", (4,)) ** 2)


def compile_channel(ch: qchannel.AffineChannel) -> NetworkSpec:
    """Compile a unital CP channel into the rotation/mixture/rotation form.

    A diagonal channel compiles without rotations; any other is factored as
    A = Q diag(delta) Q^T R, once per channel, as is_cp reads it. The Pauli
    weights of delta are its Choi eigenvalues; NotCP reports the smallest. No
    sign flip can rescue a delta outside D: flipping two signs of delta permutes
    the face normals of D, so the flipped delta has the same face slacks.
    """
    if not ch.is_unital:
        raise NotUnital("the network realises unital channels only")
    delta, u1, u2 = ch._factors
    p = geometry._weights(delta)
    slack = geometry._slack(p)
    if slack > FACE_TOL:
        raise NotCP(f"channel is not CP (Choi min eigenvalue {-slack / 4.0:.3e})")
    weights = np.maximum(p, 0.0)
    return _trusted(NetworkSpec, u1=u1, u2=u2, weights=weights / weights.sum())


def run_exact(spec: NetworkSpec, rho0: np.ndarray) -> np.ndarray:
    """Exact (density-matrix) execution of the network."""
    s = spec.u1 @ qchannel.density_to_bloch(rho0)
    s = (geometry.VERTICES.T @ spec.weights) * s
    s = spec.u2 @ s
    return qchannel._density(s)


def run_sampled(spec: NetworkSpec, rho0: np.ndarray, n: int,
                seed: int) -> tuple[np.ndarray, float]:
    """Monte Carlo execution: sample mixture branches and average.

    Deterministic for a fixed seed (numpy default_rng, PCG64). n and seed are
    integers with 1 <= n < 2**63 and seed >= 0. Returns the averaged density
    matrix and a multinomial standard-error estimate.
    """
    try:
        n, seed = operator.index(n), operator.index(seed)  # numpy integers pass; 2.0 does not
    except TypeError:
        raise QubitGeomError(f"n and seed must be integers, got {n!r} and {seed!r}") from None
    if not (1 <= n < 2**63 and seed >= 0):
        raise QubitGeomError(f"need 1 <= n < 2**63 and seed >= 0, got {n} and {seed}")
    rng = np.random.default_rng(seed)
    p_hat = rng.multinomial(n, spec.weights / spec.weights.sum()) / n  # branch frequencies
    s0 = spec.u1 @ qchannel.density_to_bloch(rho0)
    s_avg = spec.u2 @ ((p_hat @ geometry.VERTICES) * s0)
    # Convexity keeps |s_avg| <= |s0| <= 1 up to float fuzz.
    norm = math.sqrt(s_avg.dot(s_avg))  # np.linalg.norm to the bit
    if norm > 1.0:
        s_avg = s_avg / norm
    stderr = math.sqrt(max(0.0, 1.0 - (p_hat**2).sum()) / n)
    return qchannel._density(s_avg), stderr


def induced_channel(spec: NetworkSpec) -> qchannel.AffineChannel:
    """Affine channel implemented by the network (for roundtrip checks)."""
    delta = np.diag(geometry.VERTICES.T @ spec.weights)
    return qchannel.AffineChannel(spec.u2 @ delta @ spec.u1, np.zeros(3))
