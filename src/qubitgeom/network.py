"""Quantum-network simulation of unital single-qubit channels.

Any unital channel factors (see channel.canonical_form) into a rotation, a
diagonal map delta, and another rotation; it is CP exactly when delta lies
in the tetrahedron D, and then delta is a Pauli mixture whose weights are
the Choi eigenvalues of the channel. The network realises the mixture with
an ancilla register prepared in a superposition whose amplitude-squares are
the mixture weights. Only those weights matter for the induced channel, so
NetworkSpec stores the weights.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import channel as qchannel
from . import geometry
from .errors import (BadDimension, DisturbanceOutOfRange, NotUnital, UnphysicalBloch,
                     WeightsNotNormalized)
from .linalg import ORTHO_TOL, _det3, _freeze, _real, _trusted, _unit_sum, _Value


class NetworkSpec(_Value):
    """Compiled network: pre-rotation u1, Pauli-mixture weights (p_I, p_x,
    p_y, p_z), post-rotation u2 (rotations act on Bloch vectors). The JSON
    form carries the ancilla amplitudes sqrt(weights) in place of weights."""

    u1: np.ndarray
    u2: np.ndarray
    weights: np.ndarray

    def __init__(self, u1, u2, weights):
        w = _freeze(self, "weights", weights, (4,)).tolist()
        if min(w) < 0.0:
            raise WeightsNotNormalized("weights must be nonnegative")
        _unit_sum(w, "weights")
        for M in (_freeze(self, "u1", u1, (3, 3)), _freeze(self, "u2", u2, (3, 3))):
            if not (max(map(abs, M.ravel().tolist())) <= 1.0 + ORTHO_TOL  # M.T @ M cannot overflow
                    and np.max(np.abs(M.T @ M - np.eye(3))) <= ORTHO_TOL and _det3(M) >= 0):
                raise UnphysicalBloch("u1, u2 must be proper rotations")

    def to_json(self) -> dict:
        return {"u1": self.u1.tolist(), "u2": self.u2.tolist(),
                "amplitudes": np.sqrt(self.weights).tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "NetworkSpec":
        if not (isinstance(obj, dict) and {"u1", "u2", "amplitudes"} <= obj.keys()):
            raise BadDimension("network JSON needs an object with u1, u2 and amplitudes")
        for key in ("u1", "u2", "amplitudes"):  # channel_from_json's rule: no boolean, no string
            if not qchannel._numbers(obj[key]):
                raise BadDimension(f"{key} must hold JSON numbers only")
        amplitudes = _real(obj["amplitudes"], "amplitudes", (4,)).tolist()  # a * a: inf, no warning
        return cls(obj["u1"], obj["u2"], [a * a for a in amplitudes])


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
    delta, Q, R = ch._factors
    weights = geometry._cp_weights(delta, "channel is not CP (Choi min eigenvalue {least:.3e})")
    return _trusted(NetworkSpec, u1=Q.T.dot(R), u2=Q, weights=weights / np.add.reduce(weights))


def run_exact(spec: NetworkSpec, rho0: np.ndarray) -> np.ndarray:
    """Exact (density-matrix) execution of the network."""
    return qchannel._density(_act(spec, spec.weights, rho0))


def _act(spec: NetworkSpec, p: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """The network's action u2 . (eta(p) * (u1 . s)), p branch weights, s the Bloch vector of rho0."""
    return spec.u2.dot(geometry._eta(p) * spec.u1.dot(qchannel.density_to_bloch(rho0)))


def run_sampled(spec: NetworkSpec, rho0: np.ndarray, n: int,
                seed: int) -> tuple[np.ndarray, float]:
    """Monte Carlo execution: sample mixture branches and average, converging
    to run_exact at the usual 1/sqrt(n) rate.

    Deterministic for a fixed seed (numpy default_rng, PCG64). n and seed are
    integers with 1 <= n < 2**63 and seed >= 0. Returns the averaged density
    matrix and a multinomial standard-error estimate.
    """
    try:
        n, seed = operator.index(n), operator.index(seed)  # numpy integers pass; 2.0 does not
    except TypeError:
        raise BadDimension(f"n and seed must be integers, got {n!r} and {seed!r}") from None
    if not (1 <= n < 2**63 and seed >= 0):
        raise DisturbanceOutOfRange(f"need 1 <= n < 2**63 and seed >= 0, got {n} and {seed}")
    rng = np.random.default_rng(seed)
    p_hat = rng.multinomial(n, spec.weights / np.add.reduce(spec.weights)) / n  # branch frequencies
    s_avg = _act(spec, p_hat, rho0)
    # Convexity keeps |s_avg| <= |s| <= 1, s the Bloch vector of rho0, up to float fuzz.
    norm = math.hypot(*s_avg.tolist())
    if norm > 1.0:
        s_avg = s_avg / norm
    stderr = math.sqrt(max(0.0, 1.0 - np.add.reduce(p_hat**2)) / n)
    return qchannel._density(s_avg), stderr


def induced_channel(spec: NetworkSpec) -> qchannel.AffineChannel:
    """Affine channel implemented by the network (for roundtrip checks)."""
    delta = np.diag(geometry._eta(spec.weights))
    return qchannel.AffineChannel(spec.u2 @ delta @ spec.u1)
