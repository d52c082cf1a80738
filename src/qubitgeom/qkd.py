"""Symmetric incoherent eavesdropping on four-state and six-state QKD.

Eve couples a probe to each transmitted qubit; in a symmetric incoherent
attack the resulting channel between Alice and Bob is a Pauli channel with
eta_x = eta_z = eta (four-state) or eta_x = eta_y = eta_z = eta (six-state).
The disturbance D = (1 - eta) / 2 is the matched-basis error rate, the
fidelity F = 1 - D the matched-basis agreement rate, and Eve's probability
of correctly guessing an agreed bit from her probe is

    p_c = 1/2 + 1/2 sqrt(1 - overlap^2 / F),

where overlap = <E00|E11> is the inner product of the two probe states Eve
must discriminate. For the four-state protocol overlap = (eta + eta_y)/2,
so Eve pushes eta_y down to the tetrahedron boundary eta_y = 2 eta_min - 1
while eta_min >= 1/3 (disturbance at most 1/3); below that the boundary
passes eta_y = -eta_min, where the overlap vanishes and p_c = 1. For the
six-state protocol overlap = eta and no freedom remains. Disturbances up to
1/2 (nonnegative eta_min) are supported; success_probability rejects F <= 0.

The explicit probe dilation probe_overlaps_dilation and the grid search
brute_force_optimum, which binary-searches each grid row, are the
independent oracles for the closed forms.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import geometry
from .errors import DisturbanceOutOfRange, EmptyIntersection, SymmetryViolation, UnknownName
from .linalg import FACE_TOL, PAULIS, _freeze, _real, _trusted, _Value

_NX, _NY, _NZ = geometry.FACE_NORMALS.T[:, :, None]  # brute_force_optimum's, (face, row) each
_PREFIX = _NY[:, 0] > 0  # the faces whose test passes on a prefix of a grid row


class Protocol(enum.Enum):
    FOUR_STATE = "four-state"
    SIX_STATE = "six-state"


def _protocol(protocol) -> Protocol:
    """protocol as a Protocol: a member or its value. Raises UnknownName otherwise."""
    try:
        return Protocol(protocol)
    except ValueError:
        raise UnknownName(f"unknown protocol {protocol!r}") from None


class AttackReport(_Value):
    """Summary of a symmetric incoherent attack."""

    protocol: Protocol
    eta: np.ndarray
    disturbance: float
    fidelity: float
    overlap: float
    p_c: float

    def __init__(self, protocol, eta, disturbance, fidelity, overlap, p_c):
        self.__dict__["protocol"] = _protocol(protocol)
        for name, value in zip(self._fields[1:], (eta, disturbance, fidelity, overlap, p_c)):
            _freeze(self, name, value, (3,) if name == "eta" else ())

    def to_json(self) -> dict:
        return {"protocol": self.protocol.value, "eta": self.eta.tolist(), "D": self.disturbance,
                "F": self.fidelity, "overlap": self.overlap, "p_c": self.p_c}


def overlap(protocol: Protocol | str, eta) -> float:
    """Probe overlap <E00|E11>: (eta + eta_y)/2 four-state, eta six-state.
    Raises SymmetryViolation unless eta has the protocol's symmetry."""
    return _overlap(_protocol(protocol), _real(eta, "eta", (3,)))


def _overlap(protocol: Protocol, eta: np.ndarray) -> float:  # eta: 3 finite floats
    x, y, z = eta.tolist()
    if protocol is Protocol.FOUR_STATE and abs(x - z) > FACE_TOL:
        raise SymmetryViolation("four-state attacks need eta_x = eta_z")
    if protocol is Protocol.SIX_STATE and (abs(x - y) > FACE_TOL or abs(y - z) > FACE_TOL):
        raise SymmetryViolation("six-state attacks need eta_x = eta_y = eta_z")
    return x / 2.0 + y / 2.0 if protocol is Protocol.FOUR_STATE else x  # no x + y to overflow


def success_probability(protocol: Protocol | str, eta) -> float:
    """Eve's optimal guessing probability on matched, agreeing bits. Raises NotCP
    outside D, SymmetryViolation off the protocol's symmetry, DisturbanceOutOfRange
    at F = (1 + eta_x) / 2 <= 0, where p_c is 0/0 or above 1: only at the four-state
    vertex R_y (D = 1) and within FACE_TOL past it. Other D above 1/2 get a value."""
    protocol, eta = _protocol(protocol), _real(eta, "eta", (3,))
    geometry._cp_weights(eta, "attack channel {} is not CP", eta)
    return _p_c(_overlap(protocol, eta), float(eta[0]))


def _p_c(ov: float, eta_x: float) -> float:  # at fidelity F = (1 + eta_x) / 2
    F = (1.0 + eta_x) / 2.0
    if F <= 0.0:
        raise DisturbanceOutOfRange(f"fidelity {F} <= 0 leaves p_c undefined")
    return 0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - ov * ov / F))


def optimal_attack(protocol: Protocol | str, d_max: float) -> AttackReport:
    """Eve's best symmetric attack at disturbance budget d_max.

    Minimises |<E00|E11>| over the CP channels with symmetric component at
    least eta_min = 1 - 2 d_max; the minimiser sits on the tetrahedron
    boundary or, for d_max > 1/3, at overlap 0 (four-state), or is forced
    to eta = eta_min (six-state).
    """
    protocol, d_max = _protocol(protocol), float(_real(d_max, "d_max", ()))
    if not 0.0 <= d_max <= 0.5:
        raise DisturbanceOutOfRange(f"d_max {d_max} outside [0, 1/2]")
    eta_min = eta_y = 1.0 - 2.0 * d_max
    if protocol is Protocol.FOUR_STATE:
        eta_y = max(2.0 * eta_min - 1.0, -eta_min) + 0.0  # + 0.0: no -0 at d_max = 1/2
    eta = np.array([eta_min, eta_y, eta_min])  # symmetric and in D by construction
    ov = _overlap(protocol, eta)
    return _trusted(AttackReport, protocol=protocol, eta=eta, disturbance=d_max,
                    fidelity=1.0 - d_max, overlap=ov, p_c=_p_c(ov, eta_min))


def probe_overlaps_dilation(eta) -> tuple[float, float, float]:
    """(F, D, overlap) from the explicit probe dilation.

    Kraus operators K_k = sqrt(p_k) sigma_k give probe states |E_ij> =
    sum_k <j| K_k |i> |k> = sum_k K_k[j, i] |k> in a 4-dimensional probe space;
    the returned scalars are <E00|E00>, <E01|E01> and Re<E00|E11>.
    """
    p = geometry._cp_weights(_real(eta, "eta", (3,)), "eta {} is not CP", eta)
    kraus = np.sqrt(p)[:, None, None] * PAULIS
    E00, E01, E11 = kraus[:, 0, 0], kraus[:, 1, 0], kraus[:, 1, 1]
    return (float((E00.conj() @ E00).real), float((E01.conj() @ E01).real),
            float((E00.conj() @ E11).real))


def brute_force_optimum(protocol: Protocol | str, d_max: float,
                        resolution: float) -> np.ndarray:
    """Grid-search oracle for optimal_attack.

    Scans the protocol's free eta components over the CP region with
    symmetric component >= eta_min, minimising |overlap|; ties go to the
    lexicographically smallest eta, the first minimum in row-major order of
    the ascending grids. Raises EmptyIntersection when no grid point is an
    allowed attack. Rounding is monotone, so a grid row s is allowed on one
    interval of y, and its least |s + y| / 2 lies at one of the two columns
    around -s: O(n_sym log n_y) time and O(n_sym + n_y) memory, no grid built.
    A resolution outside [1e-5, 0.1] raises DisturbanceOutOfRange before any
    allocation; at 1e-5 the arrays peak at about 30 MB.
    """
    protocol = _protocol(protocol)
    resolution, d_max = float(_real(resolution, "resolution", ())), float(_real(d_max, "d_max", ()))
    if not 1e-5 <= resolution <= 0.1:
        raise DisturbanceOutOfRange(f"resolution {resolution} outside [1e-5, 0.1]")
    if not 0.0 <= d_max <= 0.5:
        raise DisturbanceOutOfRange(f"d_max {d_max} outside [0, 1/2]")
    eta_min = 1.0 - 2.0 * d_max
    if protocol is Protocol.SIX_STATE:
        # every grid s in [eta_min, 1] is CP (the diagonal of D); the least |s| is the first
        return np.array([eta_min, eta_min, eta_min])
    s = np.arange(eta_min, 1.0 + resolution / 2.0, resolution)
    y_grid = np.arange(-1.0, 1.0 + resolution / 2.0, resolution)
    # A face test passes on a prefix (_PREFIX) or a suffix of y_grid; its split
    # k[face, row] is guessed on the exact plane, a few ulps (< 3e-15) from the rounded
    # test's edge. Columns lie >= 1e-5 apart, so one test at k - 1 and k settles k.
    k = y_grid.searchsorted((1.0 + FACE_TOL - (_NX + _NZ) * s) / _NY)
    y = y_grid[np.minimum(np.maximum(np.array([k - 1, k]), 0), len(y_grid) - 1)]
    # face products of (s, y, s), summed left to right as a matmul sums them
    before, at = (_NX * s + _NY * y + _NZ * s - 1.0 <= FACE_TOL) == _PREFIX[:, None]
    k = k + (at & (k < len(y_grid))) - (~before & (k > 0))
    lo, hi = np.maximum.reduce(k[~_PREFIX]), np.minimum.reduce(k[_PREFIX])  # allowed: y_grid[lo:hi]
    if not np.logical_or.reduce(lo < hi):
        raise EmptyIntersection(f"no allowed attack on the grid at resolution {resolution}")
    z = y_grid.searchsorted(-s)  # fl(s + y) >= 0 exactly when y >= -s
    cols = np.minimum(np.maximum(np.array([z - 1, z]), lo), hi - 1)  # smaller y first; >= -1,
    vals = np.where(lo < hi, np.abs((s + y_grid[cols]) / 2.0), np.inf).T  # masked where lo >= hi
    i, c = np.unravel_index(vals.argmin(), vals.shape)
    return np.array([s[i], y_grid[cols[c, i]], s[i]])
