"""Simulating an arbitrary unital channel with a small network.

Any unital CP channel factors into rotation / diagonal Pauli mixture /
rotation, so a network with two qubit rotations and an ancilla-controlled
Pauli gate realises it. compile_channel produces the two rotations and the
four branch weights; the ancilla amplitudes, their square roots, appear in
the spec's JSON form. run_exact executes on the density matrix and
run_sampled draws mixture branches with a seeded generator.
"""

import numpy as np

import qubitgeom as qg
from qubitgeom.network import induced_channel

rng = np.random.default_rng(7)

# a random rotated squeeze, guaranteed CP
q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
if np.linalg.det(q) < 0:
    q[:, 0] = -q[:, 0]
A = q @ np.diag([0.7, 0.4, 0.2]) @ q.T
ch = qg.AffineChannel(A, np.zeros(3))

spec = qg.compile_channel(ch)
print("amplitudes:", np.round(spec.to_json()["amplitudes"], 6))
print("branch weights:", np.round(spec.weights, 6))

roundtrip = np.max(np.abs(qg.choi(induced_channel(spec)) - qg.choi(ch)))
print(f"compile/run Choi roundtrip error: {roundtrip:.2e}")

rho0 = qg.bloch_to_density([0.0, 0.0, 1.0])
exact = qg.run_exact(spec, rho0)
for n in (100, 10_000, 1_000_000):
    est, stderr = qg.run_sampled(spec, rho0, n, seed=123)
    err = np.max(np.abs(est - exact))
    print(f"n = {n:>9,d}   max deviation from exact {err:.2e}   stderr {stderr:.2e}")
