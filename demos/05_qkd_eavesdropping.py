"""Optimal symmetric incoherent eavesdropping.

At a given disturbance budget Eve wants the two probe states she must
later discriminate to be as distinguishable as possible, i.e. she
minimises their overlap over the CP channels compatible with the
protocol's symmetry. The tetrahedron makes the optimum geometric: for the
four-state protocol eta_y drops to the boundary 2*eta_min - 1 (up to
disturbance 1/3; beyond it to -eta_min, at overlap 0), while the
six-state symmetry leaves no freedom. The closed forms are checked against
the explicit probe dilation and a grid search.
"""

import numpy as np

import qubitgeom as qg

for d_max in (0.05, 0.10, 0.15, 0.25):
    for proto in (qg.Protocol.FOUR_STATE, qg.Protocol.SIX_STATE):
        r = qg.optimal_attack(proto, d_max)
        grid = qg.brute_force_optimum(proto, d_max, 1e-3)
        print(f"{proto.value:10s} D={d_max:4.2f}  eta={np.round(r.eta, 3)}  "
              f"overlap={r.overlap:+.3f}  p_c={r.p_c:.5f}  "
              f"grid agrees: {np.max(np.abs(grid - r.eta)) < 1e-3}")
    print()

eta = qg.optimal_attack(qg.Protocol.FOUR_STATE, 0.25).eta
F, D, ov = qg.probe_overlaps_dilation(eta)
print(f"dilation check at eta={eta}: F={F:.4f} D={D:.4f} overlap={ov:.4f}")
