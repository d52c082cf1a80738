"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure (run with -s or check -v output)."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import qubitgeom as qg
from qubitgeom import geometry, network

from conftest import random_eta_in_D, random_rotation, trace_distance
from test_geometry import exact_project_oracle, grid_project_oracle

RNG_SEED = 777


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_c1_cp_equivalence():
    # tetrahedron membership == Pauli-weight nonnegativity == Choi PSD
    rng = np.random.default_rng(RNG_SEED)
    start = time.perf_counter()
    samples = rng.uniform(-1, 1, (10_000, 3))
    for eta in samples:
        member = qg.in_D(eta)
        weights_ok = bool(np.min(qg.pauli_weights(eta).p) >= -2.5e-10)
        cp, _ = qg.is_cp(qg.AffineChannel.from_eta(eta))
        assert member == weights_ok == cp, eta
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("1 cp-equivalence", f"10^4 samples agree in {elapsed:.2f}s")


def test_c2_best_cp_approximations():
    errs = [
        np.max(np.abs(qg.project_to_D([-1, -1, -1]) - [-1 / 3] * 3)),
        np.max(np.abs(qg.project_to_D([1, 1, 0]) - [2 / 3, 2 / 3, 1 / 3])),
        np.max(np.abs(
            qg.project_constrained([1, 1, 0], [True, True, False], [0.0])
            - [0.5, 0.5, 0.0]
        )),
    ]
    assert max(errs) < 1e-12
    _report("2 best-cp points", f"max error {max(errs):.2e}")


def test_c3_projection_vs_grid_oracle():
    rng = np.random.default_rng(RNG_SEED)
    worst = worst_grid = 0.0
    checked = 0
    while checked < 100:
        eta = rng.uniform(-1, 1, 3)
        if qg.in_D(eta):
            continue
        p = qg.project_to_D(eta)
        worst = max(worst, np.linalg.norm(p - exact_project_oracle(eta)))
        worst_grid = max(worst_grid, np.linalg.norm(p - grid_project_oracle(eta)))
        checked += 1
    assert worst < 1e-12
    assert worst_grid < 2e-3
    _report("3 projection oracle",
            f"100 exterior points, worst {worst:.2e} (exact), {worst_grid:.2e} (grid)")


def test_c4_canonical_form_reconstruction():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    mats = [np.diag([1.0, -1.0, 1.0])]  # transpose: det < 0
    for _ in range(999):
        A = rng.uniform(-1, 1, (3, 3))
        _, sig, _ = qg.svd3(A)
        mats.append(A / sig[0] if sig[0] > 1 else A)
    n_neg = 0
    for A in mats:
        form = qg.canonical_form(qg.AffineChannel(A, np.zeros(3)))
        worst = max(worst, float(np.max(np.abs(form.reconstruct() - A))))
        n_neg += np.linalg.det(A) < 0
    assert worst <= 1e-10
    assert n_neg > 100  # det(A) < 0 cases genuinely exercised
    _report("4 canonical form", f"10^3 contractions, worst {worst:.2e}, {n_neg} with det<0")


def test_c5_dynamics():
    rng = np.random.default_rng(RNG_SEED)
    equal = qg.CouplingSpec.from_alpha2([1 / 3, 1 / 3, 1 / 3])
    # landmark points
    assert np.max(np.abs(qg.eta_of_t(equal, np.pi / 2) - [-1 / 3] * 3)) < 1e-12
    assert np.max(np.abs(qg.eta_of_t(equal, np.pi / 3))) < 1e-12
    assert np.max(np.abs(qg.eta_of_t(equal, 2 * np.pi / 3))) < 1e-12
    for axis, vertex in enumerate(geometry.VERTICES[1:]):
        a = np.zeros(3)
        a[axis] = 1.0
        spec = qg.CouplingSpec(a)
        assert np.max(np.abs(qg.eta_of_t(spec, np.pi / 2) - vertex)) < 1e-12
    # closed form vs full 8-dim oracle
    worst = 0.0
    for _ in range(100):
        spec = qg.CouplingSpec.from_alpha2(rng.dirichlet(np.ones(3)))
        t = rng.uniform(0, 2 * np.pi)
        s0 = rng.standard_normal(3)
        s0 *= rng.uniform(0, 1) / np.linalg.norm(s0)
        out = qg.simulate_reduced(spec, t, qg.bloch_to_density(s0))
        dev = np.max(np.abs(qg.density_to_bloch(out) - qg.eta_of_t(spec, t) * s0))
        worst = max(worst, float(dev))
    assert worst <= 1e-8
    # inverse design roundtrip
    worst_rt = 0.0
    for _ in range(1000):
        target = random_eta_in_D(rng)
        spec, t = qg.design_coupling(target)
        dev = np.max(np.abs(qg.eta_of_t(spec, t) - target))
        worst_rt = max(worst_rt, float(dev))
    assert worst_rt <= 1e-10
    _report("5 dynamics", f"oracle dev {worst:.2e}, design roundtrip {worst_rt:.2e}")


def test_c6_network_simulation():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(1000):
        A = random_rotation(rng) @ np.diag(random_eta_in_D(rng)) @ random_rotation(rng)
        ch = qg.AffineChannel(A, np.zeros(3))
        spec = qg.compile_channel(ch)
        dev = np.max(np.abs(qg.choi(network.induced_channel(spec)) - qg.choi(ch)))
        worst = max(worst, float(dev))
    assert worst <= 1e-10
    n = 10**5
    spec = qg.compile_channel(qg.AffineChannel.from_eta([0, 0, 0]))
    est, _ = qg.run_sampled(spec, qg.bloch_to_density([0, 0, 1.0]), n, seed=11)
    mc_err = trace_distance(est, np.eye(2) / 2)
    assert mc_err < 5 / np.sqrt(n)
    _report("6 network", f"roundtrip {worst:.2e}, MC error {mc_err:.2e} at n=1e5")


def test_c7_qkd():
    for d in (0.05, 0.1, 0.15, 0.25):
        for proto in (qg.Protocol.FOUR_STATE, qg.Protocol.SIX_STATE):
            grid = qg.brute_force_optimum(proto, d, 1e-3)
            closed = qg.optimal_attack(proto, d).eta
            assert np.max(np.abs(grid - closed)) < 1e-3 + 1e-12
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(1000):
        s = rng.uniform(0, 1)
        eta = np.array([s, rng.uniform(2 * s - 1, 1.0), s])
        _, _, ov = qg.probe_overlaps_dilation(eta)
        worst = max(worst, abs(ov - qg.overlap(qg.Protocol.FOUR_STATE, eta)))
    assert worst < 1e-12
    p4 = qg.optimal_attack(qg.Protocol.FOUR_STATE, 0.25).p_c
    p6 = qg.optimal_attack(qg.Protocol.SIX_STATE, 0.25).p_c
    assert abs(p4 - (0.5 + 0.5 * np.sqrt(11 / 12))) < 1e-12
    assert abs(p6 - (0.5 + 0.5 * np.sqrt(2 / 3))) < 1e-12
    _report("7 qkd", f"dilation dev {worst:.2e}, p_c values exact")


def test_c8_positive_map_decomposition():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for eta in rng.uniform(-1, 1, (10_000, 3)):
        dec = qg.sw_decompose(eta)
        assert 0.0 <= dec.p <= 1.0
        assert qg.in_D(dec.cp1)
        assert any(np.array_equal(dec.cp2, v) for v in geometry.VERTICES)
        worst = max(worst, float(np.max(np.abs(dec.reconstruct() - eta))))
    assert worst <= 1e-12
    for corner in geometry.NONCP_CORNERS:
        cp2 = qg.compose(corner, geometry.TRANSPOSE_ETA)
        assert np.array_equal(qg.compose(cp2, geometry.TRANSPOSE_ETA), corner)
        assert any(np.array_equal(cp2, v) for v in geometry.VERTICES)
    _report("8 decomposition", f"10^4 cube points, worst reconstruction {worst:.2e}")


def test_c9_cli_goldens():
    golden_dir = Path(__file__).parent / "goldens"
    cases = [
        (["check", "--eta", "-1", "-1", "-1"], "check_universal_not.json"),
        (["project", "--eta", "-1", "-1", "-1"], "project_universal_not.json"),
        (["qkd", "--protocol", "four-state", "--dmax", "0.25"],
         "qkd_four_state_dmax025.json"),
    ]
    for argv, golden in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "qubitgeom.cli", *argv], capture_output=True
        )
        assert proc.returncode == 0
        assert proc.stdout == (golden_dir / golden).read_bytes(), golden
    _report("9 cli goldens", "3 invocations byte-identical")
