"""Each independent check accepts the program's answer and rejects a
deliberately perturbed one; the inputs have the make-up the README states.

    python3 -m pytest bench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from qubitgeom import channel, dynamics, geometry, network, qkd  # noqa: E402


def rejects(fn, *args):
    with pytest.raises(CheckFailed):
        fn(*args)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def general_channel(rng, cp):
    e = workloads.cube_point(rng, cp=cp)
    return workloads.random_rotation(rng) @ np.diag(e) @ workloads.random_rotation(rng)


def test_cp_verdict():
    eta = np.array([0.9, -0.9, 0.9])            # outside D by slack 1.7
    flag, min_eig = channel.is_cp(channel.AffineChannel.from_eta(eta))
    slack = checks.face_slack(eta)
    checks.cp_verdict(flag, min_eig, False, slack)
    rejects(checks.cp_verdict, not flag, min_eig, False, slack)
    rejects(checks.cp_verdict, flag, min_eig + 1e-9, False, slack)


def test_canonical(rng):
    A = general_channel(rng, cp=False)
    form = channel.canonical_form(channel.AffineChannel(A))
    checks.canonical(form.Q, form.delta, form.R, A)
    rejects(checks.canonical, form.Q, form.delta * (1 + 1e-6), form.R, A)
    rejects(checks.canonical, -form.Q, form.delta, form.R, A)      # improper


def test_projection(rng):
    y = workloads.cube_point(rng, cp=False)
    x = geometry.project_to_D(y)
    checks.projection(x, y)
    rejects(checks.projection, 0.999 * x, y)          # inside D, not nearest
    rejects(checks.projection, x + 1e-6 * (y - x), y)  # outside D


def test_sw_split(rng):
    eta = workloads.cube_point(rng, cp=False)
    dec = geometry.sw_decompose(eta)
    checks.sw_split(dec.p, dec.cp1, dec.cp2, eta)
    rejects(checks.sw_split, dec.p + 1e-6, dec.cp1, dec.cp2, eta)
    rejects(checks.sw_split, 1.5, dec.cp1, dec.cp2, eta)


def test_network_and_runs(rng):
    A = general_channel(rng, cp=True)
    spec = network.compile_channel(channel.AffineChannel(A))
    checks.network(spec.u1, spec.u2, spec.weights, A)
    w = spec.weights + np.array([1e-6, -1e-6, 0.0, 0.0])
    rejects(checks.network, spec.u1, spec.u2, w, A)
    rejects(checks.network, spec.u2, spec.u1, spec.weights, A)

    s = workloads.random_state(rng)
    rho0 = checks.density_of(s)
    rho = network.run_exact(spec, rho0)
    checks.exact_output(rho, A, s)
    rejects(checks.exact_output, rho + 1e-6 * np.diag([1, -1]), A, s)

    n = workloads.SAMPLES
    rho_n, _ = network.run_sampled(spec, rho0, n, 3)
    bloch = checks.bloch_of(rho_n)
    checks.sampled_output(bloch, A, s, n)
    off = bloch + np.array([20.0, 0.0, 0.0]) * np.linalg.norm(s) / math.sqrt(n)
    rejects(checks.sampled_output, off, A, s, n)


def test_dynamics(rng):
    target = workloads.dirichlet_point(rng)
    spec, t = dynamics.design_coupling(target)
    checks.design(spec.alpha, t, target)
    rejects(checks.design, spec.alpha, t + 1e-6, target)

    alpha2 = spec.alpha ** 2
    s = workloads.ORACLE_STATES[1]
    rho = dynamics.simulate_reduced(spec, t, workloads.ORACLE_RHOS[1])
    checks.reduced_state(rho, alpha2, t, s)
    rejects(checks.reduced_state, rho + 1e-6 * np.diag([1, -1]), alpha2, t, s)

    grid = np.linspace(0.0, np.pi, 101)
    traj = dynamics.trajectory(spec, grid)
    checks.trajectory(traj.times, traj.etas, alpha2, grid)
    etas = np.array(traj.etas)
    etas[50, 1] += 1e-6
    rejects(checks.trajectory, traj.times, etas, alpha2, grid)

    csv = dynamics.trajectory_to_csv(traj)
    checks.csv_rows(csv, traj.times, traj.etas)
    lines = csv.split("\n")
    last = lines[50].split(",")
    last[2] = repr(float(last[2]) + 1e-15)
    rejects(checks.csv_rows, "\n".join(lines[:50] + [",".join(last)] + lines[51:]),
            traj.times, traj.etas)
    rejects(checks.csv_rows, "\n".join(lines[:50] + lines[51:]), traj.times, traj.etas)


def scanned_min_abs_overlap(four_state, d, step=1e-3):
    """The smallest |overlap| by a dense scan of the allowed attacks."""
    s = np.arange(1.0 - 2.0 * d, 1.0 + step / 2, step)
    if not four_state:
        return float(np.min(np.abs(s)))
    S, Y = np.meshgrid(s, np.arange(-1.0, 1.0 + step / 2, step), indexing="ij")
    pts = np.stack([S.ravel(), Y.ravel(), S.ravel()], axis=1)
    pts = pts[np.all(pts @ checks.FACE_NORMALS.T <= 1.0 + 1e-12, axis=1)]
    return float(np.min(np.abs(pts[:, 0] + pts[:, 1]) / 2.0))


@pytest.mark.parametrize("four", [True, False])
@pytest.mark.parametrize("d", [0.0, 0.1, 0.3, 1 / 3, 0.4, 0.5])
def test_min_abs_overlap_matches_a_scan(four, d):
    assert abs(checks.min_abs_overlap(four, d) - scanned_min_abs_overlap(four, d)) <= 1e-3


@pytest.mark.parametrize("protocol", list(qkd.Protocol))
def test_attack_and_dilation(protocol):
    four = protocol is qkd.Protocol.FOUR_STATE
    report = qkd.optimal_attack(protocol, 0.2).to_json()
    checks.attack(report, four, 0.2)
    checks.attack_optimal(report, four, 0.2)
    rejects(checks.attack, dict(report, p_c=report["p_c"] + 1e-9), four, 0.2)
    rejects(checks.attack, dict(report, eta=[0.6, 0.2, 0.61]), four, 0.2)
    rejects(checks.attack, dict(report, eta=[0.5, 0.5, 0.5]), four, 0.2)  # disturbs too much
    worse = [0.61, 0.22, 0.61] if four else [0.61, 0.61, 0.61]
    ov = (worse[0] + worse[1]) / 2 if four else worse[0]
    rejects(checks.attack_optimal, dict(report, eta=worse, overlap=ov), four, 0.2)

    dil = qkd.probe_overlaps_dilation(report["eta"])
    checks.dilation(*dil, report)
    rejects(checks.dilation, dil[0], dil[1], dil[2] + 1e-9, report)


@pytest.mark.parametrize("d", workloads.BEYOND_THIRD)
def test_four_state_attack_beyond_a_third_is_the_known_fault(d):
    """The program's four-state answer is a valid attack, but not the
    optimal one; the workloads count it as failed, not as wrong."""
    report = qkd.optimal_attack(qkd.Protocol.FOUR_STATE, d).to_json()
    checks.attack(report, True, d)
    rejects(checks.attack_optimal, report, True, d)
    with pytest.raises(checks.KnownFault):
        workloads.known_fault_if(True, checks.attack_optimal, report, True, d)
    rejects(workloads.known_fault_if, False, checks.attack_optimal, report, True, d)
    six = qkd.optimal_attack(qkd.Protocol.SIX_STATE, d).to_json()
    checks.attack(six, False, d)
    checks.attack_optimal(six, False, d)


@pytest.mark.parametrize("d", [0.2, 0.45])
def test_grid_optimum(d):
    res = workloads.RESOLUTION
    grid = qkd.brute_force_optimum(qkd.Protocol.FOUR_STATE, d, res)
    checks.grid_optimum(grid, True, d, res)
    rejects(checks.grid_optimum, grid + np.array([3 * res, 0.0, 3 * res]), True, d, res)
    rejects(checks.grid_optimum, grid + np.array([0.0, 0.0, res]), True, d, res)
    rejects(checks.grid_optimum, np.array([1.0, 1.0, 1.0]) - 2 * d - 0.01, True, d, res)
    six = qkd.brute_force_optimum(qkd.Protocol.SIX_STATE, d, res)
    checks.grid_optimum(six, False, d, res)
    rejects(checks.grid_optimum, six + 3 * res, False, d, res)


def test_channel_stream_round_make_up():
    wl = workloads.ChannelStream()
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            kinds = [x.kind for x in wl.make_round(rng)]
            assert len(kinds) == wl.ROUND == 50
            assert kinds.count("band") == 2 and kinds.count("boundary") == 4


def test_dynamics_attack_round_make_up():
    wl = workloads.DynamicsAttack()
    rng = np.random.default_rng(1)
    for k in range(6):
        ds = [x.d for x in wl.make_round(rng)]
        fixed = [d for d in ds if d > 1 / 3]
        assert len(ds) == wl.ROUND == 5 and max(d for d in ds if d <= 1 / 3) <= 0.3
        assert fixed == [workloads.BEYOND_THIRD[k % 4]]


def test_cli_round_make_up():
    wl = workloads.Cli()
    rng = np.random.default_rng(1)
    for k in range(5):
        batch = wl.make_round(rng)
        verbs = sorted(x.verb for x in batch)
        assert verbs == sorted(workloads.VERBS + ("qkd",))
        fixed = [x for x in batch if x.beyond_third]
        assert len(fixed) == 1 and fixed[0].data == {"four": True,
                                                      "d": workloads.BEYOND_THIRD[k % 4]}


def test_band_points_lie_in_the_band():
    for eta in workloads.BAND_POINTS:
        assert 1.5e-9 < checks.face_slack(eta) < 3.5e-9


def test_inputs_follow_the_seed():
    a = workloads.ChannelStream().make_round(np.random.default_rng(5))
    b = workloads.ChannelStream().make_round(np.random.default_rng(5))
    assert all(np.array_equal(x.A, y.A) and x.seed == y.seed for x, y in zip(a, b))


def test_channel_stream_operation_is_checked(rng):
    wl = workloads.ChannelStream()
    for x in wl.make_round(rng):
        if x.kind == "band":
            continue
        out = wl.run(x)
        wl.check(x, out)
        if out[0]:
            bad = (not out[0],) + out[1:]
        else:
            flag, min_eig, form, proj, split = out
            bad = (flag, min_eig, form, proj * 0.99, split)
        rejects(wl.check, x, bad)


def test_dynamics_attack_operation_is_checked():
    wl = workloads.DynamicsAttack()
    for x in wl.make_round(np.random.default_rng(3)):
        out = wl.run(x)
        if x.beyond_third:
            with pytest.raises(checks.KnownFault):
                wl.check(x, out)
        else:
            wl.check(x, out)
