import itertools
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import qubitgeom as qg
from qubitgeom import cli, dynamics, linalg
from qubitgeom.errors import NonFiniteInput, NotCP, QubitGeomError

from conftest import random_density, random_eta_in_D

EQUAL = dynamics.CouplingSpec.from_alpha2([1 / 3, 1 / 3, 1 / 3])


def random_spec(rng):
    return dynamics.CouplingSpec.from_alpha2(rng.dirichlet(np.ones(3)))


def test_coupling_spec_normalisation():
    with pytest.raises(QubitGeomError):
        dynamics.CouplingSpec([1.0, 1.0, 0.0])
    with pytest.raises(QubitGeomError):
        dynamics.CouplingSpec.from_alpha2([0.5, 0.6, -0.1])
    with pytest.raises(QubitGeomError):
        dynamics.CouplingSpec.from_alpha2([np.nan, 0.5, 0.5])


def test_eta_of_t_landmarks(rng):
    spec = random_spec(rng)
    assert np.allclose(qg.eta_of_t(spec, 0.0), [1, 1, 1])
    assert np.allclose(qg.eta_of_t(EQUAL, np.pi / 2), [-1 / 3] * 3, atol=1e-12)
    assert np.max(np.abs(qg.eta_of_t(EQUAL, np.pi / 3))) < 1e-12
    assert np.max(np.abs(qg.eta_of_t(EQUAL, 2 * np.pi / 3))) < 1e-12
    x_only = dynamics.CouplingSpec([1.0, 0.0, 0.0])
    assert np.allclose(qg.eta_of_t(x_only, np.pi / 2), [1, -1, -1], atol=1e-12)


def test_eta_of_t_stays_cp(rng):
    spec = random_spec(rng)
    for t in rng.uniform(0, 2 * np.pi, 50):
        assert qg.in_D(qg.eta_of_t(spec, t))


def test_eta_of_t_periodic(rng):
    spec = random_spec(rng)
    for t in rng.uniform(0, np.pi, 20):
        assert np.max(np.abs(qg.eta_of_t(spec, t) - qg.eta_of_t(spec, t + np.pi))) < 1e-12


def test_eta_of_t_collinear(rng):
    spec = random_spec(rng)
    endpoint = 2 * spec.alpha**2 - 1
    direction = endpoint - 1.0
    for t in rng.uniform(0, np.pi, 20):
        d = qg.eta_of_t(spec, t) - 1.0
        assert np.linalg.norm(np.cross(d, direction)) < 1e-12


def test_design_coupling_landmarks():
    spec, t = qg.design_coupling([1, 1, 1])
    assert t == 0.0 and np.allclose(spec.alpha, [1, 0, 0])
    spec, t = qg.design_coupling([-1 / 3, -1 / 3, -1 / 3])
    assert np.allclose(spec.alpha**2, [1 / 3] * 3) and abs(t - np.pi / 2) < 1e-12
    spec, t = qg.design_coupling([0, 0, 0])
    assert np.allclose(spec.alpha**2, [1 / 3] * 3) and abs(t - np.pi / 3) < 1e-12


def test_design_coupling_rejects_non_cp():
    with pytest.raises(NotCP):
        qg.design_coupling([-1, -1, -1])


def test_design_coupling_roundtrip(rng):
    for _ in range(300):
        target = random_eta_in_D(rng)
        spec, t = qg.design_coupling(target)
        assert 0.0 <= t <= np.pi / 2 + 1e-12
        assert np.max(np.abs(qg.eta_of_t(spec, t) - target)) < 2e-15


def _reference_hamiltonian(spec):
    """The Hamiltonian summed axis by axis from Kronecker products."""
    H = np.zeros((8, 8), dtype=complex)
    paulis = (linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z)
    for i, (a, sigma) in enumerate(zip(spec.alpha, paulis)):
        hop = np.zeros((4, 4), dtype=complex)
        hop[0, i + 1] = hop[i + 1, 0] = 1.0
        H += a * np.kron(sigma, hop)
    return H


def test_total_hamiltonian_bit_identical_to_reference(rng):
    alphas = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-0.0, 0.6, -0.8]]
    alphas += [a / np.linalg.norm(a) for a in rng.standard_normal((500, 3))]
    for alpha in alphas:
        spec = dynamics.CouplingSpec(alpha)
        assert dynamics.total_hamiltonian(spec).tobytes() == _reference_hamiltonian(spec).tobytes()


def test_simulate_reduced_t0_and_depolarizing(rng):
    rho0 = random_density(rng)
    assert np.max(np.abs(qg.simulate_reduced(EQUAL, 0.0, rho0) - rho0)) < 1e-12
    out = qg.simulate_reduced(EQUAL, np.pi / 3, rho0)
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-10


def test_simulate_reduced_matches_closed_form(rng):
    # the module's central cross-check: full 8-dim unitary + partial trace
    # against the closed-form eta(t)
    for _ in range(100):
        spec = random_spec(rng)
        t = rng.uniform(0, 2 * np.pi)
        rho0 = random_density(rng)
        out = qg.simulate_reduced(spec, t, rho0)
        expected = qg.eta_of_t(spec, t) * qg.density_to_bloch(rho0)
        assert np.max(np.abs(qg.density_to_bloch(out) - expected)) < 1e-8
        assert abs(np.trace(out) - 1.0) < 1e-10


def test_simulate_reduced_reuses_one_eigendecomposition(rng):
    # the cached decomposition gives the bits of a fresh unitary_exp
    for _ in range(50):
        spec = random_spec(rng)
        rho0 = random_density(rng)
        for t in rng.uniform(-10, 10, 3):
            U = linalg.unitary_exp(dynamics.total_hamiltonian(spec), t)
            assert linalg._exp_eig(*spec._eig, t).tobytes() == U.tobytes()
            V = U[:, ::4]  # the columns that meet rho0 (x) |a1><a1|
            expected = linalg.partial_trace_ancilla(V @ rho0 @ V.conj().T)
            out = qg.simulate_reduced(spec, t, rho0)
            assert out.tobytes() == expected.tobytes()
            full = np.kron(rho0, np.diag([1.0, 0, 0, 0]))
            assert np.max(np.abs(out - linalg.partial_trace_ancilla(U @ full @ U.conj().T))) < 1e-15
        assert spec._eig is spec._eig


def test_coupling_signs_do_not_matter(rng):
    # alpha sign flips conjugate H by a local unitary and leave eta(t) alone
    a2 = rng.dirichlet(np.ones(3))
    rho0 = random_density(rng)
    t = rng.uniform(0, np.pi)
    base = dynamics.CouplingSpec.from_alpha2(a2)
    flipped = dynamics.CouplingSpec(base.alpha * np.array([1.0, -1.0, -1.0]))
    out1 = qg.simulate_reduced(base, t, rho0)
    out2 = qg.simulate_reduced(flipped, t, rho0)
    assert np.max(np.abs(out1 - out2)) < 1e-10


def test_trajectory_single_point():
    traj = qg.trajectory(EQUAL, [0.0])
    assert traj.times.shape == (1,)
    assert np.allclose(traj.etas[0], [1, 1, 1])


def test_trajectory_periodic_endpoint():
    spec = dynamics.CouplingSpec.from_alpha2([1 / 2, 1 / 3, 1 / 6])
    traj = qg.trajectory(spec, np.linspace(0, np.pi, 41))
    assert np.max(np.abs(traj.etas[-1] - [1, 1, 1])) < 1e-12


def test_trajectory_collinear_segment():
    traj = qg.trajectory(EQUAL, np.linspace(0, np.pi / 2, 30))
    direction = np.array([-1 / 3, -1 / 3, -1 / 3]) - 1.0
    for eta in traj.etas:
        assert np.linalg.norm(np.cross(eta - 1.0, direction)) < 1e-12


def test_trajectory_rejects_descending_grid():
    with pytest.raises(QubitGeomError):
        qg.trajectory(EQUAL, [1.0, 0.5])


def test_eta_of_t_batch_shapes(rng):
    spec = random_spec(rng)
    assert qg.eta_of_t(spec, 0.5).shape == (3,)
    times = rng.uniform(0, np.pi, (2, 5))
    etas = qg.eta_of_t(spec, times)
    assert etas.shape == (2, 5, 3)
    assert np.array_equal(etas[1, 3], qg.eta_of_t(spec, times[1, 3]))


def test_trajectory_matches_per_t_loop(rng):
    # the per-t loop trajectory replaced; np.float64 ** 2 and the array
    # square can differ in the last place, so the bound is 1 ulp of 1
    spec = random_spec(rng)
    times = np.sort(rng.uniform(0, 2 * np.pi, 5000))
    etas = qg.trajectory(spec, times).etas
    loop = np.array([np.cos(t) ** 2 * np.ones(3) + np.sin(t) ** 2 * (2.0 * spec.alpha**2 - 1.0)
                     for t in times])
    assert np.max(np.abs(etas - loop)) <= 2.3e-16
    scalar = np.array([qg.eta_of_t(spec, t) for t in times])
    assert np.max(np.abs(etas - scalar)) <= 2.3e-16


def _reference_csv(traj):
    """Per-value rendering that trajectory_to_csv replaced."""
    lines = ["t,eta_x,eta_y,eta_z"]
    for t, eta in zip(traj.times, traj.etas):
        lines.append(",".join(format(float(v), ".17g") for v in (t, *eta)))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_reference(rng):
    spec = random_spec(rng)
    odd = linalg._trusted(dynamics.Trajectory, times=[-0.0, 5e-324, 1e300], etas=[
        [np.nan, np.inf, -np.inf], [-0.0, 1e-17, 1 / 3], [2.0**60, -1.5, 0.1]])
    for traj in (qg.trajectory(spec, np.linspace(0, np.pi, 2001)),
                 qg.trajectory(spec, []), odd):
        assert qg.trajectory_to_csv(traj) == _reference_csv(traj)


def _assert_csv_exact(values):
    """trajectory_to_csv against the per-value rendering, zero-padded to rows of 4."""
    values = np.ravel(values)
    table = np.concatenate([values, np.zeros(-len(values) % 4)]).reshape(-1, 4)
    traj = linalg._trusted(dynamics.Trajectory, times=table[:, 0], etas=table[:, 1:])
    assert qg.trajectory_to_csv(traj) == _reference_csv(traj)


# any float64, and more of them in the decades that take the exact path
_FLOATS = st.floats() | st.floats(1e-4, 1e16) | st.floats(-1e16, -1e-4)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 40), st.just(4)), elements=_FLOATS))
def test_trajectory_csv_exact_for_any_float(table):
    _assert_csv_exact(table)


def test_trajectory_csv_exact_on_ties_and_powers_of_ten(rng):
    ties = []
    for k in range(-4, 16):  # j / 2**(17 - k) times 10**(16 - k) is j 5**(16 - k) / 2
        lo, hi = 10**k * 2.0 ** (17 - k), min(10 ** (k + 1) * 2.0 ** (17 - k), 2.0**53)
        for j in rng.integers(int(lo) // 2 + 1, int(hi) // 2, 200) * 2 + 1:
            x = float(j) / 2.0 ** (17 - k)
            assert 10**k <= x < 10 ** (k + 1)
            assert Decimal(x).scaleb(16 - k) % 1 == Decimal("0.5")
            ties += [x, -x]
    _assert_csv_exact(ties)
    powers = [float(f"1e{k}") for k in range(-5, 18)]
    near = [np.nextafter(p, d) for p in powers for d in (0.0, np.inf)] + powers
    near += [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**54 + 4, 0.5, 1.0, 0.1, 1e-4 * (1 - 2**-52)]
    _assert_csv_exact(near + [-x for x in near])


def _decade_and_kept_digits(x):
    """(k, s): format(x, ".17g") has its first digit at 10**k and keeps s digits."""
    mantissa, exponent = format(x, ".16e").split("e")
    return int(exponent), len(mantissa.lstrip("-").replace(".", "").rstrip("0"))


def test_trajectory_csv_exact_in_every_decade():
    # trajectories stay below 10, so only these values move integer digits over the dot
    wanted = {(k, s) for k in range(-4, 16) for s in (1, k + 1, 17) if s >= 1}
    values = []
    for k, s in sorted(wanted):
        for lead, last, middle in itertools.product("123456789", "123456789",
                                                    ("0" * 15, "987654321098765")):
            x = float(f"{(lead + middle[:s - 2] + last)[:s]}e{k - s + 1}")
            if _decade_and_kept_digits(x) == (k, s):
                values += [x, -x]
    assert {_decade_and_kept_digits(x) for x in values} == wanted
    _assert_csv_exact(values)


def test_trajectory_csv_memory_peak_at_the_steps_cap():
    # the renderer before the digit-table rows peaked at 43.7 MB or more here
    traj = qg.trajectory(EQUAL, np.linspace(0, np.pi, cli.MAX_STEPS + 1))
    tracemalloc.start()
    try:
        csv = qg.trajectory_to_csv(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert csv.count("\n") == cli.MAX_STEPS + 2
    assert peak <= 43.7e6


def test_trajectory_csv_memory_peak():
    traj = qg.trajectory(EQUAL, np.linspace(0, np.pi, 2001))
    qg.trajectory_to_csv(traj)
    tracemalloc.start()
    try:
        qg.trajectory_to_csv(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_non_finite_times_rejected(rng):
    spec = random_spec(rng)
    for t in (np.nan, np.inf, [0.0, np.inf]):
        with pytest.raises(NonFiniteInput):
            qg.eta_of_t(spec, t)
    for grid in ([0.0, np.nan], [0.0, np.inf], [np.nan]):
        with pytest.raises(NonFiniteInput):
            qg.trajectory(spec, grid)
    with pytest.raises(NonFiniteInput):
        qg.simulate_reduced(spec, np.inf, random_density(rng))


def test_trajectory_csv_format():
    traj = qg.trajectory(EQUAL, [0.0, np.pi / 3])
    csv = qg.trajectory_to_csv(traj)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,eta_x,eta_y,eta_z"
    assert len(lines) == 3
    vals = [float(v) for v in lines[2].split(",")]
    assert abs(vals[0] - np.pi / 3) < 1e-15
    assert np.max(np.abs(np.array(vals[1:]))) < 1e-12
