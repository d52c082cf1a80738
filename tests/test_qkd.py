import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qubitgeom as qg
from qubitgeom import geometry
from qubitgeom.errors import (DisturbanceOutOfRange, EmptyIntersection, NotCP,
                             SymmetryViolation, UnknownName)
from qubitgeom.linalg import FACE_TOL, PAULIS

from conftest import face_slack

FOUR = qg.Protocol.FOUR_STATE
SIX = qg.Protocol.SIX_STATE

# matched-basis states for the basis-independence check
_X_BASIS = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_overlap_closed_forms():
    assert qg.overlap(FOUR, [1, 1, 1]) == 1.0
    assert abs(qg.overlap(FOUR, [0.5, 0.0, 0.5]) - 0.25) < 1e-15
    assert abs(qg.overlap(SIX, [0.5, 0.5, 0.5]) - 0.5) < 1e-15


def test_protocol_given_by_value():
    # a string protocol once took the six-state branch: eta (0.5, 0.5, 0.5)
    report = qg.optimal_attack("four-state", 0.25)
    assert report.protocol is FOUR and report.eta.tolist() == [0.5, 0.0, 0.5]
    assert report.to_json()["protocol"] == "four-state"
    assert qg.overlap("six-state", [0.5, 0.5, 0.5]) == qg.overlap(SIX, [0.5, 0.5, 0.5])
    assert qg.success_probability("four-state", [0.5, 0.0, 0.5]) == qg.success_probability(
        FOUR, [0.5, 0.0, 0.5])
    assert qg.brute_force_optimum("four-state", 0.25, 0.01).tolist() == \
        qg.brute_force_optimum(FOUR, 0.25, 0.01).tolist()


@pytest.mark.parametrize("protocol", ["x", "FOUR_STATE", None, 4, SIX.value.upper()])
def test_unknown_protocol_raises(protocol):
    for call in (lambda: qg.overlap(protocol, [0.5, 0.5, 0.5]),
                 lambda: qg.success_probability(protocol, [0.5, 0.5, 0.5]),
                 lambda: qg.optimal_attack(protocol, 0.25),
                 lambda: qg.brute_force_optimum(protocol, 0.25, 0.01)):
        with pytest.raises(UnknownName):
            call()


def test_overlap_symmetry_violation():
    with pytest.raises(SymmetryViolation):
        qg.overlap(FOUR, [0.5, 0.0, 0.4])
    with pytest.raises(SymmetryViolation):
        qg.overlap(SIX, [0.5, 0.4, 0.5])


def test_success_probability_values():
    assert abs(qg.success_probability(FOUR, [1, 1, 1]) - 0.5) < 1e-15
    p4 = qg.success_probability(FOUR, [0.5, 0.0, 0.5])
    assert abs(p4 - (0.5 + 0.5 * np.sqrt(11 / 12))) < 1e-12
    p6 = qg.success_probability(SIX, [0.5, 0.5, 0.5])
    assert abs(p6 - (0.5 + 0.5 * np.sqrt(2 / 3))) < 1e-12


def test_success_probability_rejects_non_cp():
    with pytest.raises(NotCP):
        qg.success_probability(SIX, [-1, -1, -1])


def test_success_probability_below_fidelity_zero():
    # in D within FACE_TOL beyond R_y, whose F = 0 test_contract names: F < 0, p_c would exceed 1
    eta = [-1 - 4e-10, 1 + 2e-10, -1 - 4e-10]
    assert qg.in_D(eta)
    with pytest.raises(DisturbanceOutOfRange):
        qg.success_probability(FOUR, eta)
    # a disturbance beyond 1/2 at F > 0 still has a value: D = 2/3 here
    assert abs(qg.success_probability(SIX, [-1 / 3] * 3) - (0.5 + 0.5 * np.sqrt(2 / 3))) < 1e-15


def test_optimal_attack_reports():
    r = qg.optimal_attack(FOUR, 0.25)
    assert np.allclose(r.eta, [0.5, 0.0, 0.5])
    assert r.disturbance == 0.25 and r.fidelity == 0.75
    assert abs(r.overlap - 0.25) < 1e-15
    assert abs(r.p_c - (0.5 + 0.5 * np.sqrt(11 / 12))) < 1e-12

    r = qg.optimal_attack(SIX, 0.25)
    assert np.allclose(r.eta, [0.5, 0.5, 0.5])
    assert abs(r.p_c - (0.5 + 0.5 * np.sqrt(2 / 3))) < 1e-12

    r = qg.optimal_attack(FOUR, 0.0)
    assert np.allclose(r.eta, [1, 1, 1]) and r.p_c == 0.5


def test_optimal_attack_consistency(rng):
    for d in rng.uniform(0, 0.5, 20):
        for proto in (FOUR, SIX):
            r = qg.optimal_attack(proto, d)
            assert qg.in_D(r.eta)
            assert abs(r.fidelity + r.disturbance - 1.0) < 1e-12
            eta_sym = r.eta[0]
            assert abs(r.disturbance - (1 - eta_sym) / 2) < 1e-12
            assert abs(r.p_c - (0.5 + 0.5 * np.sqrt(1 - r.overlap**2 / r.fidelity))) < 1e-12


def test_optimal_attack_pc_is_success_probability():
    for d in np.linspace(0, 0.5, 101):
        for proto in (FOUR, SIX):
            r = qg.optimal_attack(proto, d)
            assert r.p_c == qg.success_probability(proto, r.eta)


def test_optimal_attack_beyond_one_third():
    # for eta_min < 1/3 the face eta_y = 2 eta_min - 1 overshoots overlap 0,
    # and (eta_min, -eta_min, eta_min) in D reaches it
    for d in np.append(np.linspace(1 / 3, 0.5, 13)[1:], [0.35, 0.4, 0.45]):
        r = qg.optimal_attack(FOUR, d)
        assert face_slack(r.eta) <= 1e-12
        assert r.disturbance == d and r.eta[0] == 1 - 2 * d
        assert abs(r.overlap) == 0.0 and r.p_c == 1.0
        grid = qg.brute_force_optimum(FOUR, d, 1e-2)
        assert abs(r.overlap) <= abs(qg.overlap(FOUR, grid))


def test_optimal_attack_range():
    with pytest.raises(DisturbanceOutOfRange):
        qg.optimal_attack(FOUR, 0.6)
    with pytest.raises(DisturbanceOutOfRange):
        qg.optimal_attack(FOUR, -0.01)


def test_attack_boundary_is_tetrahedron_face(rng):
    # for eta_x = eta_z = s in [0,1], CP forces eta_y >= 2s - 1
    for s in rng.uniform(0, 1, 50):
        assert face_slack([s, 2 * s - 1, s]) <= 1e-12
        assert not qg.in_D([s, 2 * s - 1 - 1e-6, s])


def test_dilation_trivial_and_derived_points():
    F, D, ov = qg.probe_overlaps_dilation([1, 1, 1])
    assert (F, D, ov) == (1.0, 0.0, 1.0)
    F, D, ov = qg.probe_overlaps_dilation([0.5, 0.0, 0.5])
    assert abs(D - 0.25) < 1e-12 and abs(ov - 0.25) < 1e-12
    _, _, ov = qg.probe_overlaps_dilation([-1 / 3, -1 / 3, -1 / 3])
    assert abs(ov + 1 / 3) < 1e-12


def test_dilation_matches_closed_form(rng):
    for _ in range(200):
        s = rng.uniform(0, 1)
        lo = 2 * s - 1
        ey = rng.uniform(lo, 1.0)
        eta = np.array([s, ey, s])
        F, D, ov = qg.probe_overlaps_dilation(eta)
        assert abs(F - (1 + s) / 2) < 1e-12
        assert abs(D - (1 - s) / 2) < 1e-12
        assert abs(ov - qg.overlap(FOUR, eta)) < 1e-12


def _dilation_overlaps(eta, basis):
    """(F, D, overlap) of the probe dilation with qubit basis vectors given
    by the columns of basis: <b_j| K_k |b_i> in place of K_k[j, i]."""
    p = np.clip(qg.pauli_weights(eta).p, 0.0, None)
    kraus = [np.sqrt(pk) * sigma for pk, sigma in zip(p, PAULIS)]

    def E(i, j):
        return np.array([basis[:, j].conj() @ (K @ basis[:, i]) for K in kraus])

    E00, E01, E11 = E(0, 0), E(0, 1), E(1, 1)
    return tuple(float(np.real(u.conj() @ v)) for u, v in ((E00, E00), (E01, E01), (E00, E11)))


def test_dilation_basis_independent(rng):
    for _ in range(50):
        s = rng.uniform(0, 1)
        eta = np.array([s, rng.uniform(2 * s - 1, 1.0), s])
        z = qg.probe_overlaps_dilation(eta)
        x = _dilation_overlaps(eta, _X_BASIS)
        assert np.max(np.abs(np.array(z) - np.array(x))) < 1e-12


def test_dilation_rejects_non_cp():
    with pytest.raises(NotCP):
        qg.probe_overlaps_dilation([1, -1, 1])


def test_brute_force_matches_closed_form():
    for d in (0.05, 0.1, 0.15, 0.25):
        for proto in (FOUR, SIX):
            grid = qg.brute_force_optimum(proto, d, 1e-3)
            assert np.max(np.abs(grid - qg.optimal_attack(proto, d).eta)) < 1e-3 + 1e-12


def test_brute_force_trivial_cases():
    assert np.allclose(qg.brute_force_optimum(FOUR, 0.0, 1e-3), [1, 1, 1])
    assert np.allclose(qg.brute_force_optimum(SIX, 0.3, 1e-3), [0.4, 0.4, 0.4])


def test_brute_force_empty_grid():
    # at d = 0 only eta = (1, 1, 1) is allowed, and the y grid at 0.03 misses 1
    with pytest.raises(EmptyIntersection):
        qg.brute_force_optimum(FOUR, 0.0, 0.03)


def _reference_brute_force(protocol, d_max, resolution):
    """The meshgrid and lexsort grid search that brute_force_optimum
    replaced, kept as the oracle for its results."""
    eta_min = 1.0 - 2.0 * d_max
    sym_grid = np.arange(eta_min, 1.0 + resolution / 2.0, resolution)
    if protocol is SIX:
        vals = np.abs(sym_grid)
        k = int(np.lexsort((sym_grid, vals))[0])
        s = sym_grid[k]
        return np.array([s, s, s])
    y_grid = np.arange(-1.0, 1.0 + resolution / 2.0, resolution)
    S, Y = np.meshgrid(sym_grid, y_grid, indexing="ij")
    pts = np.stack([S.ravel(), Y.ravel(), S.ravel()], axis=1)
    feasible = np.all(pts @ geometry.FACE_NORMALS.T - 1.0 <= FACE_TOL, axis=1)
    pts = pts[feasible]
    vals = np.abs((pts[:, 0] + pts[:, 1]) / 2.0)
    k = int(np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], vals))[0])
    return pts[k]


@pytest.mark.parametrize("resolution", [1e-3, 2e-3, 5e-3, 1e-2, 3.7e-3])
def test_brute_force_bit_identical_to_reference(resolution):
    compared = 0
    for d in np.linspace(0, 0.5, 51):
        for proto in (FOUR, SIX):
            try:
                expected = _reference_brute_force(proto, d, resolution)
            except IndexError:  # empty grid: the reference has no answer
                with pytest.raises(EmptyIntersection):
                    qg.brute_force_optimum(proto, d, resolution)
                continue
            got = qg.brute_force_optimum(proto, d, resolution)
            assert got.tobytes() == expected.tobytes(), (proto, d)
            compared += 1
    assert compared >= 100


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(d=st.floats(0.0, 0.5), log_res=st.floats(np.log10(5e-4), -1.0),
       protocol=st.sampled_from([FOUR, SIX]))
@example(d=0.0, log_res=np.log10(0.03), protocol=FOUR)  # empty grid
@example(d=1 / 3, log_res=np.log10(1e-3), protocol=FOUR)
@example(d=0.5, log_res=np.log10(1e-3), protocol=FOUR)
@example(d=0.5, log_res=-1.0, protocol=SIX)
def test_brute_force_matches_reference_anywhere(d, log_res, protocol):
    resolution = 10.0 ** log_res
    try:
        expected = _reference_brute_force(protocol, d, resolution)
    except IndexError:  # empty grid: the reference has no answer
        with pytest.raises(EmptyIntersection):
            qg.brute_force_optimum(protocol, d, resolution)
        return
    assert qg.brute_force_optimum(protocol, d, resolution).tobytes() == expected.tobytes()


@pytest.mark.parametrize("resolution", [2.0 ** -7, 2.0 ** -5, 0.01, 0.05])
def test_brute_force_at_the_tolerance_edge(resolution):
    # eta_min puts a grid point of the face eta_y = 2 eta_min - 1 at face slack
    # FACE_TOL to within a few ulps, where only the rounded test decides and the
    # exact face plane guesses wrong
    for y_edge in np.arange(-1.0, 0.9, resolution)[1::9]:
        d0 = (1.0 - (1.0 + y_edge + FACE_TOL) / 2.0) / 2.0
        for d in d0 + np.arange(-3, 4) * np.spacing(d0):
            got = qg.brute_force_optimum(FOUR, d, resolution)
            assert got.tobytes() == _reference_brute_force(FOUR, d, resolution).tobytes(), d


def test_brute_force_tie_goes_to_the_smaller_eta_y():
    # on a dyadic grid with eta_min < 1/3, -s lies midway between two y
    # columns on every row, and |overlap| ties at r / 4 throughout
    r = 2.0 ** -7
    d = 90.5 * r / 2.0
    expected = np.array([1.0 - 90.5 * r, -1.0 + 90.0 * r, 1.0 - 90.5 * r])
    assert qg.brute_force_optimum(FOUR, d, r).tobytes() == expected.tobytes()
    assert _reference_brute_force(FOUR, d, r).tobytes() == expected.tobytes()


def test_brute_force_builds_no_grid():
    # the dense 1,001 x 2,001 grid alone would take 16 MB per float array
    tracemalloc.start()
    try:
        qg.brute_force_optimum(FOUR, 0.5, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_pc_monotone_and_protocol_ordering():
    # p_c of the best attainable attack decreases as the allowed
    # disturbance shrinks; the six-state protocol constrains Eve more.
    # Uses the grid optimum: below eta_min = 1/3 the four-state boundary
    # formula is no longer the |overlap| minimiser.
    prev4 = prev6 = 1.0 + 1e-12
    for eta_min in np.arange(0.01, 1.0, 0.01):
        d = (1 - eta_min) / 2
        p4 = qg.success_probability(FOUR, qg.brute_force_optimum(FOUR, d, 1e-2))
        p6 = qg.success_probability(SIX, qg.brute_force_optimum(SIX, d, 1e-2))
        assert p4 <= prev4 + 1e-2 and p6 <= prev6 + 1e-2
        assert p6 <= p4 + 1e-2
        prev4, prev6 = p4, p6


def test_report_json_schema():
    obj = qg.optimal_attack(FOUR, 0.25).to_json()
    assert set(obj) == {"protocol", "eta", "D", "F", "overlap", "p_c"}
    assert obj["protocol"] == "four-state"
