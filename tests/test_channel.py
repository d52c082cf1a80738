import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import qubitgeom as qg
from qubitgeom import channel, geometry, linalg
from qubitgeom.errors import (BadDimension, NonFiniteInput, NonHermitianInput, NotCP, NotUnital,
                              QubitGeomError, UnknownName, UnphysicalBloch)

from conftest import raised, random_eta_in_D, random_rotation


def test_bloch_to_density_basics():
    assert np.allclose(qg.bloch_to_density([0, 0, 0]), np.eye(2) / 2)
    assert np.allclose(qg.bloch_to_density([0, 0, 1]), np.diag([1.0, 0.0]))
    assert np.allclose(qg.bloch_to_density([1, 0, 0]), np.full((2, 2), 0.5))


def test_bloch_to_density_purity(rng):
    for _ in range(20):
        s = rng.standard_normal(3)
        s *= rng.uniform(0, 1) / np.linalg.norm(s)
        rho = qg.bloch_to_density(s)
        purity = np.trace(rho @ rho).real
        assert abs(purity - (1 + s @ s) / 2) < 1e-10


def test_bloch_to_density_rejects_unphysical():
    with pytest.raises(UnphysicalBloch):
        qg.bloch_to_density([1.1, 0, 0])
    for s in ([np.nan, 0, 0], [0, np.inf, 0]):
        with pytest.raises(NonFiniteInput):
            qg.bloch_to_density(s)


def _reference_bloch_to_density(s):
    """The Pauli-sum form (I + s . sigma) / 2 in complex arithmetic."""
    _, sx, sy, sz = linalg.PAULIS
    return 0.5 * (np.eye(2, dtype=complex) + s[0] * sx + s[1] * sy + s[2] * sz)


def _reference_density_to_bloch(rho):
    """The trace form s_i = Tr(rho sigma_i).real, one 2x2 matmul per Pauli."""
    return np.array([np.trace(rho @ p).real for p in linalg.PAULIS[1:]])


def _seeded_states(rng):
    """Axis-aligned states with exact zeros (signed, and on the sphere), the
    centre, and random states in the ball."""
    yield np.zeros(3)
    for k in range(3):
        for v in (1.0, -1.0, 0.5, -0.25):
            s = np.zeros(3)
            s[k] = v
            yield s
            yield np.where(s == 0.0, -0.0, s)
    for _ in range(500):
        s = rng.standard_normal(3)
        yield s * rng.uniform(0, 1) / np.linalg.norm(s)


def _rough_matrix(rng):
    """A 2x2 complex matrix, not Hermitian, whose real and imaginary parts
    mix +0, -0, +-1/2 and Gaussian values."""
    parts = rng.choice([0.0, -0.0, 0.5, -0.5, *rng.standard_normal(4)], (2, 2, 2))
    m = parts[0].astype(complex)
    m.imag = parts[1]
    return m


def _rough_density(rng):
    """A density matrix with diagonal (1 +- z) / 2 and off-diagonals b +- ci,
    z, b and c in {0, +-1/4, +-1/2, +-1}, each zero part of either sign."""
    while True:
        z, b, c = rng.choice([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0], 3)
        if z * z + 4 * b * b + 4 * c * c <= 1.0:
            break
    parts = np.array([[[(1 + z) / 2, b], [b, (1 - z) / 2]], [[0.0, c], [-c, 0.0]]])
    parts[parts == 0.0] = rng.choice([0.0, -0.0], np.count_nonzero(parts == 0.0))
    m = parts[0].astype(complex)
    m.imag = parts[1]
    return m


def test_conversions_match_pauli_trace_forms(rng):
    """The closed forms give the values of the Pauli traces, also on density
    matrices whose parts mix +0 and -0; any signed-zero difference is reported
    through the byte comparison. A rough matrix is no density matrix, and
    density_to_bloch rejects it."""
    signed_zero = []
    for s in _seeded_states(rng):
        rho, ref_rho = qg.bloch_to_density(s), _reference_bloch_to_density(s)
        rough = _rough_density(rng)
        with pytest.raises(QubitGeomError):
            qg.density_to_bloch(_rough_matrix(rng))
        for got, ref in ((rho, ref_rho), (qg.density_to_bloch(rho), _reference_density_to_bloch(rho)),
                         (qg.density_to_bloch(rough), _reference_density_to_bloch(rough))):
            assert np.array_equal(got, ref)
            if got.tobytes() != ref.tobytes():
                signed_zero.append((s, got, ref))
    assert signed_zero == []


def test_density_to_bloch_rejects_non_density_matrices():
    spec = qg.compile_channel(qg.catalog("depolarize", 0.5))
    run_exact = lambda rho: qg.run_exact(spec, rho)
    run_sampled = lambda rho: qg.run_sampled(spec, rho, 10, 0)
    cases = [(np.zeros((2, 2)), UnphysicalBloch),                 # trace 0
             (3 * np.eye(2), UnphysicalBloch),                    # trace 6
             ([[1.0, 1.0], [1.0, 0.0]], UnphysicalBloch),         # |s| = sqrt(5)
             ([[0.5, 0.3], [-0.3, 0.5]], NonHermitianInput),
             ([[0.5 + 1e-9j, 0.0], [0.0, 0.5]], NonHermitianInput)]
    for rho, error in cases:
        for convert in (qg.density_to_bloch, run_exact, run_sampled):
            with pytest.raises(error):
                convert(rho)
    # within the tolerances: trace 1 + 5e-13, |s| = 1 + 5e-11, Hermitian to 5e-13
    for rho in ([[1.0 + 5e-13, 0.0], [0.0, 0.0]], [[1.0 + 2.5e-11, 0.0], [0.0, -2.5e-11]],
                [[0.5, 0.25 + 5e-13], [0.25, 0.5]]):
        for convert in (qg.density_to_bloch, run_exact, run_sampled):
            convert(rho)


def test_density_bloch_roundtrip(rng):
    for s in ([0, 0, 0], [0, 0, 1], [1, 0, 0], rng.uniform(-0.5, 0.5, 3)):
        s = np.asarray(s, dtype=float)
        assert np.max(np.abs(qg.density_to_bloch(qg.bloch_to_density(s)) - s)) < 1e-12


def test_apply_identity_and_named_maps(rng):
    s = rng.uniform(-0.5, 0.5, 3)
    assert np.allclose(qg.apply(qg.catalog("identity"), s), s)
    assert np.allclose(qg.apply(qg.catalog("universal_not"), [0, 0, 1]), [0, 0, -1])
    assert np.allclose(qg.apply(qg.catalog("pancake"), [0.3, -0.4, 0.2]), [0.3, -0.4, 0.0])


def test_choi_identity_is_pure_entangled():
    C = qg.choi(qg.catalog("identity"))
    w, _ = qg.hermitian_eig(C)
    assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.max(np.abs(C - np.outer(psi, psi))) < 1e-12


def test_choi_depolarizing_is_maximally_mixed():
    C = qg.choi(qg.AffineChannel.from_eta([0, 0, 0]))
    assert np.max(np.abs(C - np.eye(4) / 4)) < 1e-12


def test_choi_transpose_min_eigenvalue():
    w, _ = qg.hermitian_eig(qg.choi(qg.catalog("transpose")))
    assert abs(w[0] + 0.5) < 1e-12


def test_choi_matches_published_pattern(rng):
    # trace-1 normalisation: quarter of the extended-state pattern
    ex, ey, ez = rng.uniform(-1, 1, 3)
    C = qg.choi(qg.AffineChannel.from_eta([ex, ey, ez]))
    expected = 0.25 * np.array(
        [
            [1 + ez, 0, 0, ex + ey],
            [0, 1 - ez, ex - ey, 0],
            [0, ex - ey, 1 - ez, 0],
            [ex + ey, 0, 0, 1 + ez],
        ]
    )
    assert np.max(np.abs(C - expected)) < 1e-12
    assert abs(np.trace(C) - 1.0) < 1e-12


def test_choi_affine_linear(rng):
    for _ in range(20):
        c1 = qg.AffineChannel(rng.uniform(-1, 1, (3, 3)), rng.uniform(-0.2, 0.2, 3))
        c2 = qg.AffineChannel(rng.uniform(-1, 1, (3, 3)), rng.uniform(-0.2, 0.2, 3))
        lam = rng.uniform()
        mix = qg.AffineChannel(lam * c1.A + (1 - lam) * c2.A, lam * c1.b + (1 - lam) * c2.b)
        lhs = qg.choi(mix)
        rhs = lam * qg.choi(c1) + (1 - lam) * qg.choi(c2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def apply_density(ch, rho):
    """Action of the channel on a 2x2 matrix, extended linearly.

    For a density matrix this is bloch_to_density(apply(ch, s)); the linear
    extension to arbitrary 2x2 matrices is what the Choi construction needs.
    """
    rho = np.asarray(rho, dtype=complex)
    tr, *m = [np.trace(rho @ p) for p in linalg.PAULIS]
    m_out = ch.A @ m + tr * ch.b
    return 0.5 * (tr * linalg.PAULIS[0] + sum(c * p for c, p in zip(m_out, linalg.PAULIS[1:])))


def test_choi_matches_apply_density_oracle(rng):
    # (id x S)(|Psi+><Psi+|) = sum_ij E_ij (x) S(E_ij) / 2, with S extended
    # linearly by apply_density
    units = [np.outer(np.eye(2)[i], np.eye(2)[j]) for i in range(2) for j in range(2)]
    for _ in range(200):
        ch = qg.AffineChannel(rng.uniform(-1, 1, (3, 3)), rng.uniform(-0.3, 0.3, 3))
        ref = sum(np.kron(E, apply_density(ch, E)) for E in units) / 2
        assert np.max(np.abs(qg.choi(ch) - ref)) <= 1e-15


def test_affine_channel_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        qg.AffineChannel.from_eta([np.nan, 0, 0])
    with pytest.raises(NonFiniteInput):
        qg.AffineChannel(np.eye(3), [0, np.inf, 0])


def test_affine_channel_rejects_bad_shape():
    for A, b in (([[1, 0], [0, 1]], np.zeros(3)), ([[1, 0, 0], [0, 1]], np.zeros(3)),
                 (np.eye(3), [0.0, 0.0])):
        with pytest.raises(BadDimension):
            qg.AffineChannel(A, b)
    with pytest.raises(BadDimension):
        qg.channel_from_json({"A": [[1, 0], [0, 1]]})


@pytest.mark.parametrize("make", [
    pytest.param(lambda: qg.CanonicalForm(np.eye(2), np.ones(3), np.eye(3)), id="CanonicalForm"),
    pytest.param(lambda: qg.PauliMixture([0.5, 0.5, 0.0]), id="PauliMixture"),
    pytest.param(lambda: qg.NetworkSpec.from_json(
        {"u1": [[1, 0], [0, 1]], "u2": np.eye(3).tolist(), "amplitudes": [1, 0, 0, 0]}),
        id="NetworkSpec.from_json"),
    pytest.param(lambda: qg.CouplingSpec([1.0, 0.0]), id="CouplingSpec"),
    pytest.param(lambda: qg.CouplingSpec.from_alpha2([1.0, 0.0]), id="CouplingSpec.from_alpha2"),
    pytest.param(lambda: qg.Trajectory([0.0, 1.0], [[1.0, 1.0, 1.0]]), id="Trajectory"),
    pytest.param(lambda: qg.SWDecomposition(1.0, [1.0, 1.0], np.zeros(3), np.zeros(3)),
                 id="SWDecomposition"),
    pytest.param(lambda: qg.AttackReport(qg.Protocol.SIX_STATE, ["a", "b", "c"], 0.0, 1.0, 1.0, 0.5),
                 id="AttackReport"),
    pytest.param(lambda: qg.SWDecomposition("x", np.zeros(3), np.zeros(3), np.zeros(3)),
                 id="SWDecomposition-p"),
    pytest.param(lambda: qg.AttackReport(qg.Protocol.SIX_STATE, [0.5] * 3, 0.25, "x", 0.5, 0.9),
                 id="AttackReport-scalar"),
    pytest.param(lambda: qg.channel_from_json({"A": _nested(900)}), id="channel_from_json-deep"),
    pytest.param(lambda: qg.channel_from_json({"eta": _nested(100_000)}),
                 id="channel_from_json-deeper"),
    pytest.param(lambda: qg.mixture_to_eta([0.5, 0.5, 0.0]), id="mixture_to_eta"),
    pytest.param(lambda: qg.design_coupling([0.5, 0.5]), id="design_coupling"),
    pytest.param(lambda: qg.overlap(qg.Protocol.FOUR_STATE, [0.5, 0.5]), id="overlap"),
    pytest.param(lambda: qg.success_probability(qg.Protocol.FOUR_STATE, [0.5, 0.5]),
                 id="success_probability"),
    pytest.param(lambda: qg.probe_overlaps_dilation([0.5, 0.5]), id="probe_overlaps_dilation"),
    pytest.param(lambda: qg.channel_from_json("eta"), id="channel_from_json-non-object"),
    pytest.param(lambda: qg.channel_from_json({"A": {"row": 1}}), id="channel_from_json-non-numeric"),
    pytest.param(lambda: qg.density_to_bloch(np.eye(3)), id="density_to_bloch"),
    pytest.param(lambda: qg.run_exact(qg.compile_channel(qg.catalog("identity")), np.eye(3)),
                 id="run_exact"),
    pytest.param(lambda: qg.run_sampled(qg.compile_channel(qg.catalog("identity")), np.eye(3), 10, 0),
                 id="run_sampled"),
    pytest.param(lambda: qg.in_D("abc"), id="in_D-non-numeric"),
    pytest.param(lambda: qg.overlap(qg.Protocol.FOUR_STATE, ["a", "b", "c"]), id="overlap-non-numeric"),
    pytest.param(lambda: qg.AffineChannel.from_eta("abc"), id="from_eta-non-numeric"),
    pytest.param(lambda: qg.AffineChannel.from_eta(5), id="from_eta-scalar"),
    pytest.param(lambda: qg.bloch_to_density("abc"), id="bloch_to_density-non-numeric"),
])
def test_bad_shapes_raise_bad_dimension(make):
    with pytest.raises(BadDimension):
        make()


def _nested(depth: int) -> list:
    """[[...[1.0]...]], depth lists deep, built without recursion."""
    value = 1.0
    for _ in range(depth):
        value = [value]
    return value


def _band_points():
    """Points just outside D: the symmetric one behind the face opposite the
    identity, and one point behind each face at face slack 2e-9 and 3e-9."""
    pts = [-(1 / 3 + 1e-9) * np.ones(3)]
    for k, n in enumerate(geometry.FACE_NORMALS):
        inside = geometry.VERTICES[np.arange(4) != k].T @ np.array([0.5, 0.3, 0.2])
        pts += [inside + n * slack / 3 for slack in (2e-9, 3e-9)]
    return pts


def test_cp_threshold_agrees_with_tetrahedron_in_band(rng):
    for eta in _band_points():
        slack = np.max(geometry.FACE_NORMALS @ eta) - 1.0
        assert 1.5e-9 < slack < 3.5e-9
        rotated = random_rotation(rng) @ np.diag(eta) @ random_rotation(rng)
        for ch in (qg.AffineChannel.from_eta(eta), qg.AffineChannel(rotated)):
            flag, _ = qg.is_cp(ch)
            assert flag == qg.in_D(eta)
            assert not flag
            try:
                qg.compile_channel(ch)
                compiled = True
            except NotCP:
                compiled = False
            assert compiled == flag
        assert qg.pauli_weights(eta).signed and qg.sw_decompose(eta).p < 1.0
        assert not np.array_equal(qg.project_to_D(eta), eta)
        with pytest.raises(NotCP):
            qg.design_coupling(eta)


def test_is_cp_named_maps():
    flag, me = qg.is_cp(qg.catalog("identity"))
    assert flag and abs(me) < 1e-12
    flag, me = qg.is_cp(qg.catalog("universal_not"))
    assert not flag and me < 0
    flag, me = qg.is_cp(qg.AffineChannel.from_eta([-1 / 3, -1 / 3, -1 / 3]))
    assert flag and abs(me) < 1e-12


def test_is_positive_unital():
    assert qg.is_positive_unital(qg.catalog("universal_not"))
    assert not qg.is_positive_unital(qg.AffineChannel.from_eta([1.5, 0, 0]))
    with pytest.raises(NotUnital):
        qg.is_positive_unital(qg.AffineChannel(np.eye(3), [0.1, 0, 0]))


def test_canonical_form_rejects_non_unital():
    with pytest.raises(NotUnital, match="requires a unital channel"):
        qg.canonical_form(qg.AffineChannel(np.eye(3) / 2, [0.1, 0, 0]))


def test_is_positive_unital_rotation(rng):
    ch = qg.AffineChannel(random_rotation(rng), np.zeros(3))
    assert qg.is_positive_unital(ch)


def test_cp_agrees_with_tetrahedron(rng):
    for eta in rng.uniform(-1, 1, (1000, 3)):
        flag, _ = qg.is_cp(qg.AffineChannel.from_eta(eta))
        assert flag == qg.in_D(eta)


def test_positive_unital_contracts(rng):
    for _ in range(50):
        A = rng.uniform(-1, 1, (3, 3))
        _, sig, _ = qg.svd3(A)
        ch = qg.AffineChannel(A / max(sig[0], 1.0), np.zeros(3))
        assert qg.is_positive_unital(ch)
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
        assert np.linalg.norm(qg.apply(ch, s)) <= 1 + 1e-10


def _check_canonical(ch):
    form = qg.canonical_form(ch)
    assert abs(np.linalg.det(form.Q) - 1) < 1e-10
    assert abs(np.linalg.det(form.R) - 1) < 1e-10
    assert np.max(np.abs(form.Q.T @ form.Q - np.eye(3))) < 1e-10
    assert np.max(np.abs(form.R.T @ form.R - np.eye(3))) < 1e-10
    assert np.max(np.abs(form.reconstruct() - ch.A)) < 1e-10
    return form


def test_canonical_form_diagonal():
    form = _check_canonical(qg.AffineChannel.from_eta([0.5, 0.5, 0.5]))
    assert np.allclose(np.abs(form.delta), 0.5)


def test_canonical_form_rotation(rng):
    form = _check_canonical(qg.AffineChannel(random_rotation(rng), np.zeros(3)))
    assert np.allclose(np.abs(form.delta), 1.0, atol=1e-10)


def test_canonical_form_rotated_squeeze():
    th = 0.7
    Rz = np.array(
        [[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1]]
    )
    A = Rz @ np.diag([0.8, 0.5, 0.3])
    form = _check_canonical(qg.AffineChannel(A, np.zeros(3)))
    assert np.allclose(sorted(np.abs(form.delta))[::-1], [0.8, 0.5, 0.3], atol=1e-10)


def test_canonical_form_negative_determinant():
    form = _check_canonical(qg.catalog("transpose"))
    assert np.linalg.det(np.diag(form.delta)) < 0


def _reference_canonical(A):
    """The sign-vector form: delta = sigma S and R = (Q S) V^T, with
    S = diag(1, 1, sign det V^T), after Q's third column takes det Q's sign."""
    Q, sigma, Vt = np.linalg.svd(A)
    if np.linalg.det(Q) < 0:
        Q[:, 2] = -Q[:, 2]
        sigma[2] = -sigma[2]
    S = np.array([1.0, 1.0, -1.0 if np.linalg.det(Vt) < 0 else 1.0])
    return Q, sigma * S, (Q * S) @ Vt


def test_canonical_bits_locked(rng):
    """The cached canonical form keeps the SVD's arrays and flips signs in place,
    to the bits of the sign-vector form, on rotated channels with det A and
    det V^T of both signs and on signed permutations, where det U < 0 too."""
    seen = Counter()
    for i in range(1200):
        eta = rng.uniform(-1, 1, 3)
        if i % 4 >= 2:  # a signed permutation, singular for i % 4 == 3
            eta[rng.integers(3)] *= i % 4 == 2
            A = np.eye(3)[rng.permutation(3)] @ np.diag(rng.choice([-1.0, 1.0], 3) * eta)
        else:
            A = random_rotation(rng) @ np.diag(eta) @ random_rotation(rng)
        U, _, Vt = np.linalg.svd(A)
        seen[np.linalg.det(U) < 0, np.linalg.det(Vt) < 0, np.linalg.det(A) < 0] += 1
        form = qg.canonical_form(qg.AffineChannel(A))
        for got, want in zip((form.Q, form.delta, form.R), _reference_canonical(A)):
            assert got.tobytes() == want.tobytes()
    assert {(u, v) for u, v, _ in seen} == {(False, False), (False, True), (True, False), (True, True)}
    assert {(v, a) for _, v, a in seen} >= {(False, False), (True, True), (False, True), (True, False)}


def test_bloch_to_density_rejects_huge_vector_without_warning():
    """max |s_k| > 1 + ORTHO_TOL is rejected before s . s can overflow, and the
    message gives a finite |s|."""
    for s, norm in (([1e155, 0.0, 0.0], "1e+155"), ([1e308, -1e308, 0.0], "1.4142135623730951e+308"),
                    ([1.0 + 2e-10, 0.0, 0.0], "1.0000000002")):
        with pytest.raises(UnphysicalBloch) as info:
            qg.bloch_to_density(s)
        assert str(info.value) == f"|s| = {norm} exceeds 1"


def test_canonical_form_random_contractions(rng):
    for _ in range(200):
        A = rng.uniform(-1, 1, (3, 3))
        _, sig, _ = qg.svd3(A)
        if sig[0] > 1:
            A = A / sig[0]
        _check_canonical(qg.AffineChannel(A, np.zeros(3)))


def test_derived_fields_take_one_svd_per_channel(rng, monkeypatch):
    """is_cp, canonical_form, is_positive_unital and compile_channel share one SVD of a
    rotated channel; is_cp and compile_channel of a diagonal one take none."""
    svd, calls = linalg._svd, []
    monkeypatch.setattr(linalg, "_svd", lambda A: calls.append(A) or svd(A))
    rotated = qg.AffineChannel(random_rotation(rng) @ np.diag([0.5, 0.4, 0.3]) @ random_rotation(rng))
    for fn in (qg.is_cp, qg.canonical_form, qg.is_positive_unital, qg.compile_channel) * 2:
        fn(rotated)
    assert len(calls) == 1 and calls[0] is rotated.A
    for diagonal in (qg.AffineChannel.from_eta([0.5, 0.4, 0.3]), qg.AffineChannel(np.diag([0.5, 0.4, 0.3]))):
        for fn in (qg.is_cp, qg.compile_channel):
            fn(diagonal)
    assert len(calls) == 1


def test_derived_field_that_raises_stores_nothing(monkeypatch):
    """A channel whose largest singular value overflows raises on every read, each
    read decomposing again: a failure is not cached."""
    svd, calls = linalg._svd, []
    monkeypatch.setattr(linalg, "_svd", lambda A: calls.append(A) or svd(A))
    huge = qg.AffineChannel(np.full((3, 3), 1.7e308))
    for i, fn in enumerate((qg.canonical_form, qg.is_cp, qg.is_positive_unital, qg.compile_channel) * 2):
        with pytest.raises(NonFiniteInput, match="^a singular value overflows$"):
            fn(huge)
        assert len(calls) == i + 1
    assert "_canonical" not in vars(huge) and "_factors" not in vars(huge)


def test_threads_reading_a_derived_field_get_one_object(rng):
    """Eight threads released at once read the canonical form of one fresh channel:
    however many of them compute it, all get the object stored first."""
    A, interval = random_rotation(rng) * 0.5, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(100):
            ch, barrier, got = qg.AffineChannel(A), threading.Barrier(8), []

            def read():
                barrier.wait(timeout=10)
                got.append(qg.canonical_form(ch))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads) and len(got) == 8
            assert all(form is ch._canonical for form in got), i
    finally:
        sys.setswitchinterval(interval)


def test_a_channel_stores_its_canonical_form_alone(rng):
    """is_cp, compile_channel and canonical_form leave a rotated channel holding A and its
    canonical form, and b and is_unital if b was given: no other derived field is stored."""
    A = random_rotation(rng) @ np.diag([0.5, 0.4, 0.3]) @ random_rotation(rng)
    for ch, stored in ((qg.AffineChannel(A), ["A", "_canonical"]),
                       (qg.AffineChannel(A, np.zeros(3)), ["A", "b", "is_unital", "_canonical"])):
        for fn in (qg.is_cp, qg.compile_channel, qg.canonical_form):
            fn(ch)
        assert list(vars(ch)) == stored


def test_derived_fields_are_read_only_and_found_on_the_class(rng):
    ch = qg.AffineChannel(random_rotation(rng) * 0.5)
    for name in ("is_unital", "is_diagonal", "_canonical", "_factors"):
        assert isinstance(vars(channel.AffineChannel)[name], bool if name == "is_unital" else property)
        assert getattr(channel.AffineChannel, name) is vars(channel.AffineChannel)[name]
        for _ in range(2):  # before the field is computed, and after
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(ch, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(ch, name)
            getattr(ch, name)
    assert channel.AffineChannel._factors.__doc__.startswith("(delta, Q, R)")


def test_default_shift_is_shared_and_read_only():
    """A channel built without b, also from JSON, shares the one read-only zero shift; an
    explicit b, even zeros, is checked and copied."""
    for ch in (qg.AffineChannel(np.eye(3)), qg.AffineChannel.from_eta([0.5, 0.5, 0.5]),
               qg.catalog("identity"), qg.channel_from_json({"A": np.eye(3).tolist()})):
        assert ch.b is linalg._NO_SHIFT and not ch.b.flags.writeable and ch.is_unital
    zeros = np.zeros(3)
    explicit = qg.AffineChannel(np.eye(3), zeros)
    assert explicit.b is not zeros and explicit.b is not linalg._NO_SHIFT and not explicit.b.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        linalg._NO_SHIFT[0] = 1.0
    assert repr(qg.AffineChannel(np.eye(3))).endswith("b=array([0., 0., 0.]))")


_CUBE = np.array([-1.0, -0.5, -1 / 3, 0.0, 1 / 3, 0.5, 1.0])
_ODD_SIGNS = np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])


def _oracle_deltas(rng, n):
    """n seeded deltas over the cases of the canonical form: general, points of
    the cube grid (faces, edges and vertices of D among them), det < 0, rank 1
    and 2, and beyond the cube (1 < max |delta_k| <= 1.25)."""
    for i in range(n):
        kind = i % 6
        if kind == 0:
            yield rng.uniform(-1, 1, 3)
        elif kind == 1:
            yield rng.choice(_CUBE, 3)
        elif kind == 2:
            yield rng.uniform(0, 1, 3) * _ODD_SIGNS[rng.integers(4)]
        elif kind == 3:
            yield np.array([rng.uniform(-1, 1), 0.0, 0.0])
        elif kind == 4:
            yield rng.permutation([rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0])
        else:
            d = rng.uniform(-1.25, 1.25, 3)
            d[rng.integers(3)] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0 + 1e-6, 1.25)
            yield d


def test_is_cp_reads_the_choi_spectrum_from_delta(rng):
    """The minimum Pauli weight of delta is the Choi matrix's least eigenvalue:
    to the bit on a diagonal map, within 1e-15 after rotations."""
    deltas = list(_oracle_deltas(rng, 2400))
    assert min(np.sum(np.prod(deltas, axis=1) < 0), np.sum(np.max(np.abs(deltas), axis=1) > 1),
               *np.bincount(np.count_nonzero(deltas, axis=1))[1:]) >= 300
    for delta in deltas:
        diag = qg.AffineChannel.from_eta(delta)
        flag, min_eig = qg.is_cp(diag)
        assert min_eig == qg.pauli_weights(delta).p.min()
        assert flag == qg.in_D(delta)
        rotated = qg.AffineChannel(random_rotation(rng) @ np.diag(delta) @ random_rotation(rng))
        flag, min_eig = qg.is_cp(rotated)
        assert abs(min_eig - np.linalg.eigh(qg.choi(rotated))[0][0]) <= 1e-15, delta
        assert flag == qg.in_D(delta)


def test_is_cp_of_a_non_unital_channel_is_the_choi_eigenvalue(rng):
    for _ in range(300):
        ch = qg.AffineChannel(rng.uniform(-0.6, 0.6, (3, 3)), rng.uniform(-0.4, 0.4, 3))
        flag, min_eig = qg.is_cp(ch)
        assert min_eig == float(np.linalg.eigh(qg.choi(ch))[0][0])
        assert flag == (-4.0 * min_eig <= linalg.FACE_TOL)


def _fa_exceeds(lam, t, tol: Fraction) -> bool:
    """Exact, in Fractions: does sqrt(t^2 + (l1 +- l2)^2) - (1 +- l3), the face slack
    is_cp reads off a Choi block of A = diag(lam), b = (0, 0, t), exceed tol for either
    sign? At tol = 0 this is the Fujiwara-Algoet criterion (Phys. Rev. A 59, 3290
    (1999)): the channel is CP iff (l1 +- l2)^2 <= (1 +- l3)^2 - t^2. Squaring keeps
    the order, as |l3| <= 1 and tol >= 0 make 1 +- l3 + tol >= 0."""
    l1, l2, l3, t = map(Fraction, (*lam, t))
    return any(t * t + (l1 + s * l2) ** 2 > (1 + s * l3 + tol) ** 2 for s in (1, -1))


def _fa_points(rng):
    """(lam, t): uniform in the cube, on either Choi block's boundary and moved off it
    by -1e-8 to 1e-8 (past FACE_TOL and inside its band), amplitude damping moved along t."""
    points = [(rng.uniform(-1, 1, 3), rng.uniform(-1, 1)) for _ in range(150)]
    for _ in range(250):
        l3 = rng.uniform(-1, 1)
        t = rng.uniform(-1, 1) * (1 - abs(l3))
        on = np.sqrt((1 + l3) ** 2 - t * t), rng.uniform(-1, 1) * np.sqrt((1 - l3) ** 2 - t * t)
        sign = rng.choice([1, -1])  # which block: l1 + l2 or l1 - l2 on its bound
        plus, minus = on if sign == 1 else on[::-1]
        delta = rng.choice([-1e-8, -1e-12, 0.0, 1e-12, 3e-10, 9e-10, 1.1e-9, 2e-9, 1e-8])
        points.append((np.array([(plus + minus) / 2 + delta, (plus - minus) / 2 + sign * delta,
                                 l3]), t))
    for gamma in np.linspace(0, 1, 101):
        for delta in (-1e-8, 1e-8):
            points.append((np.array([np.sqrt(1 - gamma)] * 2 + [1 - gamma]), gamma + delta))
    return points


def test_non_unital_is_cp_matches_the_fujiwara_algoet_criterion(rng):
    """is_cp's verdict is the exact criterion widened by FACE_TOL, to within 1e-14 of
    it, on diagonal A with b along z and on rotated copies (R A R^T, R b), whose Choi
    matrices are unitarily equivalent and take the general path."""
    tol, eps = Fraction(linalg.FACE_TOL), Fraction(1, 10 ** 14)
    verdicts = Counter()
    for lam, t in _fa_points(rng):
        A, b, R = np.diag(lam), np.array([0.0, 0.0, t]), random_rotation(rng)
        for A, b in ((A, b), (R @ A @ R.T, R @ b)):
            flag = qg.is_cp(qg.AffineChannel(A, b))[0]
            if not _fa_exceeds(lam, t, tol - eps):
                assert flag, (lam, t)
                verdicts["CP" if not _fa_exceeds(lam, t, Fraction(0)) else "band"] += 1
            elif _fa_exceeds(lam, t, tol + eps):
                assert not flag, (lam, t)
                verdicts["not CP"] += 1
    assert min(verdicts.values()) >= 60, verdicts


def test_amplitude_damping_is_cp_on_the_boundary():
    """Amplitude damping, eta = (sqrt(1 - g), sqrt(1 - g), 1 - g) and b = (0, 0, g),
    lies on the boundary of the CP set: exactly within 1e-15, a least Choi
    eigenvalue within 1e-15 of 0, and is_cp accepts it at every g."""
    for gamma in np.linspace(0, 1, 2001):
        lam = np.array([np.sqrt(1 - gamma)] * 2 + [1 - gamma])
        assert not _fa_exceeds(lam, gamma, Fraction(1, 10 ** 15))
        flag, min_eig = qg.is_cp(qg.AffineChannel(np.diag(lam), [0.0, 0.0, gamma]))
        assert flag and abs(min_eig) <= 1e-15, gamma


@pytest.fixture
def calls(monkeypatch):
    """Counts of the SVDs, Choi matrices and Hermitian eigensolves run."""
    counts = Counter()

    def spy(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    spy(np.linalg, "svd")
    spy(np.linalg, "eigh")
    spy(channel, "choi")
    return counts


@pytest.mark.parametrize("then", [qg.compile_channel, qg.canonical_form, qg.is_positive_unital])
def test_one_factorisation_per_channel(then, calls, rng):
    A = random_rotation(rng) @ np.diag([0.5, 0.3, -0.2]) @ random_rotation(rng)
    ch = qg.AffineChannel(A)
    assert qg.is_cp(ch)[0]
    then(ch)
    assert calls == {"svd": 1}
    assert qg.canonical_form(ch) is qg.canonical_form(ch)
    assert calls == {"svd": 1}


def test_factorisation_counts_by_kind(calls):
    diag = qg.AffineChannel.from_eta([0.5, 0.3, -0.2])
    qg.is_cp(diag)
    qg.compile_channel(diag)
    assert calls == {}  # a diagonal channel compiles without rotations
    qg.is_cp(qg.AffineChannel(np.diag([0.5, 0.3, -0.2]), [0.1, 0.0, 0.0]))
    assert calls == {"choi": 1, "eigh": 1}  # a non-unital channel has no delta


def test_catalog_entries():
    assert np.allclose(qg.catalog("transpose").eta, [1, -1, 1])
    assert np.allclose(qg.catalog("universal_not").eta, [-1, -1, -1])
    assert np.allclose(qg.catalog("identity").eta, [1, 1, 1])
    assert np.allclose(qg.catalog("depolarize", 0.4).eta, [0.6, 0.6, 0.6])
    with pytest.raises(UnknownName):
        qg.catalog("hadamard")
    with pytest.raises(UnknownName):
        qg.catalog("depolarize")
    for name in ("identity", "transpose"):  # a parameter is refused, not dropped
        assert raised(qg.catalog, name, 0.5) == (UnknownName, f"{name} takes no parameter")


def channel_to_json(ch):
    """The channel JSON schema channel_from_json reads: {"eta": [...]} for a
    diagonal unital channel, {"A": [[...]], "b": [...]} otherwise."""
    if ch.is_diagonal:
        return {"eta": list(ch.eta)}
    return {"A": ch.A.tolist(), "b": ch.b.tolist()}


def test_channel_json_roundtrip(rng):
    ch = qg.AffineChannel.from_eta([0.2, -0.3, 0.4])
    obj = channel_to_json(ch)
    assert "eta" in obj
    back = qg.channel_from_json(obj)
    assert np.max(np.abs(back.A - ch.A)) < 1e-15

    ch2 = qg.AffineChannel(rng.uniform(-1, 1, (3, 3)), [0.1, 0, 0])
    obj2 = channel_to_json(ch2)
    assert "A" in obj2
    back2 = qg.channel_from_json(obj2)
    assert np.max(np.abs(back2.A - ch2.A)) < 1e-15
    assert np.max(np.abs(back2.b - ch2.b)) < 1e-15
