import sys
from collections import Counter

import numpy as np
import pytest

import qubitgeom as qg
from qubitgeom import linalg
from qubitgeom.errors import BadDimension, NonFiniteInput, NonHermitianInput, NotCP, QubitGeomError

from conftest import random_hermitian, random_rotation


def charpoly_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Independent eigenvalue oracle: roots of the characteristic polynomial.

    Repeated roots are ill-conditioned for polynomial root finding (error
    ~ eps^(1/m) for an m-fold root), so callers must compare loosely.
    """
    coeffs = np.poly(M)
    roots = np.roots(coeffs)
    assert np.max(np.abs(roots.imag)) < 1e-5
    return np.sort(roots.real)


def test_identity_eigenvalues():
    w, _ = linalg.hermitian_eig(np.eye(4, dtype=complex))
    assert np.allclose(w, np.ones(4), atol=1e-12)


def test_diagonal_eigenvalues_sorted():
    w, _ = linalg.hermitian_eig(np.diag([3.0, -1.0, 2.0, 0.0]).astype(complex))
    assert np.allclose(w, [-1.0, 0.0, 2.0, 3.0], atol=1e-12)


def test_transpose_choi_eigenvalues_match_charpoly_oracle():
    # Choi pattern of eta = (1, -1, 1) at trace-1 normalisation.
    ex, ey, ez = 1.0, -1.0, 1.0
    M = 0.25 * np.array(
        [
            [1 + ez, 0, 0, ex + ey],
            [0, 1 - ez, ex - ey, 0],
            [0, ex - ey, 1 - ez, 0],
            [ex + ey, 0, 0, 1 + ez],
        ],
        dtype=complex,
    )
    w, _ = linalg.hermitian_eig(M)
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert np.allclose(w, charpoly_eigenvalues(M), atol=1e-4)


def test_eig_postconditions_random(rng):
    for _ in range(50):
        M = random_hermitian(rng, 4)
        w, V = linalg.hermitian_eig(M)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.max(np.abs(V.conj().T @ V - np.eye(4))) < 1e-10
        assert np.max(np.abs(M @ V - V * w)) < 1e-10
        recon = (V * w) @ V.conj().T
        assert np.max(np.abs(recon - M)) < 1e-9


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_finite_matrices_rejected():
    # NaN - NaN is NaN, and a NaN deviation passes no "> tol" test
    spec = qg.CouplingSpec.from_alpha2([1 / 3, 1 / 3, 1 / 3])
    network = qg.compile_channel(qg.catalog("identity"))
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 0.0])):
        with pytest.raises(NonFiniteInput):
            linalg.hermitian_eig(bad)
        with pytest.raises(NonFiniteInput):
            linalg.unitary_exp(bad, 1.0)
        with pytest.raises(NonFiniteInput):
            qg.simulate_reduced(spec, 1.0, bad)
        with pytest.raises(NonFiniteInput):
            qg.density_to_bloch(bad)
        with pytest.raises(NonFiniteInput):
            qg.run_exact(network, bad)
        with pytest.raises(NonFiniteInput):
            qg.run_sampled(network, bad, 10, 0)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInput):
            linalg.unitary_exp(np.eye(2), t)


def test_svd3_identity_and_zero():
    U, s, V = linalg.svd3(np.eye(3))
    assert np.allclose(s, 1.0)
    _, s0, _ = linalg.svd3(np.zeros((3, 3)))
    assert np.allclose(s0, 0.0)


def test_svd3_signed_diagonal():
    A = np.diag([2.0, -1.0, 0.5])
    U, s, V = linalg.svd3(A)
    assert np.allclose(s, [2.0, 1.0, 0.5], atol=1e-12)
    assert np.max(np.abs(U @ np.diag(s) @ V.T - A)) < 1e-10


def test_svd3_random_reconstruction(rng):
    for _ in range(100):
        A = rng.standard_normal((3, 3))
        U, s, V = linalg.svd3(A)
        assert np.all(s >= 0) and np.all(np.diff(s) <= 1e-12)
        assert np.max(np.abs(U.T @ U - np.eye(3))) < 1e-10
        assert np.max(np.abs(V.T @ V - np.eye(3))) < 1e-10
        assert np.max(np.abs(U @ np.diag(s) @ V.T - A)) < 1e-10


def test_unitary_exp_t0_is_identity(rng):
    H = random_hermitian(rng, 8)
    assert np.max(np.abs(linalg.unitary_exp(H, 0.0) - np.eye(8))) < 1e-12


def test_unitary_exp_diagonal_phases():
    U = linalg.unitary_exp(np.diag([1.0, -1.0]).astype(complex), np.pi)
    assert np.allclose(U, np.diag([-1.0, -1.0]), atol=1e-12)


def test_unitary_exp_coupled_subspace_vs_series(rng):
    # sigma_x on the qubit coupled to an ancilla swap, padded to dim 8.
    hop = np.zeros((4, 4), dtype=complex)
    hop[0, 1] = hop[1, 0] = 1.0
    H = np.kron(linalg.SIGMA_X, hop)
    t = np.pi / 2
    U = linalg.unitary_exp(H, t)
    # series oracle
    series = np.zeros((8, 8), dtype=complex)
    term = np.eye(8, dtype=complex)
    for k in range(40):
        series += term
        term = term @ (-1j * t * H) / (k + 1)
    assert np.max(np.abs(U - series)) < 1e-10
    # H^2 = I on the coupled subspace, so U^2 acts as -identity there
    P = np.kron(np.eye(2), np.diag([1.0, 1.0, 0.0, 0.0]))
    assert np.max(np.abs(P @ (U @ U) @ P + P)) < 1e-10


def test_unitary_exp_group_property(rng):
    H = random_hermitian(rng, 4)
    s, t = 0.3, 1.1
    lhs = linalg.unitary_exp(H, s) @ linalg.unitary_exp(H, t)
    assert np.max(np.abs(lhs - linalg.unitary_exp(H, s + t))) < 1e-9


def test_partial_trace_product_state(rng):
    from conftest import random_density

    rho_q = random_density(rng)
    for dim in (3, 4):
        anc = np.zeros((dim, dim), dtype=complex)
        anc[0, 0] = 1.0
        out = linalg.partial_trace_ancilla(np.kron(rho_q, anc))
        assert np.max(np.abs(out - rho_q)) < 1e-12


def test_partial_trace_takes_any_integer_ancilla_dim(rng):
    """The ancilla dimension d is read from a 2d x 2d input; d = 1 returns the input."""
    from conftest import random_density

    rho_q = random_density(rng)
    assert np.array_equal(linalg.partial_trace_ancilla(rho_q), rho_q)
    for dim in (1, 2, 3, 5):
        rho = np.eye(2 * dim) / (2 * dim)
        assert np.max(np.abs(linalg.partial_trace_ancilla(rho) - np.eye(2) / 2)) < 1e-12


def test_partial_trace_maximally_mixed():
    out = linalg.partial_trace_ancilla(np.eye(8, dtype=complex) / 8.0)
    assert np.max(np.abs(out - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_ancilla_unitary_invariance(rng):
    from conftest import random_hermitian as rh

    for _ in range(20):
        M = rh(rng, 8)
        rho = M @ M.conj().T
        rho /= np.trace(rho)
        w, V = np.linalg.eigh(rh(rng, 4))
        U_anc = V  # any ancilla unitary
        U = np.kron(np.eye(2), U_anc)
        out1 = linalg.partial_trace_ancilla(rho)
        out2 = linalg.partial_trace_ancilla(U @ rho @ U.conj().T)
        assert np.max(np.abs(out1 - out2)) < 1e-10
        # an 8x8 input is traced with d = 4, the bits of the former default
        assert np.array_equal(out1, np.einsum("iaja->ij", rho.reshape(2, 4, 2, 4)))


def test_partial_trace_linear_trace_preserving(rng):
    from conftest import random_hermitian as rh

    A, B = rh(rng, 8), rh(rng, 8)
    lhs = linalg.partial_trace_ancilla(0.3 * A + 0.7 * B + 0j)
    rhs = 0.3 * linalg.partial_trace_ancilla(A) + 0.7 * linalg.partial_trace_ancilla(B)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert abs(np.trace(linalg.partial_trace_ancilla(A)) - np.trace(A)) < 1e-12


def test_partial_trace_bad_dimension():
    for n in (1, 3, 5):  # no qubit (x) ancilla split
        with pytest.raises(BadDimension):
            linalg.partial_trace_ancilla(np.eye(n, dtype=complex) / n)


@pytest.fixture
def checks(monkeypatch):
    """(check name, checked value) of every _real and require_hermitian call,
    spied on in each module namespace that looks the name up."""
    seen = []
    for name in ("_real", "require_hermitian"):
        original = getattr(linalg, name)

        def spy(x, *args, _name=name, _original=original, **kwargs):
            seen.append((_name, x))
            return _original(x, *args, **kwargs)

        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "qubitgeom"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return seen


def checked_by(checks, fn, *args):
    """fn(*args) (None if it raises NotCP) and the values it checked."""
    checks.clear()
    try:
        result = fn(*args)
    except NotCP:
        result = None
    return result, [x for _, x in checks]


def same(values, expected):
    return len(values) == len(expected) and all(v is e for v, e in zip(values, expected))


def _numpy_require_hermitian(M):
    """The numpy form of the Hermitian check that require_hermitian replaces."""
    M = np.asarray(M, dtype=complex)
    if np.count_nonzero(np.isfinite(M)) != M.size:
        raise NonFiniteInput("matrix must be finite")
    dev = np.abs(M - M.conj().T).max()
    if dev > linalg.ROUND_TOL:
        raise NonHermitianInput(f"Hermitian deviation {dev:.3e} exceeds {linalg.ROUND_TOL:.1e}")
    return M


def _outcome(check, M):
    try:
        return check(M).tobytes()
    except QubitGeomError as exc:
        return type(exc), str(exc)


def _hermitian_cases(rng, n):
    tol = linalg.ROUND_TOL
    edges = [np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)]  # ROUND_TOL and one ulp each way
    for _ in range(40):
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = X + X.conj().T
        yield H
        yield H + rng.uniform(-1e-12, 1e-12, (n, n))
        i, j = rng.choice(n, 2, replace=False)
        for d in edges:
            for unit in (1.0, 1j, -1.0, -1j):
                M = np.zeros((n, n), dtype=complex)
                M[i, j] = d * unit  # |M_ij - conj M_ji| = d exactly
                yield M
                M = np.eye(n, dtype=complex)
                M[i, i] += d * unit  # a diagonal entry: deviation |2 Im M_ii|
                yield M
        for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 0.0), complex(0.0, -np.inf),
                    complex(np.nan, 1.0), complex(np.inf, np.inf)):
            M = H.copy()
            M[i, j] = bad
            yield M


@pytest.mark.parametrize("n", [2, 4, 8])
def test_require_hermitian_matches_numpy_form(n, rng):
    """The tolist() check gives the numpy form's verdict, exception type and
    message on 2x2, 4x4 and 8x8 inputs: Hermitian, off by ROUND_TOL and one ulp
    either way, and holding NaN, +-inf or a complex infinity."""
    kinds = Counter()
    for M in _hermitian_cases(rng, n):
        got = _outcome(linalg.require_hermitian, M)
        assert got == _outcome(_numpy_require_hermitian, M)
        kinds[got[0] if isinstance(got, tuple) else "ok"] += 1
    assert kinds["ok"] > 0 and kinds[NonHermitianInput] > 0 and kinds[NonFiniteInput] > 0


def test_require_hermitian_overflow_is_a_verdict():
    """A deviation past the largest double is NonHermitianInput, without a warning:
    the subtraction overflows, or abs of a finite difference does."""
    for M, dev in (([[0.0, 1e308], [-1e308, 0.0]], "inf"),
                   ([[0.0, 1e308 + 1e308j], [0.0, 0.0]], "1.414e+308"),
                   ([[0.0, 1.7e308 + 1.7e308j], [0.0, 0.0]], "inf")):
        with pytest.raises(NonHermitianInput) as info:
            linalg.require_hermitian(M)
        assert str(info.value) == f"Hermitian deviation {dev} exceeds 1.0e-12"


@pytest.mark.parametrize("delta", [(0.4, 0.3, 0.2), (0.9, 0.8, -0.7)], ids=["cp", "not-cp"])
def test_channel_path_checks_only_what_it_is_passed(delta, rng, checks):
    """Validate once: a public call checks its own arguments, and nothing the
    program built (the frozen A, the canonical delta, the constants of compose)."""
    A = random_rotation(rng) @ np.diag(delta) @ random_rotation(rng)
    ch, rho = qg.AffineChannel(A, np.zeros(3)), qg.bloch_to_density([0.0, 0.6, 0.8])
    assert same(checked_by(checks, qg.is_cp, ch)[1], [])
    assert same(checked_by(checks, qg.is_positive_unital, ch)[1], [])
    form, seen = checked_by(checks, qg.canonical_form, ch)
    assert same(seen, [])
    spec, seen = checked_by(checks, qg.compile_channel, ch)
    assert same(seen, []) and (spec is None) == (delta[2] < 0)
    if spec is not None:
        assert same(checked_by(checks, qg.run_exact, spec, rho)[1], [rho])
    assert same(checked_by(checks, qg.in_D, form.delta)[1], [form.delta])
    assert same(checked_by(checks, qg.project_to_D, form.delta)[1], [form.delta])
    split, seen = checked_by(checks, qg.sw_decompose, form.delta)
    assert same(seen, [form.delta]) and (split.p < 1.0) == (spec is None)


def test_dynamics_and_qkd_check_only_what_they_are_passed(checks):
    spec = qg.CouplingSpec.from_alpha2([0.2, 0.3, 0.5])  # its eigendecomposition is not cached yet
    rho0, t, grid, d_max = qg.bloch_to_density([0.0, 0.6, 0.8]), 1.0, np.linspace(0, 3, 7), 0.25
    checked_by(checks, qg.simulate_reduced, spec, t, rho0)
    assert [name for name, x in checks if x is rho0] == ["require_hermitian"]  # one rho0 check
    assert same([x for _, x in checks], [t, rho0])  # nothing on H or the 8x8 evolved state
    assert same(checked_by(checks, qg.trajectory, spec, grid)[1], [grid])
    for protocol in qg.Protocol:
        assert same(checked_by(checks, qg.optimal_attack, protocol, d_max)[1], [d_max])
        for eta in ([0.6, 0.6, 0.6], [-0.6, -0.6, -0.6]):  # in D, and not
            p_c, seen = checked_by(checks, qg.success_probability, protocol, eta)
            assert same(seen, [eta]) and (p_c is None) == (eta[0] < 0)
    for target in ([0.2, -0.1, 0.05], [1.0, 1.0, 1.0], [-0.6, -0.6, -0.6]):  # the last not CP
        result, seen = checked_by(checks, qg.design_coupling, target)
        assert same(seen, [target]) and (result is None) == (target[0] < 0)
    assert same(checked_by(checks, qg.catalog, "pancake")[1], [])
    p = 0.25
    assert same(checked_by(checks, qg.catalog, "depolarize", p)[1], [p])
