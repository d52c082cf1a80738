import numpy as np
import pytest

import qubitgeom as qg
from qubitgeom import channel as qchannel
from qubitgeom import geometry, linalg, network, serialize
from qubitgeom.errors import (BadDimension, DisturbanceOutOfRange, NotCP, NotUnital, QubitGeomError,
                              UnphysicalBloch)

from conftest import random_density, random_eta_in_D, random_rotation, trace_distance


def random_cp_unital(rng) -> qg.AffineChannel:
    A = random_rotation(rng) @ np.diag(random_eta_in_D(rng)) @ random_rotation(rng)
    return qg.AffineChannel(A, np.zeros(3))


def test_compile_identity():
    spec = qg.compile_channel(qg.catalog("identity"))
    assert np.allclose(spec.u1, np.eye(3))
    assert np.allclose(spec.u2, np.eye(3))
    assert np.allclose(spec.weights, [1, 0, 0, 0])


def test_compile_depolarizing():
    spec = qg.compile_channel(qg.AffineChannel.from_eta([0, 0, 0]))
    assert np.allclose(spec.weights, [0.25, 0.25, 0.25, 0.25])


def test_compile_best_unot_approximation():
    spec = qg.compile_channel(qg.AffineChannel.from_eta([-1 / 3, -1 / 3, -1 / 3]))
    assert np.allclose(spec.weights, [0, 1 / 3, 1 / 3, 1 / 3])


def test_compile_rejects_non_cp_and_non_unital():
    with pytest.raises(NotCP):
        qg.compile_channel(qg.catalog("universal_not"))
    with pytest.raises(NotUnital):
        qg.compile_channel(qg.AffineChannel(0.5 * np.eye(3), [0.1, 0, 0]))


def test_run_exact_identity_and_depolarizing(rng):
    rho0 = random_density(rng)
    spec = qg.compile_channel(qg.catalog("identity"))
    assert np.max(np.abs(qg.run_exact(spec, rho0) - rho0)) < 1e-12
    spec = qg.compile_channel(qg.AffineChannel.from_eta([0, 0, 0]))
    assert np.max(np.abs(qg.run_exact(spec, rho0) - np.eye(2) / 2)) < 1e-12


def test_run_exact_diagonal_action():
    spec = qg.compile_channel(qg.AffineChannel.from_eta([2 / 3, 2 / 3, 1 / 3]))
    out = qg.run_exact(spec, qg.bloch_to_density([1.0, 0, 0]))
    assert np.max(np.abs(qg.density_to_bloch(out) - [2 / 3, 0, 0])) < 1e-10


def test_compile_run_roundtrip(rng):
    for _ in range(200):
        ch = random_cp_unital(rng)
        spec = qg.compile_channel(ch)
        induced = network.induced_channel(spec)
        assert np.max(np.abs(qg.choi(induced) - qg.choi(ch))) < 1e-10
        rho0 = random_density(rng)
        expected = qg.bloch_to_density(qg.apply(ch, qg.density_to_bloch(rho0)))
        assert np.max(np.abs(qg.run_exact(spec, rho0) - expected)) < 1e-10


def test_run_sampled_single_branch(rng):
    rho0 = random_density(rng)
    spec = qg.compile_channel(qg.catalog("identity"))
    est, err = qg.run_sampled(spec, rho0, 10, seed=1)
    assert np.max(np.abs(est - rho0)) < 1e-12
    assert err == 0.0


def test_run_sampled_depolarizing_error_bound(rng):
    n = 10**5
    spec = qg.compile_channel(qg.AffineChannel.from_eta([0, 0, 0]))
    rho0 = qg.bloch_to_density([0, 0, 1.0])
    est, _ = qg.run_sampled(spec, rho0, n, seed=11)
    assert trace_distance(est, np.eye(2) / 2) < 5 / np.sqrt(n)


def test_run_sampled_deterministic():
    spec = qg.compile_channel(qg.AffineChannel.from_eta([0.4, 0.2, 0.1]))
    rho0 = qg.bloch_to_density([0.3, -0.2, 0.5])
    out1 = qg.run_sampled(spec, rho0, 5000, seed=42)
    out2 = qg.run_sampled(spec, rho0, 5000, seed=42)
    assert np.array_equal(out1[0], out2[0])
    assert out1[1] == out2[1]


def test_run_sampled_converges():
    spec = qg.compile_channel(qg.AffineChannel.from_eta([0.4, 0.2, 0.1]))
    rho0 = qg.bloch_to_density([0.3, -0.2, 0.5])
    exact = qg.run_exact(spec, rho0)
    e4 = trace_distance(qg.run_sampled(spec, rho0, 10**4, seed=3)[0], exact)
    e6 = trace_distance(qg.run_sampled(spec, rho0, 10**6, seed=3)[0], exact)
    assert e4 < 10 * e6


def test_run_sampled_rejects_bad_count(rng):
    spec = qg.compile_channel(qg.catalog("identity"))
    for n, error in ((0, DisturbanceOutOfRange), (2.5, BadDimension), (2.0, BadDimension),
                     ("10", BadDimension)):
        with pytest.raises(error):
            qg.run_sampled(spec, random_density(rng), n, seed=0)
    rho0 = qg.bloch_to_density([0, 0, 1])
    assert qg.run_sampled(spec, rho0, np.int64(2), seed=0)[1] == 0.0


def test_network_spec_validation():
    nan_rotation = np.eye(3)
    nan_rotation[0, 1] = np.nan
    for u1, weights in ((np.eye(3), [1.0, 1.0, 0.0, 0.0]), (2 * np.eye(3), [1.0, 0.0, 0.0, 0.0]),
                        (np.eye(3), [np.nan, 0.0, 0.0, 0.0]), (nan_rotation, [1.0, 0.0, 0.0, 0.0]),
                        (np.eye(3), [1.5, -0.5, 0.0, 0.0])):
        with pytest.raises(QubitGeomError):
            qg.NetworkSpec(u1, np.eye(3), weights)
    for u1 in (2 * np.eye(3), np.diag([1.0, 1.0, -1.0])):  # not orthogonal, improper
        with pytest.raises(UnphysicalBloch):
            qg.NetworkSpec(u1, np.eye(3), [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(QubitGeomError):
        qg.NetworkSpec(np.eye(3), nan_rotation, [1.0, 0.0, 0.0, 0.0])


def test_network_spec_json_roundtrip(rng):
    spec = qg.compile_channel(random_cp_unital(rng))
    back = qg.NetworkSpec.from_json(spec.to_json())
    assert np.max(np.abs(back.u1 - spec.u1)) < 1e-15
    assert np.max(np.abs(back.u2 - spec.u2)) < 1e-15
    assert np.max(np.abs(back.weights - spec.weights)) < 1e-15


def test_network_spec_json_holds_json_numbers_only():
    """channel_from_json's rule: a JSON boolean or string is not a number, though numpy
    would read true as 1 and "1" as 1."""
    eye = np.eye(3).tolist()
    for obj, key in (({"u1": eye, "u2": eye, "amplitudes": [True, False, False, False]}, "amplitudes"),
                     ({"u1": [["1", 0, 0], [0, 1, 0], [0, 0, 1]], "u2": eye, "amplitudes": [1, 0, 0, 0]},
                      "u1"),
                     ({"u1": eye, "u2": eye, "amplitudes": ["1", "0", "0", "0"]}, "amplitudes")):
        with pytest.raises(BadDimension, match=f"^{key} must hold JSON numbers only$"):
            qg.NetworkSpec.from_json(obj)
    spec = qg.NetworkSpec.from_json({"u1": eye, "u2": eye, "amplitudes": [1, 0, 0, 0]})
    assert spec.weights.tolist() == [1.0, 0.0, 0.0, 0.0]  # integers are JSON numbers


def _spec_from_amplitudes(u1, u2, amplitudes) -> qg.NetworkSpec:  # arrays, passed as JSON lists
    return qg.NetworkSpec.from_json({"u1": u1.tolist(), "u2": u2.tolist(),
                                     "amplitudes": amplitudes.tolist()})


def _reference_compile(ch: qg.AffineChannel) -> qg.NetworkSpec:
    """The compiler before it read CP off the canonical diagonal: a Choi test
    first, then a search over the two-sign flips of delta."""
    if not ch.is_unital:
        raise NotUnital("the network realises unital channels only")
    ok, min_eig = qg.is_cp(ch)
    if not ok:
        raise NotCP(f"channel is not CP (Choi min eigenvalue {min_eig:.3e})")
    if ch.is_diagonal and qg.in_D(ch.eta):
        weights = np.clip(qg.pauli_weights(ch.eta).p, 0.0, None)
        return _spec_from_amplitudes(np.eye(3), np.eye(3), np.sqrt(weights / np.sum(weights)))
    form = qg.canonical_form(ch)
    for v in geometry.VERTICES:
        delta = form.delta * v
        if qg.in_D(delta):
            u1 = np.diag(v) @ form.Q.T @ form.R
            weights = np.clip(qg.pauli_weights(delta).p, 0.0, None)
            return _spec_from_amplitudes(u1, form.Q, np.sqrt(weights / np.sum(weights)))
    raise NotCP("no sign convention places the diagonal inside the tetrahedron")


def _equivalence_channels(rng, n):
    """Rotated channels (half of them within 3e-9 of a face of D), diagonal
    channels and signed permutations of diagonals, each diagonal with one
    exact zero."""
    for i in range(n):
        eta = rng.uniform(-1, 1, 3)
        if i % 3 == 0:
            if i % 2:
                k = np.argmax(geometry.FACE_NORMALS @ eta)
                n_k = geometry.FACE_NORMALS[k]
                eta = eta + n_k * (1.0 - n_k @ eta + rng.uniform(-3e-9, 3e-9)) / 3
            yield random_rotation(rng) @ np.diag(eta) @ random_rotation(rng)
            continue
        eta[rng.integers(3)] = 0.0
        if i % 3 == 1:
            yield np.diag(eta)
        else:
            signs = rng.choice([-1.0, 1.0], 3)
            yield np.eye(3)[rng.permutation(3)] @ np.diag(signs * eta)


def _compile_outcome(compile_fn, ch):
    try:
        return serialize.dumps(compile_fn(ch).to_json())
    except NotCP as exc:
        return f"NotCP: {exc}"


def test_compile_matches_reference(rng, monkeypatch):
    trusted = []

    def record(cls, **arrays):
        trusted.append(linalg._trusted(cls, **arrays))
        return trusted[-1]

    for module in (qchannel, geometry, network):
        monkeypatch.setattr(module, "_trusted", record)
    outcomes = []
    for A in _equivalence_channels(rng, 2400):
        ch = qg.AffineChannel(A, np.zeros(3))
        outcomes.append(_compile_outcome(qg.compile_channel, ch))
        assert outcomes[-1] == _compile_outcome(_reference_compile, ch)
    n_not_cp = sum(o.startswith("NotCP") for o in outcomes)
    assert 600 < n_not_cp < 1800
    # Every value built without its checks passes them unchanged.
    assert {type(v) for v in trusted} == {qg.NetworkSpec, qg.CanonicalForm, qg.PauliMixture}
    for value in trusted:
        arrays = {name: getattr(value, name) for name in value._fields}
        assert not any(a.flags.writeable for a in arrays.values())
        rebuilt = type(value)(**arrays)
        assert all(getattr(rebuilt, k).tobytes() == a.tobytes() for k, a in arrays.items())


def test_compile_after_is_cp_matches_fresh_compile(rng):
    """compile_channel reads the factors is_cp cached; the spec is the one a
    channel that has not been asked is_cp compiles to, byte for byte."""
    compiled = 0
    for A in _equivalence_channels(rng, 600):
        asked, fresh = qg.AffineChannel(A), qg.AffineChannel(A)
        if not qg.is_cp(asked)[0]:
            continue
        first, second = qg.compile_channel(asked), qg.compile_channel(fresh)
        for name in ("u1", "u2", "weights"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        compiled += 1
    assert compiled > 200


def test_compile_checks_nothing_twice(rng, monkeypatch):
    """A rotated channel compiles without NetworkSpec.__init__ re-checking
    the rotations canonical_form built, and without a determinant."""
    ch, calls = random_cp_unital(rng), []
    det, init = network._det3, qg.NetworkSpec.__init__
    monkeypatch.setattr(network, "_det3", lambda M: calls.append("det") or det(M))
    monkeypatch.setattr(qg.NetworkSpec, "__init__",
                        lambda self, *args: calls.append("init") or init(self, *args))
    spec = qg.compile_channel(ch)
    assert calls == []
    qg.NetworkSpec(spec.u1, spec.u2, spec.weights)  # the spies see the public constructor
    assert calls == ["init", "det", "det"]
