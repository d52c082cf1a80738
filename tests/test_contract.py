"""Contract of the public surface: whatever a caller passes, every callable in
qubitgeom.__all__ returns a finite result or raises a QubitGeomError subclass,
and every CLI verb exits 0 or 2, never 1 (an internal fault).

The fuzz replaces one argument of a valid call at a time, and a fixed list of
special values goes through every such argument. Arguments that take
numbers (arrays, scalars, counts, seeds) get strings, None, NaN, +-inf, floats
over the whole double range, wrong shapes, complex values and negative or huge
integers, and so does a protocol, which takes a Protocol or its value; an
argument that takes a library object (a channel, a spec, a network) keeps a
valid one. Named cases hold finite input near the largest double, or a matrix
whose eigendecomposition does not converge, to a refusal with no warning.

A sweep over the valid extremes (the vertices, corners, edges and faces of D,
singular and improper channels, and the attack budgets 0, 1/3 and 1/2) holds
each call to the same contract, with any warning a failure.
"""

import contextlib
import io
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import qubitgeom as qg
from qubitgeom import cli, geometry, linalg
from qubitgeom.errors import (BadDimension, DisturbanceOutOfRange, EmptyIntersection, NonFiniteInput,
                              QubitGeomError, UnknownName, UnphysicalBloch, WeightsNotNormalized)

SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

FOUR = qg.Protocol.FOUR_STATE
SPEC = qg.CouplingSpec.from_alpha2([0.2, 0.3, 0.5])
CH = qg.catalog("depolarize", 0.3)
NET = qg.compile_channel(CH)
RHO = qg.bloch_to_density([0.0, 0.6, 0.8])

# name -> (callable, valid arguments, indices of the arguments that take numbers)
CALLS = {
    "AffineChannel": (qg.AffineChannel, [np.eye(3), np.zeros(3)], (0, 1)),
    "AffineChannel.from_eta": (qg.AffineChannel.from_eta, [[0.5, 0.2, 0.1]], (0,)),
    "CanonicalForm": (qg.CanonicalForm, [np.eye(3), np.ones(3), np.eye(3)], (0, 1, 2)),
    "apply": (qg.apply, [CH, [0.0, 0.0, 1.0]], (1,)),
    "bloch_to_density": (qg.bloch_to_density, [[0.0, 0.0, 1.0]], (0,)),
    "canonical_form": (qg.canonical_form, [CH], ()),
    "catalog": (qg.catalog, ["depolarize", 0.3], (0, 1)),
    "channel_from_json": (qg.channel_from_json, [{"eta": [0.5, 0.2, 0.1]}], (0,)),
    "choi": (qg.choi, [CH], ()),
    "density_to_bloch": (qg.density_to_bloch, [RHO], (0,)),
    "is_cp": (qg.is_cp, [CH], ()),
    "is_positive_unital": (qg.is_positive_unital, [CH], ()),
    "CouplingSpec": (qg.CouplingSpec, [[1.0, 0.0, 0.0]], (0,)),
    "CouplingSpec.from_alpha2": (qg.CouplingSpec.from_alpha2, [[0.2, 0.3, 0.5]], (0,)),
    "Trajectory": (qg.Trajectory, [[0.0, 1.0], [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]], (0, 1)),
    "design_coupling": (qg.design_coupling, [[0.2, -0.1, 0.05]], (0,)),
    "eta_of_t": (qg.eta_of_t, [SPEC, 1.0], (1,)),
    "simulate_reduced": (qg.simulate_reduced, [SPEC, 1.0, RHO], (1, 2)),
    "trajectory": (qg.trajectory, [SPEC, [0.0, 0.5, 1.0]], (1,)),
    "trajectory_to_csv": (qg.trajectory_to_csv, [qg.trajectory(SPEC, [0.0, 1.0])], ()),
    "PauliMixture": (qg.PauliMixture, [[0.25, 0.25, 0.25, 0.25]], (0,)),
    "compose": (qg.compose, [[0.5, 0.2, 0.1], [1.0, -1.0, 1.0]], (0, 1)),
    "in_D": (qg.in_D, [[0.5, 0.2, 0.1]], (0,)),
    "mixture_to_eta": (qg.mixture_to_eta, [[0.25, 0.25, 0.25, 0.25]], (0,)),
    "pauli_weights": (qg.pauli_weights, [[0.5, 0.2, 0.1]], (0,)),
    "project_constrained": (qg.project_constrained, [[1.0, 1.0, 0.0], [True, True, False], [0.0]],
                            (0, 1, 2)),
    "project_to_D": (qg.project_to_D, [[-1.0, -1.0, -1.0]], (0,)),
    "sw_decompose": (qg.sw_decompose, [[-0.9, -0.9, -0.9]], (0,)),
    "hermitian_eig": (qg.hermitian_eig, [RHO], (0,)),
    "partial_trace_ancilla": (qg.partial_trace_ancilla, [np.eye(8) / 8], (0,)),
    "svd3": (qg.svd3, [np.eye(3)], (0,)),
    "unitary_exp": (qg.unitary_exp, [np.diag([1.0, -1.0]), 1.0], (0, 1)),
    "NetworkSpec": (qg.NetworkSpec, [np.eye(3), np.eye(3), [1.0, 0.0, 0.0, 0.0]], (0, 1, 2)),
    "NetworkSpec.from_json": (qg.NetworkSpec.from_json, [NET.to_json()], (0,)),
    "compile_channel": (qg.compile_channel, [CH], ()),
    "run_exact": (qg.run_exact, [NET, RHO], (1,)),
    "run_sampled": (qg.run_sampled, [NET, RHO, 10, 0], (1, 2, 3)),
    "brute_force_optimum": (qg.brute_force_optimum, [FOUR, 0.25, 0.01], (0, 1, 2)),
    "optimal_attack": (qg.optimal_attack, [FOUR, 0.25], (0, 1)),
    "overlap": (qg.overlap, [FOUR, [0.5, 0.0, 0.5]], (0, 1)),
    "probe_overlaps_dilation": (qg.probe_overlaps_dilation, [[0.5, 0.0, 0.5]], (0,)),
    "success_probability": (qg.success_probability, [FOUR, [0.5, 0.0, 0.5]], (0, 1)),
}
# Public callables outside the fuzz: the exception classes, the Protocol enum
# (Protocol(value) raises ValueError, as every Enum lookup does) and the result
# records the library builds and never reads back.
NOT_FUZZED = {"Protocol", "AttackReport", "SWDecomposition"}

SLOTS = [(name, i) for name, (_, _, numeric) in CALLS.items() for i in numeric]

_SPECIAL = [None, "abc", "", "1e400", True, np.nan, np.inf, -np.inf, 1j, [1j, 0.0, 0.0], [],
            [[]], [[1.0, 2.0], [3.0]], ["a", "b", "c"], {"u1": 1}, object(), -1, 0, 2**63, 2**70,
            -(2**70), 10**400, [np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0], np.full((2, 2), np.nan),
            np.zeros((0, 0))]
FLOATS = st.floats(-1e6, 1e6) | st.floats(-1.7e308, 1.7e308)  # moderate, and the whole double range
ADVERSARIAL = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(-(2**70), 2**70),
    FLOATS | st.sampled_from([np.nan, np.inf, -np.inf]),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
           elements=FLOATS | st.sampled_from([np.nan, np.inf])),
    st.lists(FLOATS | st.sampled_from([np.nan, "x", None]), max_size=5),
)


def _finite(value) -> bool:
    """True when every number the result holds is finite."""
    if isinstance(value, linalg._Value):
        return all(_finite(getattr(value, name)) for name in value._fields)
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    if isinstance(value, (str, qg.Protocol)):
        return True
    return bool(np.isfinite(value).all())


def _assert_contract(fn, args):
    try:
        result = fn(*args)
    except QubitGeomError:
        return
    assert _finite(result), f"non-finite result {result!r}"


def test_every_public_callable_is_covered():
    public = {name: getattr(qg, name) for name in qg.__all__ if callable(getattr(qg, name))}
    errors = {name for name, v in public.items() if isinstance(v, type) and issubclass(v, Exception)}
    assert all(issubclass(public[name], QubitGeomError) for name in errors)
    assert set(public) - errors - NOT_FUZZED == {name for name in CALLS if "." not in name}


@pytest.mark.parametrize("name", CALLS)
def test_valid_call_returns_finite_result(name):
    fn, args, _ = CALLS[name]
    assert _finite(fn(*args))


@SETTINGS
@given(slot=st.sampled_from(SLOTS), value=ADVERSARIAL)
def test_adversarial_argument_never_leaks(slot, value):
    name, index = slot
    fn, args, _ = CALLS[name]
    args = list(args)
    args[index] = value
    _assert_contract(fn, args)


@pytest.mark.parametrize("slot", SLOTS, ids=[f"{name}-{index}" for name, index in SLOTS])
def test_every_special_value_in_every_slot(slot):
    """The fuzz above gives each slot 3 or 4 of its examples; this passes each
    of the _SPECIAL values through every slot."""
    name, index = slot
    fn, args, _ = CALLS[name]
    for value in _SPECIAL:
        call = list(args)
        call[index] = value
        try:
            _assert_contract(fn, call)
        except Exception as exc:
            raise AssertionError(f"{name} with argument {index} = {value!r}") from exc


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: qg.eta_of_t(SPEC, "abc"), BadDimension, id="eta_of_t-string"),
    pytest.param(lambda: qg.design_coupling("abc"), BadDimension, id="design_coupling-string"),
    pytest.param(lambda: qg.CouplingSpec.from_alpha2("abc"), BadDimension, id="from_alpha2-string"),
    pytest.param(lambda: qg.catalog("depolarize", "x"), BadDimension, id="catalog-string-p"),
    pytest.param(lambda: qg.optimal_attack(FOUR, "x"), BadDimension, id="optimal_attack-string"),
    pytest.param(lambda: qg.project_constrained([1, 1, 0], [True, True, False], ["a"]),
                 BadDimension, id="project_constrained-string-pin"),
    pytest.param(lambda: qg.apply(CH, [1, 0]), BadDimension, id="apply-2-vector"),
    pytest.param(lambda: qg.apply(CH, [np.nan, 0, 0]), NonFiniteInput, id="apply-nan"),
    pytest.param(lambda: qg.svd3(np.full((3, 3), np.nan)), NonFiniteInput, id="svd3-nan"),
    pytest.param(lambda: qg.trajectory(SPEC, [[0.0, 0.5], [1.0, 1.5]]), BadDimension,
                 id="trajectory-2d-grid"),
    pytest.param(lambda: qg.simulate_reduced(SPEC, 1.0, np.zeros((2, 2))), UnphysicalBloch,
                 id="simulate_reduced-zero-matrix"),
    pytest.param(lambda: qg.simulate_reduced(SPEC, 1.0, 3 * np.eye(2)), UnphysicalBloch,
                 id="simulate_reduced-trace-6"),
    pytest.param(lambda: qg.simulate_reduced(SPEC, 1.0, np.eye(3) / 3), BadDimension,
                 id="simulate_reduced-3x3"),
    pytest.param(lambda: qg.partial_trace_ancilla(np.full((8, 8), np.nan)), NonFiniteInput,
                 id="partial_trace_ancilla-nan"),
    pytest.param(lambda: qg.hermitian_eig(np.zeros((0, 0))), BadDimension, id="hermitian_eig-empty"),
    pytest.param(lambda: qg.run_sampled(NET, RHO, 10, -1), DisturbanceOutOfRange,
                 id="run_sampled-seed-negative"),
    pytest.param(lambda: qg.run_sampled(NET, RHO, 10, 1.5), BadDimension, id="run_sampled-seed-float"),
    pytest.param(lambda: qg.run_sampled(NET, RHO, 2**70, 0), DisturbanceOutOfRange,
                 id="run_sampled-n-2**70"),
    pytest.param(lambda: qg.run_sampled(NET, RHO, 2**63, 0), DisturbanceOutOfRange,
                 id="run_sampled-n-2**63"),
    pytest.param(lambda: qg.brute_force_optimum(FOUR, 0.25, 1e-300), DisturbanceOutOfRange,
                 id="brute_force_optimum-resolution-1e-300"),
    pytest.param(lambda: qg.brute_force_optimum(FOUR, 0.25, 0.99e-5), DisturbanceOutOfRange,
                 id="brute_force_optimum-resolution-below-1e-5"),
    pytest.param(lambda: qg.NetworkSpec.from_json({"u1": np.eye(3).tolist(), "u2": np.eye(3).tolist()}),
                 BadDimension, id="NetworkSpec.from_json-missing-key"),
    pytest.param(lambda: qg.NetworkSpec(np.eye(3), np.eye(3), [0.5, 0.6, 0.0, 0.0]),
                 WeightsNotNormalized, id="NetworkSpec-weight-sum"),
    pytest.param(lambda: qg.NetworkSpec(np.eye(3), np.eye(3), [1.5, -0.5, 0.0, 0.0]),
                 WeightsNotNormalized, id="NetworkSpec-negative-weight"),
    pytest.param(lambda: qg.CouplingSpec([1.0, 1.0, 0.0]), WeightsNotNormalized,
                 id="CouplingSpec-alpha-sum"),
    pytest.param(lambda: qg.CouplingSpec.from_alpha2([0.5, 0.6, -0.1]), WeightsNotNormalized,
                 id="from_alpha2-negative"),
    pytest.param(lambda: qg.success_probability(FOUR, [-1, 1, -1]), DisturbanceOutOfRange,
                 id="success_probability-R_y"),
])
def test_named_leaks_raise(call, error):
    with pytest.raises(error):
        call()


_M = 1.7e308  # near the largest double: finite input whose sums, squares or products overflow
_HUGE = qg.AffineChannel(np.full((3, 3), _M))  # unital, its largest singular value 5.1e308
_HUGE_B = qg.AffineChannel(np.full((3, 3), _M), [_M, 0.0, 0.0])
_I3 = np.eye(3).tolist()
# finite and symmetric, its entries spanning 1e-290 to 1e300: LAPACK's eigh does not converge
_STALL = [[0.0, 1.2739e300, -5.77e-168, 9.51e242], [1.2739e300, 0.0, -8.96e92, -3.07e-70],
          [-5.77e-168, -8.96e92, -0.0, 2.0e-290], [9.51e242, -3.07e-70, 2.0e-290, 4.34e-266]]


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: qg.apply(_HUGE, [1.0, 1.0, 1.0]), NonFiniteInput, "image", id="apply-overflow"),
    pytest.param(lambda: qg.NetworkSpec(1e200 * np.eye(3), np.eye(3), [1.0, 0.0, 0.0, 0.0]),
                 UnphysicalBloch, "rotations", id="NetworkSpec-rotation-1e200"),
    pytest.param(lambda: qg.NetworkSpec.from_json({"u1": _I3, "u2": _I3, "amplitudes": [1e200, 0, 0, 0]}),
                 NonFiniteInput, "weights", id="NetworkSpec.from_json-amplitude-1e200"),
    pytest.param(lambda: qg.NetworkSpec(np.eye(3), np.eye(3), [_M, _M, 0.0, 0.0]), NonFiniteInput,
                 "^the weights' sum overflows$", id="NetworkSpec-weight-sum-overflow"),
    pytest.param(lambda: qg.CouplingSpec([1e200, 0.0, 0.0]), NonFiniteInput,
                 "^the squared couplings' sum overflows$", id="CouplingSpec-square-overflow"),
    pytest.param(lambda: qg.CouplingSpec.from_alpha2([_M, _M, 0.0]), NonFiniteInput,
                 "^the squared couplings' sum overflows$", id="from_alpha2-sum-overflow"),
    # left to right the sum is 0.5, as numpy's; Python 3.12's compensated sum() makes it 1.0
    pytest.param(lambda: qg.mixture_to_eta([0.5, 1e16, -1e16, 0.5]), WeightsNotNormalized,
                 r"^weights sum to 0\.5, expected 1$", id="mixture_to_eta-cancelling-sum"),
    *(pytest.param(lambda fn=fn: fn(_HUGE), NonFiniteInput, "^a singular value overflows$",
                   id=f"{fn.__name__}-sigma-overflow")
      for fn in (qg.is_cp, qg.canonical_form, qg.is_positive_unital, qg.compile_channel)),
    pytest.param(lambda: qg.svd3(np.full((3, 3), _M)), NonFiniteInput, "^a singular value overflows$",
                 id="svd3-sigma-overflow"),
    pytest.param(lambda: qg.hermitian_eig([[_M, _M], [_M, -_M]]), NonFiniteInput,
                 "^an eigenvalue overflows$", id="hermitian_eig-eigenvalue-overflow"),
    pytest.param(lambda: qg.unitary_exp([[_M, _M], [_M, -_M]], 1.0), NonFiniteInput,
                 "^an eigenvalue overflows$", id="unitary_exp-eigenvalue-overflow"),
    pytest.param(lambda: qg.hermitian_eig(_STALL), NonFiniteInput,
                 "^the eigendecomposition did not converge$", id="hermitian_eig-no-convergence"),
    pytest.param(lambda: qg.unitary_exp(_STALL, 1.0), NonFiniteInput,
                 "^the eigendecomposition did not converge$", id="unitary_exp-no-convergence"),
    pytest.param(lambda: qg.is_cp(qg.AffineChannel([[-_M, -_M, _M], [_M, _M, -_M], [-_M, -_M, -_M]],
                                                   [0.0, _M, _M])),
                 NonFiniteInput, "^an eigenvalue overflows$", id="is_cp-choi-eigenvalue-overflow"),
    pytest.param(lambda: qg.overlap(FOUR, [_M] * 3), None, None, id="overlap-four-state-1.7e308"),
    pytest.param(lambda: qg.is_cp(_HUGE_B), None, None, id="is_cp-non-unital-1.7e308"),
    pytest.param(lambda: qg.AffineChannel(np.eye(3), [1e200, 0.0, 0.0]).is_unital, None, None,
                 id="is_unital-b-1e200"),
])
def test_overflow_is_refused_without_warning(call, error, match):
    """Finite input near the largest double, or a matrix LAPACK cannot decompose: the
    named refusal (error None: a finite result), and no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert _finite(call())
        else:
            with pytest.raises(error, match=match):
                call()


# Valid extreme inputs: the vertices and non-CP corners of D, the edge midpoints
# and face centroids, and the named points. Each goes through every public
# callable that takes an eta or a channel, as a diagonal and as a rotated channel.
_V = geometry.VERTICES
BOUNDARY = {
    **{f"vertex-{n}": v for n, v in zip("IXYZ", _V)},
    **{f"corner-{n}": -v for n, v in zip("IXYZ", _V)},
    **{f"edge-{'IXYZ'[i]}{'IXYZ'[j]}": (_V[i] + _V[j]) / 2
       for i, j in itertools.combinations(range(4), 2)},
    **{f"face-{n}": -v / 3 for n, v in zip("IXYZ", _V)},  # the face opposite vertex n
    "origin": np.zeros(3), "pancake": np.array([1.0, 1.0, 0.0]),
    "transpose": geometry.TRANSPOSE_ETA, "third": np.full(3, 1 / 3), "minus-third": np.full(3, -1 / 3),
}
STATES = [qg.bloch_to_density(s) for s in ([0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 0, 0])]
ROTATION = np.array([[2.0, -1.0, 2.0], [2.0, 2.0, -1.0], [-1.0, 2.0, 2.0]]) / 3.0  # proper


def _valid(fn, *args):
    """fn(*args), or None if it raises a QubitGeomError; any other exception, any
    warning or a non-finite result fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*args)
        except QubitGeomError:
            return None
    assert _finite(result), f"{fn.__name__}{args!r}: non-finite result {result!r}"
    return result


def _valid_channel(ch):
    for fn in (qg.choi, qg.is_cp, qg.is_positive_unital, qg.canonical_form):
        _valid(fn, ch)
    _valid(qg.apply, ch, [0.0, 0.0, 1.0])
    net = _valid(qg.compile_channel, ch)
    for rho in STATES if net is not None else ():
        _valid(qg.run_exact, net, rho)
        _valid(qg.run_sampled, net, rho, 100, 0)


@pytest.mark.parametrize("A", [
    pytest.param(np.zeros((3, 3)), id="zero"),
    pytest.param(np.diag([1.0, 0.0, 0.0]), id="rank-1"),
    pytest.param(ROTATION @ np.diag([1.0, 1.0, 0.0]), id="rank-2-rotated"),
    pytest.param(-np.eye(3), id="inversion"),
    pytest.param(np.diag([1.0, 1.0, -1.0]), id="reflection"),
    pytest.param(ROTATION @ np.diag([0.5, -0.5, 0.0]) @ ROTATION, id="singular-improper-rotated"),
])
def test_valid_singular_or_improper_channel(A):
    _valid_channel(qg.AffineChannel(A))


@pytest.mark.parametrize("name", BOUNDARY)
def test_valid_boundary_point(name):
    eta = BOUNDARY[name]
    _valid_channel(qg.AffineChannel.from_eta(eta))
    _valid_channel(qg.AffineChannel(ROTATION @ np.diag(eta) @ ROTATION))
    for fn in (qg.in_D, qg.project_to_D, qg.sw_decompose, qg.probe_overlaps_dilation,
               qg.AffineChannel.from_eta):
        _valid(fn, eta)
    _valid(qg.channel_from_json, {"eta": eta.tolist()})
    _valid(qg.mixture_to_eta, _valid(qg.pauli_weights, eta))
    _valid(qg.compose, eta, eta)
    for protocol in qg.Protocol:
        _valid(qg.overlap, protocol, eta)
        _valid(qg.success_probability, protocol, eta)
    for pins in itertools.product((None, -1.0, 0.0, 1.0), repeat=3):  # None: a free coordinate
        free = [v is None for v in pins]
        _valid(qg.project_constrained, eta, free, [v for v in pins if v is not None])
    design = _valid(qg.design_coupling, eta)
    if design is not None:
        spec, t_star = design
        times = [0.0, t_star, np.pi / 2, np.pi]
        _valid(qg.trajectory_to_csv, _valid(qg.trajectory, spec, times))
        for t in times:
            _valid(qg.eta_of_t, spec, t)
            for rho in STATES:
                _valid(qg.simulate_reduced, spec, t, rho)


@pytest.mark.parametrize("m", [1e308, 1.7e308])
def test_valid_extreme_magnitude(m):
    """The vertex and corner directions at magnitudes where n . eta overflows:
    every entry point that reads the Pauli weights keeps them finite. A result
    that itself overflows (a product, a trace, an eigenvalue times t) raises
    NonFiniteInput, and nothing warns."""
    for call in (lambda: qg.partial_trace_ancilla(m * np.eye(8)), lambda: qg.compose([m] * 3, [m] * 3),
                 lambda: qg.unitary_exp(np.diag([m, -m]), 1e10),
                 lambda: qg.mixture_to_eta([m, -m, 0.5, 0.5]),  # unit sum, eta_y = 2m
                 lambda: qg.mixture_to_eta([m, m, -m, -m])):  # the sum overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput):
                call()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnphysicalBloch):
            qg.bloch_to_density([m, 0.0, 0.0])
    for eta in np.concatenate([m * _V, -m * _V]):
        for ch in (qg.AffineChannel.from_eta(eta), qg.AffineChannel(ROTATION @ np.diag(eta) @ ROTATION)):
            _valid(qg.is_cp, ch)
            _valid(qg.compile_channel, ch)
        for fn in (qg.in_D, qg.pauli_weights, qg.design_coupling, qg.probe_overlaps_dilation):
            _valid(fn, eta)
        for protocol in qg.Protocol:
            _valid(qg.success_probability, protocol, eta)


@pytest.mark.parametrize("v", [1e300, -1e300, 1.7e308, -1.7e308])
def test_pin_far_beyond_the_cube_is_empty(v):
    """A pinned coordinate far outside [-1, 1] cannot meet D: EmptyIntersection
    before any arithmetic that could overflow, and no warning."""
    for free in ([False, True, True], [True, True, False], [False, False, True]):
        pins = [v] + [0.0] * (free.count(False) - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyIntersection):
                qg.project_constrained([0.5, 0.5, 0.5], free, pins)


@pytest.mark.parametrize("d", [0.0, 1 / 3, 0.5])
@pytest.mark.parametrize("protocol", qg.Protocol)
def test_valid_attack_budget(protocol, d):
    report = _valid(qg.optimal_attack, protocol, d)
    assert report is not None
    assert _valid(qg.success_probability, protocol, report.eta) == report.p_c
    for resolution in (0.1, 1e-5):
        _valid(qg.brute_force_optimum, protocol, d, resolution)


# Every route to a value type: its constructor and each function that returns one
VALUES = [
    qg.AffineChannel(np.eye(3), [0.0, 0.0, 0.1]), qg.AffineChannel.from_eta([0.5, 0.2, 0.1]),
    CH, qg.channel_from_json({"eta": [0.5, 0.2, 0.1]}),
    qg.channel_from_json({"A": np.eye(3).tolist()}),
    qg.CanonicalForm(np.eye(3), np.ones(3), np.eye(3)),
    qg.canonical_form(qg.AffineChannel(-np.eye(3))),
    qg.PauliMixture([0.25, 0.25, 0.25, 0.25]), qg.pauli_weights([0.5, 0.2, 0.1]),
    qg.sw_decompose([0.5, 0.2, 0.1]), qg.sw_decompose([-0.9, -0.8, -0.7]),
    qg.sw_decompose([-1.0, -1.0, -1.0]), qg.sw_decompose([-1.0 - 5e-10, -1.0, -0.5]),
    SPEC, qg.CouplingSpec([1.0, 0.0, 0.0]),
    *(qg.design_coupling(eta)[0] for eta in ([1, 1, 1], [0.2, -0.1, 0.05])),
    qg.trajectory(SPEC, [0.0, 0.5, 1.0]), qg.Trajectory([0.0], [[1.0, 1.0, 1.0]]),
    NET, qg.NetworkSpec(np.eye(3), np.eye(3), [1.0, 0.0, 0.0, 0.0]),
    qg.NetworkSpec.from_json(NET.to_json()),
    *(qg.optimal_attack(protocol, d) for protocol in qg.Protocol for d in (0.0, 0.25, 0.5)),
    qg.SWDecomposition(1.0, np.zeros(3), np.zeros(3), np.zeros(3)),
    qg.SWDecomposition(0.5, [1, 1, 1], [-1, -1, -1], [1, -1, 1]),
    qg.AttackReport(qg.Protocol.SIX_STATE, [0.5, 0.5, 0.5], 0.25, 0.75, 0.5, 0.9),
]

def test_is_unital_reads_b_however_the_channel_was_built():
    """is_unital is |b| <= ROUND_TOL on each channel route, the class's True standing for
    b's default, and on an explicit zero b and a JSON b on either side of the tolerance."""
    channels = [v for v in VALUES if isinstance(v, qg.AffineChannel)] + [
        qg.AffineChannel(np.eye(3), np.zeros(3)),
        *(qg.channel_from_json({"A": np.eye(3).tolist(), "b": [0.0, b, 0.0]}) for b in (1e-12, 2e-12))]
    assert [ch.is_unital for ch in channels] == [False, True, True, True, True, True, True, False]
    for ch in channels:
        assert ch.is_unital is (math.hypot(*ch.b) <= linalg.ROUND_TOL)


def test_every_array_of_a_value_type_is_read_only():
    """A value's arrays may be shared (a split's corner is a row of NONCP_CORNERS),
    so a write into any of them raises, however the value was built."""
    types = {value for name in qg.__all__
             if isinstance(value := getattr(qg, name), type) and issubclass(value, linalg._Value)}
    assert {type(v) for v in VALUES} == types and len(types) == 8
    for value in VALUES:
        arrays = [getattr(value, name) for name in value._fields]
        for a in (a for a in arrays if isinstance(a, np.ndarray)):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0


def test_value_types_are_immutable_and_take_their_fields():
    """A field can be neither assigned nor deleted; the constructor takes exactly the
    fields (AffineChannel's b may be left out), positionally or by name, and rebuilds
    the value's bits; the repr is a dataclass's; equality and hashing are identity."""
    for value in VALUES:
        cls, fields = type(value), {name: getattr(value, name) for name in value._fields}
        for name in (*value._fields, "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 0.0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert {name: getattr(value, name) for name in value._fields} == fields  # untouched
        with pytest.raises(TypeError, match="missing"):
            cls()
        with pytest.raises(TypeError, match="positional argument"):
            cls(*fields.values(), 0.0)
        with pytest.raises(TypeError, match="unexpected keyword"):
            cls(**fields, other=0.0)
        for rebuilt in (cls(*fields.values()), cls(**fields)):
            for name, field in fields.items():
                assert repr(getattr(rebuilt, name)) == repr(field)
                assert np.asarray(getattr(rebuilt, name)).tobytes() == np.asarray(field).tobytes()
            assert rebuilt != value and len({rebuilt, value}) == 2
        text = ", ".join(f"{name}={field!r}" for name, field in fields.items())
        assert repr(value) == f"{cls.__qualname__}({text})"
    assert qg.AffineChannel(np.eye(3)).b.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("make,error", [
    pytest.param(lambda: qg.SWDecomposition("x", *np.zeros((3, 3))).reconstruct(), BadDimension,
                 id="sw-string"),
    pytest.param(lambda: qg.SWDecomposition(np.inf, np.zeros(3), np.zeros(3), np.zeros(3)),
                 NonFiniteInput, id="sw-inf"),
    pytest.param(lambda: qg.SWDecomposition(1j, np.zeros(3), np.zeros(3), np.zeros(3)),
                 BadDimension, id="sw-complex"),
    pytest.param(lambda: qg.AttackReport("bb84", [0.5, 0.5, 0.5], 0.25, 0.75, 0.5, 0.9),
                 UnknownName, id="report-protocol"),
    pytest.param(lambda: qg.AttackReport(None, [0.5, 0.5, 0.5], 0.25, 0.75, 0.5, 0.9),
                 UnknownName, id="report-none"),
    *(pytest.param(lambda k=k: qg.AttackReport("six-state", [0.5, 0.5, 0.5],
                                               *[np.nan if i == k else 0.5 for i in range(4)]),
                   NonFiniteInput, id=f"report-nan-{k}") for k in range(4)),
    pytest.param(lambda: qg.AttackReport("six-state", [0.5, 0.5, 0.5], [0.25], 0.75, 0.5, 0.9),
                 BadDimension, id="report-list"),
])
def test_hand_built_scalar_fields_are_checked(make, error):
    with pytest.raises(error):
        make()


def test_hand_built_report_takes_a_protocol_or_its_value():
    report = qg.AttackReport("six-state", [0.5, 0.5, 0.5], 0.25, 0.75, 0.5, 0.9)
    assert report.protocol is qg.Protocol.SIX_STATE
    assert report.to_json() == {"protocol": "six-state", "eta": [0.5, 0.5, 0.5], "D": 0.25,
                                "F": 0.75, "overlap": 0.5, "p_c": 0.9}


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--catalog", "identity", "--n", "10", "--seed", "-1"], id="run-seed-negative"),
    pytest.param(["run", "--catalog", "identity", "--n", "100000000000000000000000"], id="run-n-huge"),
    pytest.param(["qkd", "--protocol", "four-state", "--dmax", "0.25", "--grid-resolution", "1e-300"],
                 id="qkd-grid-resolution-1e-300"),
    pytest.param(["dynamics", "--alpha2", ".3", ".3", ".4", "--steps", str(cli.MAX_STEPS + 1)],
                 id="dynamics-steps-above-cap"),
])
def test_named_cli_leaks_exit_2(argv):
    assert _main(argv) == 2


# verb -> argv with a slot {i} per value the test replaces, and the valid values
CLI_CALLS = {
    "check": ("check --catalog depolarize:{0}", ["0.3"]),
    "weights": ("weights --from-p {0} {1} 0.25 0.25", ["0.25", "0.25"]),
    "project": ("project --eta {0} 1 0 --fix z={1}", ["1", "0"]),
    "run": ("run --catalog depolarize:0.3 --state {0} 0 0 --n {1} --seed {2}", ["0", "10", "0"]),
    "dynamics": ("dynamics --alpha2 {0} .3 .4 --tmax {1} --steps {2}", [".3", "1", "4"]),
    "design": ("design --eta {0} -0.1 0.05", ["0.2"]),
    "qkd": ("qkd --protocol {0} --dmax {1} --grid-resolution {2}", ["four-state", "0.25", "0.01"]),
    "sw": ("sw --eta {0} -0.9 -0.9", ["-0.9"]),
    "choi": ("choi --catalog depolarize:{0}", ["0.3"]),
    "canon": ("canon --eta {0} -0.1 0.05", ["0.2"]),
    "compile": ("compile --eta {0} -0.1 0.05", ["0.2"]),
}
_TEXTS = ["-1", "0", "1e-300", "nan", "-inf", "abc", "", "1e400", "2.5", "100000000000000000000000"]


@pytest.mark.parametrize("verb", CLI_CALLS)
def test_cli_exits_0_or_2(verb):
    template, valid = CLI_CALLS[verb]
    assert _main(template.format(*valid).split(" ")) == 0
    for i in range(len(valid)):
        for text in _TEXTS:
            argv = template.format(*valid[:i], text, *valid[i + 1:]).split(" ")
            assert _main(argv) in (0, 2), argv


def test_no_bare_base_error_raised():
    """Every raise in the library names the QubitGeomError subclass its message
    describes; the base class is only caught."""
    src = Path(qg.__file__).parent
    bare = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if "raise QubitGeomError(" in line]
    assert bare == []
