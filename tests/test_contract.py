"""Contract of the public surface: whatever a caller passes, every callable in
qubitgeom.__all__ returns a finite result or raises a QubitGeomError subclass,
and every CLI verb exits 0 or 2, never 1 (an internal fault).

The fuzz replaces one argument of a valid call at a time, and a fixed list of
special values goes through every such argument. Arguments that take
numbers (arrays, scalars, counts, seeds) get strings, None, NaN, +-inf, wrong
shapes, complex values and negative or huge integers, and so does a protocol,
which takes a Protocol or its value; an argument that takes a library object
(a channel, a spec, a network) keeps a valid one.

A sweep over the valid extremes (the vertices, corners, edges and faces of D,
singular and improper channels, and the attack budgets 0, 1/3 and 1/2) holds
each call to the same contract, with any warning a failure.
"""

import contextlib
import dataclasses
import io
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import qubitgeom as qg
from qubitgeom import cli, geometry
from qubitgeom.errors import (BadDimension, DisturbanceOutOfRange, NonFiniteInput, QubitGeomError,
                              UnphysicalBloch, WeightsNotNormalized)

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
ADVERSARIAL = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(-(2**70), 2**70),
    st.floats(-1e6, 1e6) | st.sampled_from([np.nan, np.inf, -np.inf]),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
           elements=st.floats(-1e6, 1e6) | st.sampled_from([np.nan, np.inf])),
    st.lists(st.floats(-1e6, 1e6) | st.sampled_from([np.nan, "x", None]), max_size=5),
)


def _finite(value) -> bool:
    """True when every number the result holds is finite."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
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
    pytest.param(lambda: qg.run_sampled(NET, RHO, 10, -1), QubitGeomError, id="run_sampled-seed-negative"),
    pytest.param(lambda: qg.run_sampled(NET, RHO, 10, 1.5), QubitGeomError, id="run_sampled-seed-float"),
    pytest.param(lambda: qg.run_sampled(NET, RHO, 2**70, 0), QubitGeomError, id="run_sampled-n-2**70"),
    pytest.param(lambda: qg.run_sampled(NET, RHO, 2**63, 0), QubitGeomError, id="run_sampled-n-2**63"),
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
    every entry point that reads the Pauli weights keeps them finite."""
    for eta in np.concatenate([m * _V, -m * _V]):
        for ch in (qg.AffineChannel.from_eta(eta), qg.AffineChannel(ROTATION @ np.diag(eta) @ ROTATION)):
            _valid(qg.is_cp, ch)
            _valid(qg.compile_channel, ch)
        for fn in (qg.in_D, qg.pauli_weights, qg.design_coupling, qg.probe_overlaps_dilation):
            _valid(fn, eta)
        for protocol in qg.Protocol:
            _valid(qg.success_probability, protocol, eta)


@pytest.mark.parametrize("d", [0.0, 1 / 3, 0.5])
@pytest.mark.parametrize("protocol", qg.Protocol)
def test_valid_attack_budget(protocol, d):
    report = _valid(qg.optimal_attack, protocol, d)
    assert report is not None
    assert _valid(qg.success_probability, protocol, report.eta) == report.p_c
    for resolution in (0.1, 1e-5):
        _valid(qg.brute_force_optimum, protocol, d, resolution)


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
