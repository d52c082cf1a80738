"""Property tests: every predicate gives one verdict on the boundary of D and
of the cube [-1, 1]^3, within a few tolerance widths of it.

A point on a vertex, edge or face x of D (or of the cube) scaled by 1 + s has
largest face slack s. Each test runs at s = (f + j) FACE_TOL for every f in
SLACKS, with a drawn jitter |j| <= 0.4. Slacks within 1e-12 of +-FACE_TOL are
left out: there the rounding of the Choi eigenvalues and singular values
decides is_cp and is_positive_unital.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qubitgeom as qg
from qubitgeom import geometry
from qubitgeom.errors import NotCP, OutsideCube
from qubitgeom.linalg import FACE_TOL

from conftest import random_rotation

SETTINGS = settings(max_examples=15, derandomize=True, database=None, deadline=None)
SLACKS = [0.0] + [sign * f for f in (0.5, 1, 1.5, 2, 3) for sign in (1, -1)]
jitter = st.floats(-0.4, 0.4)
unit = st.floats(0.0, 1.0)


def _slack(f, j):
    s = (f + j) * FACE_TOL
    assume(abs(abs(s) - FACE_TOL) > 1e-12)
    return s


@st.composite
def d_boundary(draw):
    """A vertex (1 vertex), edge (2) or face (3) point of D: Dirichlet-like
    weights on a random subset of the tetrahedron's vertices."""
    k = draw(st.integers(1, 3))
    idx = draw(st.permutations(range(4)))[:k]
    w = np.array([draw(unit) for _ in idx]) + 1e-3
    return geometry.VERTICES[list(idx)].T @ (w / w.sum())


@st.composite
def cube_boundary(draw):
    """A face (1 coordinate at +-1), edge (2) or corner (3) point of the cube."""
    x = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    on = draw(st.permutations(range(3)))[:draw(st.integers(1, 3))]
    x[list(on)] = [draw(st.sampled_from([-1.0, 1.0])) for _ in on]
    return x


def _succeeds(op, *args):
    try:
        op(*args)
        return True
    except NotCP:
        return False


@pytest.mark.parametrize("f", SLACKS)
@SETTINGS
@given(x=d_boundary(), j=jitter, seed=st.integers(0, 2**32 - 1))
def test_one_verdict_on_D(f, x, j, seed):
    s = _slack(f, j)
    eta = (1.0 + s) * x
    cp = s <= FACE_TOL
    rng = np.random.default_rng(seed)
    diag = qg.AffineChannel.from_eta(eta)
    rotated = qg.AffineChannel(random_rotation(rng) @ np.diag(eta) @ random_rotation(rng))
    assert qg.in_D(eta) == cp
    assert (not qg.pauli_weights(eta).signed) == cp
    assert qg.is_cp(diag)[0] == cp
    assert qg.is_cp(rotated)[0] == cp
    assert _succeeds(qg.compile_channel, diag) == cp
    assert _succeeds(qg.compile_channel, rotated) == cp
    assert _succeeds(qg.design_coupling, eta) == cp
    assert np.array_equal(qg.project_to_D(eta), eta) == cp
    try:
        assert (qg.sw_decompose(eta).p == 1.0) == cp
    except OutsideCube:  # a vertex pushed out of D is pushed out of the cube
        assert not cp


@pytest.mark.parametrize("f", SLACKS)
@SETTINGS
@given(x=cube_boundary(), j=jitter, seed=st.integers(0, 2**32 - 1))
def test_one_verdict_on_the_cube(f, x, j, seed):
    s = _slack(f, j)
    eta = (1.0 + s) * x
    positive = s <= FACE_TOL
    rng = np.random.default_rng(seed)
    rotated = qg.AffineChannel(random_rotation(rng) @ np.diag(eta) @ random_rotation(rng))
    assert qg.is_positive_unital(qg.AffineChannel.from_eta(eta)) == positive
    assert qg.is_positive_unital(rotated) == positive
    try:
        dec = qg.sw_decompose(eta)
    except OutsideCube:
        assert not positive
    else:
        assert positive and 0.0 <= dec.p <= 1.0
