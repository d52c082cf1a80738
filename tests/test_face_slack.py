"""One face-slack kernel decides every verdict on D.

geometry._slack reads the largest face slack n . eta - 1 as -4 times the least
Pauli weight or Choi eigenvalue, which is exact: -4 ((1 - x) / 4) = x - 1 in
floating point. So each verdict on seeded points within 4 FACE_TOL of every
vertex, edge and face of D is the explicit test max(n . eta - 1) <= FACE_TOL,
on a diagonal channel bit for bit. A rotated channel reads the slack of its
canonical delta, whose rounding can tip a verdict only within about 1e-16 of
FACE_TOL; points within 1e-12 of it are left out there.
"""

from itertools import combinations

import numpy as np
import pytest

import qubitgeom as qg
from qubitgeom import geometry
from qubitgeom.errors import NotCP, OutsideCube
from qubitgeom.linalg import FACE_TOL

from conftest import random_rotation

SUBSETS = [s for size in (1, 2, 3) for s in combinations(range(4), size)]


def _near(subset, n=40):
    """n points of the vertex, edge or face spanned by subset, scaled by 1 + s, and
    n moved by a random step, both within 4 FACE_TOL."""
    rng = np.random.default_rng(1600 + SUBSETS.index(subset))
    x = rng.dirichlet(np.ones(len(subset)), n) @ geometry.VERTICES[list(subset)]
    scaled = (1.0 + rng.uniform(-4.0, 4.0, (n, 1)) * FACE_TOL) * x
    moved = x + rng.uniform(-4.0, 4.0, (n, 3)) * FACE_TOL / np.sqrt(3.0)
    return np.concatenate([scaled, moved]), rng


def _not_cp(op, *args) -> bool:
    try:
        op(*args)
    except NotCP:
        return True
    except qg.QubitGeomError:  # another check failed after the CP test passed
        pass
    return False


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "".join("IXYZ"[k] for k in s))
def test_every_verdict_is_the_face_slack(subset):
    etas, rng = _near(subset)
    for eta in etas:
        slack = (geometry.FACE_NORMALS @ eta - 1.0).max()
        cp = slack <= FACE_TOL
        diag = qg.AffineChannel.from_eta(eta)
        assert qg.in_D(eta) == cp
        assert qg.pauli_weights(eta).signed == (not cp)
        flag, min_eig = qg.is_cp(diag)
        assert flag == cp
        assert min_eig.hex() == float(((1.0 - geometry.FACE_NORMALS @ eta) / 4.0).min()).hex()
        assert _not_cp(qg.compile_channel, diag) == (not cp)
        assert _not_cp(qg.success_probability, qg.Protocol.FOUR_STATE, eta) == (not cp)
        sym = eta[[0, 1, 0]]  # four-state symmetric, as near R_y and the identity
        sym_cp = (geometry.FACE_NORMALS @ sym - 1.0).max() <= FACE_TOL
        assert _not_cp(qg.success_probability, qg.Protocol.FOUR_STATE, sym) == (not sym_cp)
        assert _not_cp(qg.design_coupling, eta) == (not cp)
        assert _not_cp(qg.probe_overlaps_dilation, eta) == (not cp)
        try:
            assert (qg.sw_decompose(eta).p == 1.0) == cp
        except OutsideCube:  # a vertex pushed out of D is pushed out of the cube
            assert not cp
        rotated = qg.AffineChannel(random_rotation(rng) @ np.diag(eta) @ random_rotation(rng))
        if abs(slack - FACE_TOL) > 1e-12:
            flag, min_eig = qg.is_cp(rotated)
            assert flag == cp and (-4.0 * min_eig <= FACE_TOL) == cp
            assert _not_cp(qg.compile_channel, rotated) == (not cp)
