"""Exception types raised by qubitgeom operations."""


class QubitGeomError(ValueError):
    """Base class for all qubitgeom validation errors."""


class NonHermitianInput(QubitGeomError):
    """A matrix required to be Hermitian failed the symmetry check."""


class BadDimension(QubitGeomError):
    """An input has the wrong type, shape or dimension, or a time grid is not ascending."""


class NonFiniteInput(QubitGeomError):
    """An input holds NaN or infinity, overflows the result or stalls an eigendecomposition."""


class UnphysicalBloch(QubitGeomError):
    """Bloch vector outside the unit ball, trace other than 1, or a rotation that is not proper."""


class NotUnital(QubitGeomError):
    """Operation requires a unital channel (zero translation part)."""


class NotCP(QubitGeomError):
    """Operation requires a completely positive channel."""


class UnknownName(QubitGeomError):
    """Unknown catalog entry."""


class WeightsNotNormalized(QubitGeomError):
    """Mixture weights do not sum to one."""


class EmptyIntersection(QubitGeomError):
    """A constrained projection slice or a search grid misses the CP tetrahedron."""


class OutsideCube(QubitGeomError):
    """Eta vector lies outside the positive-map cube [-1, 1]^3."""


class SymmetryViolation(QubitGeomError):
    """Eta vector does not satisfy the protocol's symmetry constraint."""


class DisturbanceOutOfRange(QubitGeomError):
    """Disturbance level, grid resolution, sample count or seed outside the supported range."""
