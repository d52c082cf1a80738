"""Geometry of single-qubit channels.

Unital single-qubit channels in their Bloch-sphere affine form: complete
positivity via the Choi matrix, the tetrahedron of CP diagonal maps and
projections onto it (best-CP approximation), Hamiltonian generation of
channels, network simulation, optimal QKD eavesdropping, and the
decomposition of positive maps into CP plus CP-after-transpose. The modules
dynamics, network, qkd and serialize, and their names, load on first access.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .channel import (
    AffineChannel,
    CanonicalForm,
    apply,
    bloch_to_density,
    canonical_form,
    catalog,
    channel_from_json,
    choi,
    density_to_bloch,
    is_cp,
    is_positive_unital,
)
from .errors import (
    BadDimension,
    DisturbanceOutOfRange,
    EmptyIntersection,
    NonFiniteInput,
    NonHermitianInput,
    NotCP,
    NotUnital,
    OutsideCube,
    QubitGeomError,
    SymmetryViolation,
    UnknownName,
    UnphysicalBloch,
    WeightsNotNormalized,
)
from .geometry import (
    PauliMixture,
    SWDecomposition,
    compose,
    in_D,
    mixture_to_eta,
    pauli_weights,
    project_constrained,
    project_to_D,
    sw_decompose,
)
from .linalg import hermitian_eig, partial_trace_ancilla, svd3, unitary_exp

# module -> the names it exports, each looked up in the module on every access
_LAZY_MODULES = {
    "dynamics": ("CouplingSpec", "Trajectory", "design_coupling", "eta_of_t",
                 "simulate_reduced", "trajectory", "trajectory_to_csv"),
    "network": ("NetworkSpec", "compile_channel", "run_exact", "run_sampled"),
    "qkd": ("AttackReport", "Protocol", "brute_force_optimum", "optimal_attack", "overlap",
            "probe_overlaps_dilation", "success_probability"),
    "serialize": (),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_LAZY)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY_MODULES:  # the import binds the submodule here: asked once
        return _import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _LAZY_MODULES.keys() | _LAZY.keys())
