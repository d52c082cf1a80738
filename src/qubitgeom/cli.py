"""Command-line surface over the library.

Every pipeline-level operation is reachable through exactly one verb (see
VERBS). Channels are given either inline (--eta x y z), from a JSON file
(--in file.json, taking precedence), or by catalog name (--catalog NAME).
Results go to stdout as JSON (or CSV for trajectories) with floats at 17
significant digits; validation failures exit with code 2 and a JSON error
object on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import channel as qchannel
from . import dynamics, geometry, network, qkd, serialize
from .errors import QubitGeomError

# verb -> library operations it owns (coverage-tested).
VERBS = {
    "check": ("is_cp", "is_positive_unital"),
    "choi": ("choi",),
    "weights": ("pauli_weights", "mixture_to_eta"),
    "project": ("project_to_D", "project_constrained"),
    "canon": ("canonical_form",),
    "compile": ("compile_channel",),
    "run": ("run_exact", "run_sampled", "apply"),
    "dynamics": ("trajectory", "eta_of_t", "simulate_reduced"),
    "design": ("design_coupling",),
    "qkd": ("optimal_attack", "success_probability", "overlap",
            "probe_overlaps_dilation", "brute_force_optimum"),
    "sw": ("sw_decompose", "compose"),
}


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads a negative number such as -2e-10 as an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise _ArgumentError(message)


def _add_channel_args(p: _Parser):
    p.add_argument("--eta", type=float, nargs=3, metavar=("X", "Y", "Z"))
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--catalog", metavar="NAME",
                   help="named channel; depolarize takes NAME:P")


def _channel_from_args(args) -> qchannel.AffineChannel:
    sources = [s for s in (args.infile, args.eta, args.catalog) if s is not None]
    if len(sources) != 1:
        raise _ArgumentError("provide exactly one of --in, --eta, --catalog")
    if args.infile is not None:
        with open(args.infile) as fh:
            return qchannel.channel_from_json(json.load(fh))
    if args.eta is not None:
        return qchannel.AffineChannel.from_eta(args.eta)
    name = args.catalog
    if ":" in name:
        name, param = name.split(":", 1)
        return qchannel.catalog(name, float(param))
    return qchannel.catalog(name)


def _eta_from_args(args) -> np.ndarray:
    ch = _channel_from_args(args)
    if not ch.is_diagonal:
        raise _ArgumentError("this verb needs a diagonal unital channel")
    return ch.eta


def _build_parser() -> _Parser:
    parser = _Parser(prog="qubitgeom")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="complete-positivity test")
    _add_channel_args(p)

    p = sub.add_parser("choi", help="trace-1 Choi matrix")
    _add_channel_args(p)

    p = sub.add_parser("weights", help="Pauli mixture weights of a diagonal map")
    _add_channel_args(p)
    p.add_argument("--from-p", type=float, nargs=4, metavar=("PI", "PX", "PY", "PZ"),
                   help="invert: eta of a given mixture")

    p = sub.add_parser("project", help="best-CP approximation")
    _add_channel_args(p)
    p.add_argument("--fix", action="append", default=[], metavar="AXIS=V",
                   help="pin a coordinate, e.g. --fix z=0")

    p = sub.add_parser("canon", help="rotation-diagonal-rotation form")
    _add_channel_args(p)

    p = sub.add_parser("compile", help="compile to the simulation network")
    _add_channel_args(p)

    p = sub.add_parser("run", help="execute a channel on a state")
    _add_channel_args(p)
    p.add_argument("--state", type=float, nargs=3, default=(0.0, 0.0, 1.0),
                   metavar=("SX", "SY", "SZ"))
    p.add_argument("--n", type=int, help="Monte Carlo samples (exact if omitted)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dynamics", help="eta(t) trajectory as CSV")
    p.add_argument("--alpha2", type=float, nargs=3, required=True,
                   metavar=("AX2", "AY2", "AZ2"))
    p.add_argument("--tmax", type=float, default=float(np.pi))
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--oracle-state", type=float, nargs=3, metavar=("SX", "SY", "SZ"),
                   help="run the full-space oracle on this state at --t instead")
    p.add_argument("--t", type=float)

    p = sub.add_parser("design", help="couplings generating a CP diagonal map")
    p.add_argument("--eta", type=float, nargs=3, required=True,
                   metavar=("X", "Y", "Z"))

    p = sub.add_parser("qkd", help="optimal symmetric incoherent attack")
    p.add_argument("--protocol", required=True,
                   choices=["four-state", "six-state"])
    p.add_argument("--dmax", type=float, required=True)
    p.add_argument("--grid-resolution", type=float,
                   help="also cross-check with the grid-search oracle")

    p = sub.add_parser("sw", help="CP + CP-after-transpose decomposition")
    _add_channel_args(p)
    return parser


_AXES = {"x": 0, "y": 1, "z": 2}


def _dispatch(args):
    verb = args.verb
    if verb == "check":
        ch = _channel_from_args(args)
        flag, min_eig = qchannel.is_cp(ch)
        return {"cp": flag, "min_eigenvalue": min_eig}
    if verb == "choi":
        return {"choi": qchannel.choi(_channel_from_args(args))}
    if verb == "weights":
        if args.from_p is not None:
            return {"eta": geometry.mixture_to_eta(np.asarray(args.from_p))}
        mix = geometry.pauli_weights(_eta_from_args(args))
        return {"p": mix.p, "signed": mix.signed}
    if verb == "project":
        eta = _eta_from_args(args)
        if not args.fix:
            return {"eta": geometry.project_to_D(eta)}
        free = np.ones(3, dtype=bool)
        fixed = {}
        for spec_str in args.fix:
            axis, _, val = spec_str.partition("=")
            if axis not in _AXES or not val:
                raise _ArgumentError(f"bad --fix {spec_str!r}, expected x|y|z=V")
            free[_AXES[axis]] = False
            fixed[_AXES[axis]] = float(val)
        fixed_vals = [fixed[i] for i in sorted(fixed)]
        return {"eta": geometry.project_constrained(eta, free, fixed_vals)}
    if verb == "canon":
        form = qchannel.canonical_form(_channel_from_args(args))
        return {"Q": form.Q, "delta": form.delta, "R": form.R}
    if verb == "compile":
        return network.compile_channel(_channel_from_args(args)).to_json()
    if verb == "run":
        spec = network.compile_channel(_channel_from_args(args))
        rho0 = qchannel.bloch_to_density(np.asarray(args.state))
        if args.n is None:
            rho = network.run_exact(spec, rho0)
            return {"bloch": qchannel.density_to_bloch(rho)}
        rho, stderr = network.run_sampled(spec, rho0, args.n, args.seed)
        return {"bloch": qchannel.density_to_bloch(rho), "stderr": stderr,
                "n": args.n, "seed": args.seed, "generator": "numpy-pcg64"}
    if verb == "dynamics":
        spec = dynamics.CouplingSpec.from_alpha2(args.alpha2)
        if args.oracle_state is not None:
            if args.t is None:
                raise _ArgumentError("--oracle-state requires --t")
            rho0 = qchannel.bloch_to_density(np.asarray(args.oracle_state))
            rho = dynamics.simulate_reduced(spec, args.t, rho0)
            return {"bloch": qchannel.density_to_bloch(rho),
                    "eta": dynamics.eta_of_t(spec, args.t)}
        if args.steps < 1:
            raise _ArgumentError(f"--steps must be >= 1, got {args.steps}")
        grid = np.linspace(0.0, args.tmax, args.steps + 1)
        traj = dynamics.trajectory(spec, grid)
        return dynamics.trajectory_to_csv(traj)
    if verb == "design":
        spec, t = dynamics.design_coupling(np.asarray(args.eta))
        return {"alpha": spec.alpha, "alpha2": spec.alpha**2, "t": t}
    if verb == "qkd":
        protocol = qkd.Protocol(args.protocol)
        report = qkd.optimal_attack(protocol, args.dmax).to_json()
        if args.grid_resolution is not None:
            grid_eta = qkd.brute_force_optimum(protocol, args.dmax,
                                               args.grid_resolution)
            report["grid_eta"] = grid_eta
        return report
    if verb == "sw":
        dec = geometry.sw_decompose(_eta_from_args(args))
        return {"p": dec.p, "cp1": dec.cp1, "corner": dec.corner, "cp2": dec.cp2}
    raise _ArgumentError(f"unknown verb {verb!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        result = _dispatch(args)
    except (_ArgumentError, QubitGeomError, OSError, json.JSONDecodeError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(serialize.dumps(err) + "\n")
        return 2
    except Exception as exc:  # internal fault
        sys.stderr.write(serialize.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        sys.stdout.write(serialize.dumps(result) + "\n")
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
