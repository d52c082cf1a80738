"""Command-line surface over the library.

VERBS describes each verb once: help text, arguments, handler and the
library operations the handler runs (coverage-tested); some operations,
such as apply, have no verb. A channel comes from exactly one of --eta X Y Z,
--in FILE.json and --catalog NAME; two sources exit 2. Results go to stdout
as JSON (or CSV for trajectories) with floats at 17 significant digits; a
malformed value or a validation failure exits with code 2 and a JSON error
object on stderr. Library calls go through the package, so dynamics, network and
qkd load only for their verbs; no teardown runs; a failed write (-h's help too) exits 120.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

import qubitgeom as qg

MAX_STEPS = 100_000  # a dynamics CSV of at most about 8 MB


class _ArgumentError(Exception):
    pass


class _Help(Exception):  # -h: the help text is the answer, written by main
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads a negative number such as -2e-10 or -inf as an option
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):  # an unknown verb's refusal quotes VERBS, as 3.13's does not
        m = re.match(r"argument verb: invalid choice: .*(?= \(choose from )", message)
        raise _ArgumentError(f"{m[0]} (choose from {', '.join(map(repr, VERBS))})" if m else message)

    def print_help(self, file=None):  # argparse's own drops a failed write and exits 0
        raise _Help(self.format_help())


def _catalog_entry(text: str) -> tuple[str, float | None]:
    """--catalog NAME or NAME:P as (name, p)."""
    name, sep, param = text.partition(":")
    return name, float(param) if sep else None


def _pinned_axis(text: str) -> tuple[int, float]:
    """--fix AXIS=V as (axis index, value)."""
    axis, _, value = text.partition("=")
    try:
        return ("x", "y", "z").index(axis), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected x|y|z=V, got {text!r}") from None


_CHANNEL_ARGS = {
    "--eta": dict(type=float, nargs=3, metavar=("X", "Y", "Z")),
    "--in": dict(dest="infile", metavar="FILE"),
    "--catalog": dict(type=_catalog_entry, metavar="NAME",
                      help="named channel; depolarize takes NAME:P"),
}


def _channel_from_args(args) -> qg.channel.AffineChannel:
    sources = [s for s in (args.infile, args.eta, args.catalog) if s is not None]
    if len(sources) != 1:
        raise _ArgumentError("provide exactly one of --in, --eta, --catalog")
    if args.infile is not None:
        with open(args.infile) as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not UTF-8, too long an int, too deep
                raise exc if isinstance(exc, json.JSONDecodeError) else _ArgumentError(f"--in: {exc}")
        return qg.channel.channel_from_json(data)
    if args.eta is not None:
        return qg.channel.AffineChannel.from_eta(args.eta)
    return qg.channel.catalog(*args.catalog)


def _eta_from_args(args) -> np.ndarray:
    ch = _channel_from_args(args)
    if not ch.is_diagonal:
        raise _ArgumentError("this verb needs a diagonal unital channel")
    return ch.eta


def _check(args):
    flag, min_eig = qg.channel.is_cp(_channel_from_args(args))
    return {"cp": flag, "min_eigenvalue": min_eig}


def _weights(args):
    if args.from_p is None:
        mix = qg.geometry.pauli_weights(_eta_from_args(args))
        return {"p": mix.p, "signed": mix.signed}
    eta = qg.geometry.mixture_to_eta(args.from_p)  # refuses bad weights first
    if (args.eta, args.infile, args.catalog) != (None, None, None):
        raise _ArgumentError("--from-p takes no --in, --eta or --catalog")
    return {"eta": eta}


def _project(args):
    eta = _eta_from_args(args)
    if not args.fix:
        return {"eta": qg.geometry.project_to_D(eta)}
    fixed = dict(args.fix)
    free = [axis not in fixed for axis in range(3)]
    fixed_vals = [fixed[axis] for axis in sorted(fixed)]
    return {"eta": qg.geometry.project_constrained(eta, free, fixed_vals)}


def _run(args):
    spec = qg.network.compile_channel(_channel_from_args(args))
    rho0 = qg.channel.bloch_to_density(args.state)
    if args.n is None:
        if args.seed is not None:
            raise _ArgumentError("--seed requires --n")
        rho = qg.network.run_exact(spec, rho0)
        return {"bloch": qg.channel.density_to_bloch(rho)}
    seed = 0 if args.seed is None else args.seed
    rho, stderr = qg.network.run_sampled(spec, rho0, args.n, seed)
    return {"bloch": qg.channel.density_to_bloch(rho), "stderr": stderr,
            "n": args.n, "seed": seed, "generator": "numpy-pcg64"}


def _dynamics(args):
    spec = qg.dynamics.CouplingSpec.from_alpha2(args.alpha2)
    if args.oracle_state is not None:  # the oracle at --t, else a trajectory
        if args.t is None or (args.tmax, args.steps) != (None, None):
            raise _ArgumentError("--oracle-state requires --t and takes no --tmax or --steps")
        rho0 = qg.channel.bloch_to_density(args.oracle_state)
        rho = qg.dynamics.simulate_reduced(spec, args.t, rho0)
        return {"bloch": qg.channel.density_to_bloch(rho),
                "eta": qg.dynamics.eta_of_t(spec, args.t)}
    if args.t is not None:
        raise _ArgumentError("--t requires --oracle-state")
    steps = 100 if args.steps is None else args.steps
    if not 1 <= steps <= MAX_STEPS:
        raise _ArgumentError(f"--steps must be in [1, {MAX_STEPS}], got {steps}")
    tmax = qg.linalg._real(np.pi if args.tmax is None else args.tmax, "--tmax", ())
    if tmax < 0:
        raise _ArgumentError(f"--tmax must be >= 0, got {args.tmax}")
    grid = np.linspace(0.0, tmax, steps + 1)
    return qg.dynamics.trajectory_to_csv(qg.dynamics.trajectory(spec, grid))


def _design(args):
    spec, t = qg.dynamics.design_coupling(args.eta)
    return {"alpha": spec.alpha, "alpha2": spec.alpha**2, "t": t}


def _qkd(args):
    report = qg.qkd.optimal_attack(args.protocol, args.dmax).to_json()
    if args.grid_resolution is not None:
        report["grid_eta"] = qg.qkd.brute_force_optimum(args.protocol, args.dmax,
                                                         args.grid_resolution)
    return report


class Verb(NamedTuple):
    help: str
    arguments: dict  # flag -> add_argument keywords, in the order of the usage line
    run: Callable  # parsed arguments -> JSON-ready object, or CSV text
    operations: tuple[str, ...]  # library operations run calls, directly or not


VERBS = {
    "check": Verb("complete-positivity test", _CHANNEL_ARGS, _check, ("is_cp",)),
    "choi": Verb("trace-1 Choi matrix", _CHANNEL_ARGS,
                 lambda args: {"choi": qg.channel.choi(_channel_from_args(args))}, ("choi",)),
    "weights": Verb("Pauli mixture weights of a diagonal map", _CHANNEL_ARGS | {
        "--from-p": dict(type=float, nargs=4, metavar=("PI", "PX", "PY", "PZ"),
                         help="invert: eta of a given mixture"),
    }, _weights, ("pauli_weights", "mixture_to_eta")),
    "project": Verb("best-CP approximation", _CHANNEL_ARGS | {
        "--fix": dict(type=_pinned_axis, action="append", default=[], metavar="AXIS=V",
                      help="pin a coordinate, e.g. --fix z=0"),
    }, _project, ("project_to_D", "project_constrained")),
    "canon": Verb("rotation-diagonal-rotation form", _CHANNEL_ARGS,
                  lambda args: qg.channel.canonical_form(_channel_from_args(args))._asdict(),
                  ("canonical_form",)),
    "compile": Verb("compile to the simulation network", _CHANNEL_ARGS,
                    lambda args: qg.network.compile_channel(_channel_from_args(args)).to_json(),
                    ("compile_channel",)),
    "run": Verb("execute a channel on a state", _CHANNEL_ARGS | {
        "--state": dict(type=float, nargs=3, default=(0.0, 0.0, 1.0), metavar=("SX", "SY", "SZ")),
        "--n": dict(type=int, help="Monte Carlo samples (exact if omitted)"),
        "--seed": dict(type=int, help="with --n; 0 if omitted"),
    }, _run, ("run_exact", "run_sampled")),
    "dynamics": Verb("eta(t) trajectory as CSV", {
        "--alpha2": dict(type=float, nargs=3, required=True, metavar=("AX2", "AY2", "AZ2")),
        "--tmax": dict(type=float, help="trajectory end; pi if omitted"),
        "--steps": dict(type=int, help=f"grid intervals, at most {MAX_STEPS}; 100 if omitted"),
        "--oracle-state": dict(type=float, nargs=3, metavar=("SX", "SY", "SZ"),
                               help="run the full-space oracle on this state at --t instead"),
        "--t": dict(type=float),
    }, _dynamics, ("trajectory", "eta_of_t", "simulate_reduced")),
    "design": Verb("couplings generating a CP diagonal map", {
        "--eta": dict(type=float, nargs=3, required=True, metavar=("X", "Y", "Z")),
    }, _design, ("design_coupling",)),
    "qkd": Verb("optimal symmetric incoherent attack", {
        "--protocol": dict(required=True, choices=["four-state", "six-state"]),
        "--dmax": dict(type=float, required=True),
        "--grid-resolution": dict(type=float, help="also cross-check with the grid-search oracle"),
    }, _qkd, ("optimal_attack", "brute_force_optimum")),
    "sw": Verb("CP + CP-after-transpose decomposition", _CHANNEL_ARGS,
               lambda args: qg.geometry.sw_decompose(_eta_from_args(args))._asdict(),
               ("sw_decompose",)),
}


def _build_parser(verbs=VERBS) -> _Parser:
    indent = "\n" + " " * len("usage: qubitgeom ")  # the usage as 3.11 wraps it; 3.13 does not
    parser = _Parser(prog="qubitgeom", usage=f"qubitgeom [-h]{indent}{{{','.join(VERBS)}}}{indent}...")
    sub = parser.add_subparsers(dest="verb", required=True, prog="qubitgeom")
    for name in verbs:
        p = sub.add_parser(name, help=VERBS[name].help)
        for flag, kwargs in VERBS[name].arguments.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # the parser of the verb argv[0] names, alone; of every verb if it names none
        args = _build_parser(VERBS.keys() & argv[:1] or VERBS).parse_args(argv)
        result = VERBS[args.verb].run(args)
    except _Help as exc:
        result = str(exc)
    except Exception as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(qg.serialize.dumps(err) + "\n")
        bad_input = (_ArgumentError, qg.QubitGeomError, OSError, json.JSONDecodeError)
        return 2 if isinstance(exc, bad_input) else 1  # else an internal fault
    sys.stdout.write(result if isinstance(result, str) else qg.serialize.dumps(result) + "\n")
    return 0


def entry():
    try:
        code = main()
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: its fd was closed
            stream.flush()
    except (OSError, AttributeError):  # a write into a closed pipe, or to a None stream
        code = 120  # the interpreter's own code for a failed flush at exit
    os._exit(code)  # no interpreter teardown: atexit handlers do not run


if __name__ == "__main__":
    entry()
