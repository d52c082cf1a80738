"""The three benchmark workloads: seeded inputs, one operation, its checks.

Each workload is an object with

- ``make_round(rng)``: the inputs of one round. Every round has the same
  make-up (how many inputs of each kind), so the share of failed operations
  is the same in every run, whatever its length or seed;
- ``run(inp)``: one operation, calling the program only through the
  namespaces of its modules (so that the tracer sees every call);
- ``check(inp, out)``: the independent checks of ``checks``;
- ``warmup()``: one call of each function the operation uses, on fixed
  inputs, as part of set-up.

The program receives only generated inputs; the seed never reaches it except
as the sampling seed of ``run_sampled`` and ``run --seed``, which are inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import qubitgeom  # noqa: F401  (loads every module below)
from qubitgeom import channel, dynamics, geometry, network, qkd

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


class BandMismatch(Exception):
    """is_cp and compile_channel disagree on a point of the tolerance band."""


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def random_state(rng) -> np.ndarray:
    """Bloch vector with length uniform in [0.5, 1]."""
    s = rng.standard_normal(3)
    return s * (rng.uniform(0.5, 1.0) / np.linalg.norm(s))


def cube_point(rng, cp: bool | None = None) -> np.ndarray:
    """Uniform point of the cube [-1, 1]^3 at least 1e-6 from the boundary
    of D in face slack (the tolerance band is its own input kind); with
    ``cp`` set, only points on that side of the boundary."""
    while True:
        eta = rng.uniform(-1.0, 1.0, 3)
        slack = checks.face_slack(eta)
        if abs(slack) >= 1e-6 and (cp is None or (slack < 0) == cp):
            return eta


def dirichlet_point(rng) -> np.ndarray:
    return checks.VERTICES.T @ rng.dirichlet(np.ones(4))


# ---------------------------------------------------------------- channel_stream

SAMPLES = 4096


def _band_points() -> list[np.ndarray]:
    """Eight fixed points just outside D, two per face, with face slack
    n . eta - 1 of 2e-9 or 3e-9. The minimum Choi eigenvalue there is
    -slack / 4 >= -1e-9, so is_cp accepts them, while in_D (slack <= 1e-9)
    rejects them. They do not depend on the seed, so every run meets the
    same ones."""
    pts = []
    for k, n in enumerate(checks.FACE_NORMALS):
        for w, slack in (((0.5, 0.3, 0.2), 2e-9), ((0.2, 0.2, 0.6), 3e-9)):
            weights = np.zeros(4)
            weights[np.arange(4) != k] = w          # a point inside face k
            pts.append(checks.VERTICES.T @ weights + n * (slack / 3.0))
    return pts


BAND_POINTS = _band_points()


@dataclass
class ChannelInput:
    kind: str            # "general", "boundary" or "band"
    A: np.ndarray
    cp: bool             # truth from the construction
    s: np.ndarray
    rho: np.ndarray
    seed: int
    eta: np.ndarray | None = None   # diagonal inputs only


class ChannelStream:
    """A stream of unital channels A = R1 diag(e) R2 through the CP check,
    then compile/run (CP) or canonical form/projection/split (not CP)."""

    name = "channel_stream"
    # per round: 44 general channels, 4 diagonal boundary points of D
    # (2 on faces, 1 on an edge, 1 vertex) and 2 tolerance-band points
    GENERAL, FACES, EDGES, VERTICES, BAND = 44, 2, 1, 1, 2
    ROUND = GENERAL + FACES + EDGES + VERTICES + BAND

    def __init__(self):
        self._band_next = 0

    def _diag(self, rng, kind, eta, cp=True):
        s = random_state(rng)
        return ChannelInput(kind, np.diag(eta), cp, s, checks.density_of(s),
                            int(rng.integers(2**31)), np.asarray(eta, dtype=float))

    def make_round(self, rng) -> list[ChannelInput]:
        items = []
        for _ in range(self.GENERAL):
            e = cube_point(rng)
            A = random_rotation(rng) @ np.diag(e) @ random_rotation(rng)
            s = random_state(rng)
            items.append(ChannelInput("general", A, checks.face_slack(e) < 0, s,
                                      checks.density_of(s), int(rng.integers(2**31))))
        for _ in range(self.FACES):
            k = rng.integers(4)
            w = np.zeros(4)
            w[np.arange(4) != k] = rng.dirichlet(np.ones(3))
            items.append(self._diag(rng, "boundary", checks.VERTICES.T @ w))
        for _ in range(self.EDGES):
            i, j = rng.choice(4, size=2, replace=False)
            a = rng.uniform()
            items.append(self._diag(rng, "boundary",
                                    a * checks.VERTICES[i] + (1 - a) * checks.VERTICES[j]))
        for _ in range(self.VERTICES):
            items.append(self._diag(rng, "boundary", checks.VERTICES[rng.integers(4)]))
        for _ in range(self.BAND):
            eta = BAND_POINTS[self._band_next % len(BAND_POINTS)]
            self._band_next += 1
            items.append(self._diag(rng, "band", eta, cp=False))
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    @staticmethod
    def run(x: ChannelInput):
        ch = channel.AffineChannel(x.A)
        flag, min_eig = channel.is_cp(ch)
        if flag:
            try:
                spec = network.compile_channel(ch)
            except qubitgeom.NotCP as exc:
                if x.kind == "band":
                    raise BandMismatch(str(exc)) from exc
                raise
            rho = network.run_exact(spec, x.rho)
            rho_n, _ = network.run_sampled(spec, x.rho, SAMPLES, x.seed)
            return flag, min_eig, spec, rho, rho_n
        form = channel.canonical_form(ch)
        proj = geometry.project_to_D(form.delta)
        split = geometry.sw_decompose(form.delta)
        return flag, min_eig, form, proj, split

    @staticmethod
    def check(x: ChannelInput, out):
        flag, min_eig = out[0], out[1]
        slack = None if x.eta is None else checks.face_slack(x.eta)
        if x.kind != "band":
            checks.cp_verdict(flag, min_eig, x.cp, slack)
        if flag:
            _, _, spec, rho, rho_n = out
            checks.network(spec.u1, spec.u2, spec.weights, x.A)
            checks.exact_output(rho, x.A, x.s)
            checks.sampled_output(checks.bloch_of(rho_n), x.A, x.s, SAMPLES)
        else:
            _, _, form, proj, split = out
            checks.canonical(form.Q, form.delta, form.R, x.A)
            checks.projection(proj, form.delta)
            checks.sw_split(split.p, split.cp1, split.cp2, form.delta)

    def warmup(self):
        rng = np.random.default_rng(0)
        for eta in ((0.2, -0.1, 0.3), (-0.9, -0.8, -0.7)):   # one CP, one not
            A = random_rotation(rng) @ np.diag(eta) @ random_rotation(rng)
            self.run(ChannelInput("general", A, eta[0] > 0, np.zeros(3),
                                  checks.density_of(np.zeros(3)), 0))


# ---------------------------------------------------------------- dynamics_attack

GRID_POINTS = 2001            # trajectory time grid
RESOLUTION = 2e-3             # four-state brute-force grid step
ORACLE_STATES = [np.array(s, dtype=float) for s in
                 ((1.0, 0.0, 0.0), (0.0, 0.6, 0.8), (0.0, 0.0, -1.0))]
ORACLE_RHOS = [checks.density_of(s) for s in ORACLE_STATES]


def grid_bytes(d: float) -> int:
    """Bytes of the four-state brute-force grid at disturbance d: the
    (n, 3) point array, the two meshgrid arrays and the (n, 4) face
    products, all float64. Computed from the grid sizes, not measured."""
    n_sym = len(np.arange(1.0 - 2.0 * d, 1.0 + RESOLUTION / 2.0, RESOLUTION))
    n_y = len(np.arange(-1.0, 1.0 + RESOLUTION / 2.0, RESOLUTION))
    return n_sym * n_y * (3 + 2 + 4) * 8


# Fixed disturbances above 1/3, one per round in turn. There the four-state
# optimal_attack is not the smallest |overlap| (CHANGES.md), so each of these
# operations fails, in every run and whatever the seed.
BEYOND_THIRD = (0.35, 0.4, 0.45, 0.5)


def known_fault_if(known: bool, check, *args):
    """Run ``check``; on an input of the known fault, its rejection makes the
    operation a failed one instead of a wrong answer."""
    try:
        check(*args)
    except checks.CheckFailed as exc:
        if known:
            raise checks.KnownFault(str(exc)) from exc
        raise


@dataclass
class DynamicsInput:
    target: np.ndarray
    grid: np.ndarray
    d: float
    beyond_third: bool = False


class DynamicsAttack:
    """Inverse design of the coupling for a target channel, its oracle
    simulation and trajectory, and both QKD attacks at a disturbance."""

    name = "dynamics_attack"
    # per round: 4 seeded disturbances in [0.02, 0.3], where optimal_attack
    # is right, and 1 fixed one from BEYOND_THIRD
    SEEDED, FIXED = 4, 1
    ROUND = SEEDED + FIXED

    def __init__(self):
        self._fixed_next = 0

    @staticmethod
    def _input(rng, d: float, beyond_third: bool = False) -> DynamicsInput:
        target = dirichlet_point(rng)
        grid = np.linspace(0.0, rng.uniform(0.5 * np.pi, np.pi), GRID_POINTS)
        return DynamicsInput(target, grid, d, beyond_third)

    def make_round(self, rng) -> list[DynamicsInput]:
        items = [self._input(rng, float(rng.uniform(0.02, 0.3))) for _ in range(self.SEEDED)]
        d = BEYOND_THIRD[self._fixed_next % len(BEYOND_THIRD)]
        self._fixed_next += 1
        items.append(self._input(rng, d, beyond_third=True))
        return [items[i] for i in rng.permutation(len(items))]

    @staticmethod
    def run(x: DynamicsInput):
        spec, t = dynamics.design_coupling(x.target)
        eta = dynamics.eta_of_t(spec, t)
        rhos = [dynamics.simulate_reduced(spec, t, rho) for rho in ORACLE_RHOS]
        traj = dynamics.trajectory(spec, x.grid)
        csv = dynamics.trajectory_to_csv(traj)
        attacks = []
        for protocol in (qkd.Protocol.FOUR_STATE, qkd.Protocol.SIX_STATE):
            report = qkd.optimal_attack(protocol, x.d)
            p_c = qkd.success_probability(protocol, report.eta)
            dil = qkd.probe_overlaps_dilation(report.eta)
            attacks.append((report.to_json(), p_c, dil))
        grid_eta = qkd.brute_force_optimum(qkd.Protocol.FOUR_STATE, x.d, RESOLUTION)
        return spec, t, eta, rhos, traj, csv, attacks, grid_eta

    @staticmethod
    def check(x: DynamicsInput, out):
        spec, t, eta, rhos, traj, csv, attacks, grid_eta = out
        checks.design(spec.alpha, t, x.target)
        alpha2 = np.asarray(spec.alpha) ** 2
        checks.close(eta, checks.eta_closed_form(alpha2, t), checks.EXACT_TOL, "eta_of_t")
        for rho, s in zip(rhos, ORACLE_STATES):
            checks.reduced_state(rho, alpha2, t, s)
        checks.trajectory(traj.times, traj.etas, alpha2, x.grid)
        checks.csv_rows(csv, traj.times, traj.etas)
        for four_state, (report, p_c, dil) in zip((True, False), attacks):
            checks.attack(report, four_state, x.d)
            checks.close(p_c, report["p_c"], 1e-12, "success_probability")
            checks.dilation(*dil, report)
        checks.grid_optimum(grid_eta, True, x.d, RESOLUTION)
        for four_state, (report, _, _) in zip((True, False), attacks):
            known_fault_if(x.beyond_third and four_state,
                           checks.attack_optimal, report, four_state, x.d)

    def warmup(self):
        self.run(DynamicsInput(np.array([0.2, -0.1, 0.05]),
                               np.linspace(0.0, np.pi, 11), 0.1))


# ---------------------------------------------------------------- cli

CLI_SAMPLES = 4096
CLI_STEPS = 200
CLI_RESOLUTION = 5e-3
VERBS = ("check", "project", "compile", "run", "dynamics", "design", "qkd", "sw")


def _f(v) -> list[str]:
    return [repr(float(x)) for x in v]


@dataclass
class CliInput:
    verb: str
    argv: list[str]
    data: dict
    beyond_third: bool = False


def cli_env() -> dict:
    """The environment of a cli process: src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Cli:
    """One ``python -m qubitgeom.cli`` process per request, one at a time."""

    name = "cli"
    # per round: one request per verb, and one four-state qkd request at a
    # fixed disturbance from BEYOND_THIRD
    ROUND = len(VERBS) + 1

    def __init__(self, launcher: bool = False):
        self._fixed_next = 0
        # the traced run starts each request through the launcher instead
        self.prefix = ([sys.executable, str(BENCH_DIR / "cli_launcher.py")] if launcher
                       else [sys.executable, "-m", "qubitgeom.cli"])
        self.env = cli_env()

    def request(self, rng, verb: str) -> CliInput:
        if verb == "check":
            eta = cube_point(rng)
            return CliInput(verb, ["check", "--eta", *_f(eta)], {"eta": eta})
        if verb in ("project", "sw"):
            eta = cube_point(rng, cp=False)
            return CliInput(verb, [verb, "--eta", *_f(eta)], {"eta": eta})
        if verb in ("compile", "design"):
            eta = dirichlet_point(rng)
            return CliInput(verb, [verb, "--eta", *_f(eta)], {"eta": eta})
        if verb == "run":
            eta, s, seed = dirichlet_point(rng), random_state(rng), int(rng.integers(2**31))
            return CliInput(verb, ["run", "--eta", *_f(eta), "--state", *_f(s),
                                   "--n", str(CLI_SAMPLES), "--seed", str(seed)],
                            {"eta": eta, "s": s, "seed": seed})
        if verb == "dynamics":
            a2 = rng.dirichlet(np.ones(3))
            tmax = float(rng.uniform(1.0, np.pi))
            return CliInput(verb, ["dynamics", "--alpha2", *_f(a2), "--tmax", repr(tmax),
                                   "--steps", str(CLI_STEPS)], {"alpha2": a2, "tmax": tmax})
        if verb == "qkd":
            return self.qkd(bool(rng.integers(2)), float(rng.uniform(0.02, 0.3)))
        raise ValueError(verb)

    @staticmethod
    def qkd(four: bool, d: float, beyond_third: bool = False) -> CliInput:
        return CliInput("qkd", ["qkd", "--protocol", "four-state" if four else "six-state",
                                "--dmax", repr(d), "--grid-resolution", repr(CLI_RESOLUTION)],
                        {"four": four, "d": d}, beyond_third)

    def make_round(self, rng) -> list[CliInput]:
        d = BEYOND_THIRD[self._fixed_next % len(BEYOND_THIRD)]
        self._fixed_next += 1
        items = [self.request(rng, verb) for verb in VERBS] + [self.qkd(True, d, True)]
        return [items[i] for i in rng.permutation(len(items))]

    def run(self, x: CliInput):
        proc = subprocess.run(self.prefix + x.argv, env=self.env, capture_output=True,
                              text=True, timeout=60)
        self.last_stderr = proc.stderr
        if proc.returncode != 0:
            raise RuntimeError(f"{x.verb} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout, proc.stderr

    @staticmethod
    def check(x: CliInput, out):
        stdout = out[0]
        d = x.data
        if x.verb == "dynamics":
            grid = np.linspace(0.0, d["tmax"], CLI_STEPS + 1)
            lines = stdout.split("\n")
            table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]])
            checks.require(lines[0] == "t,eta_x,eta_y,eta_z", "dynamics csv header")
            checks.trajectory(table[:, 0], table[:, 1:], d["alpha2"], grid)
            return
        obj = json.loads(stdout)
        if x.verb == "check":
            slack = checks.face_slack(d["eta"])
            checks.cp_verdict(obj["cp"], obj["min_eigenvalue"], slack < 0, slack)
        elif x.verb == "project":
            checks.projection(obj["eta"], d["eta"])
        elif x.verb == "sw":
            checks.sw_split(obj["p"], obj["cp1"], obj["cp2"], d["eta"])
        elif x.verb == "compile":
            w = np.asarray(obj["amplitudes"]) ** 2
            checks.network(obj["u1"], obj["u2"], w, np.diag(d["eta"]))
        elif x.verb == "design":
            checks.design(obj["alpha"], obj["t"], d["eta"])
        elif x.verb == "run":
            checks.require(obj["n"] == CLI_SAMPLES and obj["seed"] == d["seed"], "run echo")
            checks.sampled_output(obj["bloch"], np.diag(d["eta"]), d["s"], CLI_SAMPLES)
        elif x.verb == "qkd":
            checks.attack(obj, d["four"], d["d"])
            checks.grid_optimum(obj["grid_eta"], d["four"], d["d"], CLI_RESOLUTION)
            known_fault_if(x.beyond_third, checks.attack_optimal, obj, d["four"], d["d"])


WORKLOADS = {"channel_stream": ChannelStream, "dynamics_attack": DynamicsAttack,
             "cli": Cli}
