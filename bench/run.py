"""qubitgeom benchmark: three closed-loop workloads with independent checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeatability [--seconds S]

One caller in one process issues the next operation only after the last one
returned; BLAS and OpenMP get one thread. Inputs come from --seed alone.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. End-to-end times are scaled to the
reference machine speed of speed.py; the same times as measured go to
stderr. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 15       # set-up is measured this many times, median reported
MIN_SAMPLES = 100        # p90 needs ten samples beyond it
HARD_CAP_S = 150.0       # stop even short of MIN_SAMPLES, to end within 180 s
CAPACITY = 1 << 18       # operations a run can hold: 15 times what channel_stream
                         # does in 30 s today; a run ends early rather than overflow
RUNS = 10                # runs per workload in each repeatability set
REFERENCE_EVERY_NS = 20_000_000   # reference samples bracket about 20 ms of work

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# Child processes keep and reuse compiled bytecode, as an installed package does.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)


def fail(message: str):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def import_program():
    """Put src/ first on the path; the benchmark measures that tree only."""
    if not (SRC_DIR / "qubitgeom" / "__init__.py").is_file():
        fail(f"no qubitgeom package under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def metric(value, unit):
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------- set-up

def setup_probe(workload: str):
    """Child process: time the import of qubitgeom plus one warm-up call of
    every function the workload uses, and print the seconds."""
    t0 = time.perf_counter()
    import qubitgeom  # noqa: F401
    t1 = time.perf_counter()
    import workloads   # benchmark code, not counted

    wl = workloads.WORKLOADS[workload]()
    t2 = time.perf_counter()
    wl.warmup()
    t3 = time.perf_counter()
    print(repr((t1 - t0) + (t3 - t2)))


def setup_seconds(workload: str, wl, speed) -> tuple[float, float]:
    """Median set-up time at reference speed, and as measured."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        if workload == "cli":
            # set-up of the cli is its first invocation, outside the latencies
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "qubitgeom.cli", "check", "--eta",
                            "0.25", "-0.5", "0.125"], env=wl.env, capture_output=True,
                           check=True, timeout=60)
            seconds = time.perf_counter() - t0
        else:
            proc = subprocess.run([sys.executable, __file__, "--setup-probe", workload],
                                  capture_output=True, text=True, check=True, timeout=60)
            seconds = float(proc.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds * speed.factor(before, speed.sample()))
    return statistics.median(scaled), statistics.median(raw)


# ---------------------------------------------------------------- measuring

class Run:
    """Counts and operation times of one run, in buffers allocated up front,
    so that the harness's memory does not grow with the operations done."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times_ns = array("q", bytes(8 * CAPACITY))   # every attempted operation
        self.factors = array("d", bytes(8 * CAPACITY))    # reference-speed factor of its stretch
        self.ok = bytearray(CAPACITY)                     # 0 where it failed
        self.scaled = 0                                   # operations with a factor so far
        self.errors: dict[str, int] = {}

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def busy_ns(self) -> int:
        return sum(self.times_ns[:self.attempted])

    def room_for(self, n: int) -> bool:
        return self.attempted + n <= CAPACITY

    def _failed(self, i: int, exc: Exception):
        self.ok[i] = 0
        self.failed += 1
        key = type(exc).__name__
        self.errors[key] = self.errors.get(key, 0) + 1

    def one(self, wl, inp):
        """Run, time and check one operation."""
        import checks

        i = self.attempted
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = wl.run(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.times_ns[i] = time.perf_counter_ns() - t0
            self._failed(i, exc)
            return
        self.times_ns[i] = time.perf_counter_ns() - t0
        self.ok[i] = 1
        try:
            wl.check(inp, out)
        except checks.KnownFault as exc:
            self._failed(i, exc)
        except checks.CheckFailed as exc:
            self.correct = False
            sys.stderr.write(f"bench: check failed: {exc}\n")

    def round(self, wl, batch, speed):
        """Run a round, sampling the reference before it and again after
        every stretch of at least REFERENCE_EVERY_NS of operations."""
        before = speed.sample()
        since = 0
        for i, inp in enumerate(batch, 1):
            self.one(wl, inp)
            since += self.times_ns[self.attempted - 1]
            if since >= REFERENCE_EVERY_NS or i == len(batch):
                after = speed.sample()
                factor = speed.factor(before, after)
                for k in range(self.scaled, self.attempted):
                    self.factors[k] = factor
                self.scaled = self.attempted
                before, since = after, 0

    def end_to_end(self, setup_s: float, peak_rss_mb: float, scaled: bool = True) -> dict:
        n = self.attempted
        times = ([t * f for t, f in zip(self.times_ns[:n], self.factors[:n])] if scaled
                 else self.times_ns[:n])
        lat = sorted(t for t, ok in zip(times, self.ok[:n]) if ok)
        q = statistics.quantiles(lat, n=10, method="inclusive")
        return {
            "throughput_per_s": metric(len(lat) / (sum(times) / 1e9), "1/s"),
            "latency_p50_ms": metric(statistics.median(lat) / 1e6, "ms"),
            "latency_p90_ms": metric(q[8] / 1e6, "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }


def keep_going(run: Run, round_size: int, started: float, seconds: float,
               min_samples: int) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed >= HARD_CAP_S or not run.room_for(round_size):
        return False
    return elapsed < seconds or run.completed < min_samples


def peak_rss_mb(workload: str) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the reference
    runs where the cli processes run."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(workload: str, seed: int, seconds: float) -> dict:
    import numpy as np
    import workloads
    from speed import Speed

    pin_to_one_cpu()
    wl = workloads.WORKLOADS[workload]()
    speed = Speed()
    setup_s, setup_raw = setup_seconds(workload, wl, speed)
    if workload != "cli":
        wl.warmup()
    rng = np.random.default_rng(seed)
    run = Run()
    started = time.perf_counter()
    while keep_going(run, wl.ROUND, started, seconds, MIN_SAMPLES):
        run.round(wl, wl.make_round(rng), speed)
    if run.errors:
        sys.stderr.write(f"bench: failed operations by error: {run.errors}\n")
    rss = peak_rss_mb(workload)
    raw = run.end_to_end(setup_raw, rss, scaled=False)
    sys.stderr.write("bench: as measured, before scaling to reference speed: "
                     + ", ".join(f"{k}={v['value']:.6g}" for k, v in raw.items())
                     + f"; reference median {statistics.median(speed.samples_ns) / 1e6:.4f} ms\n")
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": run.end_to_end(setup_s, rss)}


def measure_traced(workload: str, seed: int, seconds: float, names: list[str]) -> dict:
    """Each round runs untraced, then traced on the same inputs: the traced
    halves give the per-layer metrics, the pair gives the tracing overhead."""
    import numpy as np
    import workloads
    from cli_launcher import MARKER
    from tracer import Tracer

    pin_to_one_cpu()
    wl = workloads.WORKLOADS[workload]()
    traced_wl = workloads.Cli(launcher=True) if workload == "cli" else wl
    if workload != "cli":
        wl.warmup()
    tracer = Tracer()
    rng = np.random.default_rng(seed)
    plain, traced = Run(), Run()
    grid_bytes = 0
    started = time.perf_counter()
    while keep_going(traced, wl.ROUND, started, seconds, 1):
        batch = wl.make_round(rng)
        for inp in batch:
            plain.one(wl, inp)
        if workload != "cli":
            tracer.install()
        for inp in batch:
            tracer.current_op = traced.attempted
            span = tracer.open("cli.process" if workload == "cli" else "op")
            traced.one(traced_wl, inp)
            tracer.close(span)
            if workload == "cli":
                _merge_child(tracer, span, traced_wl.last_stderr, MARKER)
            if workload == "dynamics_attack":
                grid_bytes += workloads.grid_bytes(inp.d)
        tracer.uninstall()

    ops = traced.attempted
    totals = tracer.totals()

    def per_op(layer, field, scale):
        return totals.get(layer, (0, 0, 0))[field] / scale / ops

    values = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if stat == "calls_per_op":
            values[name] = metric(per_op(layer, 0, 1), "count")
        elif stat == "self_us_per_op":
            values[name] = metric(per_op(layer, 1, 1e3), "us")
    extra = {
        "qkd.brute_force_optimum.grid_mb_per_op": metric(grid_bytes / 1e6 / ops, "MB"),
        "cli.import_ms": metric(per_op("cli.import", 2, 1e6), "ms"),
        # spawn to exit, minus import, tracer set-up and cli.main
        "cli.interpreter_ms": metric(per_op("cli.process", 1, 1e6), "ms"),
        "cli.process_ms": metric(per_op("cli.process", 2, 1e6), "ms"),
        "trace.overhead_pct": metric(100.0 * (traced.busy_ns / plain.busy_ns - 1.0), "%"),
    }
    values.update({k: v for k, v in extra.items() if k in names})

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    tracer.save(path)
    sys.stderr.write(f"bench: {len(tracer.start)} spans written to {path}\n")
    return {"correct": plain.correct and traced.correct, "attempted": traced.attempted,
            "failed": traced.failed, "metrics": {n: values[n] for n in names}}


def _merge_child(tracer, span: int, stderr: str, marker: str):
    for line in stderr.splitlines():
        if line.startswith(marker):
            tracer.merge(json.loads(line[len(marker):]), span)
            return
    fail("traced cli process reported no spans")


# ---------------------------------------------------------------- repeatability

def repeatability(spec: dict, seconds: int) -> int:
    """Two sets of RUNS runs per workload of the same code, one after the
    other, with the same seeds; prints, per workload and end-to-end metric,
    both medians, their quartiles, the spreads and the shift between the
    sets. A metric passes when both spreads and the shift, either way, stay
    within its bound; the failed share must be the same in every run."""
    workloads = [w["name"] for w in spec["workloads"]]
    sets = []
    for label in ("A", "B"):
        results = {}
        for wl in workloads:
            results[wl] = []
            for seed in range(1, RUNS + 1):
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", wl, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    fail(f"{wl} seed {seed} exited {proc.returncode}: {proc.stderr}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                results[wl].append(result)
                sys.stderr.write(f"bench: set {label} {wl} seed {seed}: "
                                 f"{json.dumps(result)}\n")
        sets.append(results)

    lines = ["| workload | metric | bound | set A median [q1, q3] | set B median [q1, q3] "
             "| spread A | spread B | shift | ok |", "|---|---|---|---|---|---|---|---|---|"]
    report = {}
    all_ok = True
    for wl in workloads:
        shares = [{r["failed"] / r["attempted"] for r in s[wl]} for s in sets]
        same_share = len(shares[0] | shares[1]) == 1
        all_ok &= same_share and all(r["correct"] for s in sets for r in s[wl])
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s[wl]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                stats.append((med, q1, q3, (q3 - q1) / med))
            sign = 1.0 if m["better"] == "lower" else -1.0
            shift = sign * (stats[1][0] - stats[0][0]) / stats[0][0]
            ok = abs(shift) <= bound and max(stats[0][3], stats[1][3]) <= bound
            all_ok &= ok
            report[f"{wl}.{name}"] = {"bound": bound, "sets": stats, "shift": shift, "ok": ok}
            lines.append(
                f"| {wl} | {name} | {bound:.2f} | "
                + " | ".join(f"{a:.4g} [{b:.4g}, {c:.4g}]" for a, b, c, _ in stats)
                + f" | {stats[0][3]:.1%} | {stats[1][3]:.1%} | {shift:+.1%} | "
                + ("yes" if ok else "NO") + " |")
        lines.append(f"| {wl} | failed share | exact | "
                     + " | ".join(", ".join(f"{x:.4f}" for x in sorted(sh)) for sh in shares)
                     + f" | | | | {'yes' if same_share else 'NO'} |")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "repeatability.json").write_text(json.dumps(
        {"runs": RUNS, "seconds": seconds, "report": report, "sets": sets}, indent=1))
    print("\n".join(lines))
    print("repeatable" if all_ok else "NOT repeatable")
    return 0 if all_ok else 1


# ---------------------------------------------------------------- entry

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeatability", action="store_true")
    p.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    import_program()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if args.repeatability:
        return repeatability(spec, seconds)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    if args.trace:
        result = measure_traced(args.workload, args.seed, seconds,
                                [m["name"] for m in spec["per_layer"]])
    else:
        result = measure(args.workload, args.seed, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
