"""Traced stand-in for ``python -m qubitgeom.cli``.

Times ``import qubitgeom.cli`` and the installation of the tracer, then runs
``cli.main`` with every public function of the package traced
(``serialize.dumps`` among them), and writes the spans as one JSON line,
after MARKER, to stderr. Stdout carries the program's own output unchanged.
Run with src/ on PYTHONPATH; tracer.py sits next to this script.
"""

import json
import sys
from time import perf_counter_ns

MARKER = "@@bench-spans "

if __name__ == "__main__":
    t0 = perf_counter_ns()
    import qubitgeom.cli as cli
    t1 = perf_counter_ns()

    from tracer import Tracer

    tracer = Tracer()
    tracer.record("cli.import", t0, t1)
    tracer.install()
    tracer.record("trace.setup", t1, perf_counter_ns())
    code = cli.main(sys.argv[1:])
    tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(tracer.export()) + "\n")
    sys.exit(code)
