"""Span tracing of qubitgeom from outside the package.

``Tracer.install`` replaces every public function of the traced modules by
a wrapper in the module's namespace. Calls between modules go through those
namespaces (``network.compile_channel`` calls ``qchannel.is_cp``, which
calls ``linalg.hermitian_eig``), and calls inside a module look the name up
in the same namespace, so nested calls are caught too. Nothing in ``src/``
changes; ``uninstall`` puts the original functions back.

Spans (name, start, end, parent, operation) are kept in flat integer arrays
and written out once, when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter_ns

MODULES = ("linalg", "channel", "geometry", "network", "dynamics", "qkd",
           "serialize", "cli")


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with _."""
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Add a span measured elsewhere; returns its index."""
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self.current_op)
        return len(self.start) - 1

    def open(self, name: str) -> int:
        """Open a span that encloses the spans recorded until ``close``."""
        idx = self.record(name, perf_counter_ns(), 0, self._stack[-1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self.intern(name)
        stack, name_id, start, end, parent, ops = (
            self._stack, self.name_id, self.start, self.end, self.parent, self.op)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            ops.append(tracer.current_op)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for short in MODULES:
            module = importlib.import_module(f"qubitgeom.{short}")
            for name in public_functions(module):
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(fn, f"{short}.{name}"))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, self time, total time), times in ns, over every
        span recorded."""
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        self_ns = dur - children
        calls = np.bincount(nid, minlength=len(self.names))
        own = np.bincount(nid, weights=self_ns, minlength=len(self.names))
        total = np.bincount(nid, weights=dur, minlength=len(self.names))
        return {name: (int(calls[i]), int(own[i]), int(total[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        """Write the spans as a numpy .npz archive of flat arrays."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int64),
            start_ns=np.frombuffer(self.start, np.int64), end_ns=np.frombuffer(self.end, np.int64),
            parent=np.frombuffer(self.parent, np.int64), op=np.frombuffer(self.op, np.int64))

    def export(self) -> dict:
        """The spans as plain lists, to hand from a child process to its parent."""
        return {"names": self.names, "spans": [
            [self.name_id[i], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self.start))]}

    def merge(self, exported: dict, parent: int):
        """Add a child process's spans under the span ``parent`` (the clock is
        the system-wide monotonic clock, so child times are comparable)."""
        base = len(self.start)
        for nid, start, end, par in exported["spans"]:
            self.record(exported["names"][nid], start, end,
                        parent if par < 0 else base + par)
