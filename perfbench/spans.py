"""Spans and counts recorded around stlfunnel's public functions.

The tracer wraps functions from outside the package: it replaces the
name in the module namespace where the caller looks it up, so
``sim.run_episode`` calling ``make_event`` goes through the wrapper
installed on ``stlfunnel.sim``.  Each call records one span (name,
start, end, parent); counts are added at the same boundary.  Spans stay
in memory until :meth:`Tracer.write`.

This module imports only the standard library, so loading it does not
move the import cost that ``setup_s`` measures.
"""

from __future__ import annotations

import collections
import csv
import functools
import time


class Tracer:
    """In-memory span log with a stack of open spans for parent links."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = [-1]

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def install(self, modules, attr: str, name: str, count=None) -> None:
        """Wrap ``attr`` of ``modules[0]`` in a span named ``name``.

        The wrapper is bound in every module of ``modules``, since each
        caller looks the name up in its own namespace.  ``count(counts,
        args, result)`` adds counts after each call.
        """
        fn = getattr(modules[0], attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        for module in modules:
            setattr(module, attr, traced)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children never outlive their parent on one stack.
        """
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[idx]
        return out

    def write(self, path) -> None:
        """Write the span log as CSV: id, parent, name, start, end (seconds)."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_s", "end_s"])
            for idx, name in enumerate(self.names):
                out.writerow([
                    idx, self.parents[idx], name,
                    f"{self.starts[idx] - origin:.9f}", f"{self.ends[idx] - origin:.9f}",
                ])
