"""In-memory span tracer for cvrpkit's public functions.

The tracer times calls from outside the library: it replaces each traced
function, in every cvrpkit module namespace that binds it, with a wrapper
that records a span. Rebinding every namespace matters because the
modules call each other through their own globals (``metrics.cvrp`` calls
``metrics.membership``; ``cli`` calls ``patternio.read_pattern`` as a
module attribute), so wrapping only the defining module would miss
calls between layers.

A span is ``(op, name, depth, dur_ns, self_ns, cells, nbytes)``. Self
time is the span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
import time

#: Traced functions, named ``<module>.<function>`` after their defining module.
SPAN_NAMES = (
    "metrics.cvrp", "metrics.trp", "metrics.prp", "metrics.cvrp_point",
    "metrics.cvrp_sweep",
    "masks.membership",
    "pattern.rotate_about_y", "pattern.sample_bilinear",
    "pattern.remap_to_standard", "pattern.fill_unmeasured",
    "arraysynth.synthesize_eirp", "arraysynth.synthesize_directivity",
    "diagnostics.compare_sweeps",
    "patternio.read_pattern", "patternio.write_pattern",
    "patternio.read_sweep_csv", "patternio.write_sweep_csv",
    "cli.cli_main",
)

_MODULES = ("grid", "masks", "metrics", "pattern", "arraysynth",
            "diagnostics", "patternio", "cli")


def _cells(grid) -> int:
    return grid.n_theta * grid.n_phi


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Work measures for the spans that report a per-cell or per-byte rate.
# Each maps (args, kwargs, result) to (cells, bytes); cells come from the
# input grid, bytes from the file read or written.
_MEASURES = {
    "metrics.cvrp": lambda a, k, r: (_cells(a[0].grid), 0),
    "masks.membership": lambda a, k, r: (_cells(a[1]), 0),
    "pattern.rotate_about_y": lambda a, k, r: (_cells(a[0].grid), 0),
    "arraysynth.synthesize_eirp": lambda a, k, r: (_cells(r.pattern.grid), 0),
    "pattern.remap_to_standard": lambda a, k, r: (_cells(a[0].grid), 0),
    "patternio.read_pattern": lambda a, k, r: (0, _file_size(a[0])),
    "patternio.write_pattern": lambda a, k, r: (0, _file_size(a[1])),
}


class Tracer:
    """Records spans while installed; restores the library on uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []  # child time (ns) of each open span
        self._saved: list[tuple] = []
        self._wrappers = {}
        package = importlib.import_module("cvrpkit")
        self._namespaces = [package] + [
            importlib.import_module(f"cvrpkit.{m}") for m in _MODULES]
        for name in SPAN_NAMES:
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"cvrpkit.{module}"), func)
            self._wrappers[id(original)] = (original, self._wrap(name, original))

    def _wrap(self, name, fn):
        measure = _MEASURES.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                depth = len(stack)
            cells, nbytes = measure(args, kwargs, result) if measure else (0, 0)
            self.spans.append((self.op, name, depth, dur, dur - child, cells, nbytes))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for ns in self._namespaces:
            for attr, value in list(vars(ns).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, entry[1])

    def uninstall(self) -> None:
        for ns, attr, value in self._saved:
            setattr(ns, attr, value)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def merge(self, path: str, op: int) -> None:
        """Add the spans a child process dumped, relabelled as op `op`."""
        with open(path, encoding="utf-8") as fh:
            for span in json.load(fh):
                self.spans.append((op, *span[1:]))
