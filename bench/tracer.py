"""Spans and counts recorded around the benchmark's own calls into isocant.

The benchmark measures the library from outside: every call it makes into a
layer goes through :meth:`Tracer.call`, which names the span
``<module>.<function>`` after the callee.  With tracing off the call goes
straight through, so an untraced run pays one extra Python frame per call.
Spans are kept in memory and summarised when a pass ends; the layer of a span
is the part of its name before the first dot.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# Span names whose self time is reported as a metric of its own, besides the
# layer totals.
NAMED_SPANS = {
    "geometry.enumerate_vertices_oracle": "geometry.oracle_s",
    "geometry.central_symmetry_check": "geometry.oracle_s",
    "geometry.oracle_face_counts": "geometry.faces_s",
    "geometry.verify_unique_vertex": "geometry.unique_vertex_s",
}

# A CLI span is a whole child process, so its layer total is process time.
BUSY_NAMES = {"cli": "cli.proc_s"}


class Tracer:
    """Span and count recorder for one pass; inert unless ``on``."""

    def __init__(self, on: bool) -> None:
        self.on = on
        # Each span: [name, start, end, parent index or None, op id].
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named after its module and function."""
        if not self.on:
            return fn(*args, **kwargs)
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
        return self.span(name, fn, *args, **kwargs)

    def span(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span with an explicit name."""
        if not self.on:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add to a count the benchmark computed from a call's inputs or outputs."""
        if self.on:
            self.counts[name] += value

    def summary(self) -> dict[str, float]:
        """Per-layer calls and self time, named span times, and the counts."""
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                self_time[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, _, _), own in zip(self.spans, self_time):
            layer = name.partition(".")[0]
            out[f"{layer}.calls"] += 1
            out[BUSY_NAMES.get(layer, f"{layer}.busy_s")] += own
            if name in NAMED_SPANS:
                out[NAMED_SPANS[name]] += own
        out.update(self.counts)
        return dict(out)
