"""In-memory spans for the traced benchmark run.

A span records name, start, end, parent span and the unit it belongs to
(an operation, the set-up, or a probe).  Spans stay in memory and are
handed to the parent process at the end of the run, which writes them out.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


def no_span(name):
    """Span factory for untraced operations: records nothing."""
    return _NULL


class Tracer:
    def __init__(self):
        self.spans = []
        self.values = []  # (unit, name, value) counts read at a layer boundary
        self.unit = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "unit": self.unit,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def value(self, name, v):
        self.values.append((self.unit, name, float(v)))


def per_unit(spans, values=()):
    """{unit: {name: self seconds summed over the unit's spans, or value}}."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s["unit"]][s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
    for unit, name, v in values:
        out[unit][name] += v
    return out
