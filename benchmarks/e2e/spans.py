"""In-memory spans around calls into each layer, and their self times.

The benchmark measures every layer from outside: the hand-driven run
wraps each call into a layer's public function in a span (name, start,
end, parent span), keeps the spans in memory and writes them out when the
run ends.  A layer's *self time* is its spans' duration minus the part
their direct child spans cover, so nested calls (aligner -> window node
-> stat engine) are each charged once.
"""

from __future__ import annotations

import json
from time import perf_counter


class _Span:
    __slots__ = ("recorder", "name")

    def __init__(self, recorder: "SpanRecorder", name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        rec = self.recorder
        rec._stack.append(len(rec.spans))
        parent = rec._stack[-2] if len(rec._stack) > 1 else None
        rec.spans.append([self.name, perf_counter(), None, parent])

    def __exit__(self, *exc):
        rec = self.recorder
        rec.spans[rec._stack.pop()][2] = perf_counter()
        return False


class SpanRecorder:
    """Records ``[name, start, end, parent index]`` rows; spans of one
    run share ``trace_id`` (the workload name)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), seconds in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals

