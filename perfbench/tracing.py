"""In-memory spans and counters for the traced benchmark run.

A span records its name, start, end, parent span and op id.  Spans are kept
in a list while the run goes and written out as JSON lines once it ends.
A module's self time is the summed duration of its spans minus the part
covered by their child spans; the module is the span name up to the first
dot, so ``quantizer.eve`` and ``quantizer.exchange`` both belong to
``quantizer``.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "pipeline.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []      # (name, start, end, parent, op)
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self._op)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span opened inside belongs to it."""
        self._op = op_id
        with self.span(ROOT):
            yield

    def count(self, name: str, value: float) -> None:
        """Record one value of the counter ``name``, such as one cascade call's leak."""
        self.counts[name].append(value)

    def per_op_totals(self) -> dict[int, dict[str, float]]:
        """Per op: summed duration (s) of each span name, and self time per module."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, _, op_id) in enumerate(self.spans):
            dur = end - start
            totals[op_id][name] += dur
            module = name.split(".", 1)[0]
            totals[op_id][f"{module}.self"] += dur - child_time[sid]
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "op": op_id, "parent": parent, "name": name,
                    "start": start, "end": end,
                }) + "\n")
