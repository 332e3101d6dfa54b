"""In-memory span tracer for the benchmark's traced run.

A span records a name, a start and end time, the span that was open when it
started (its parent), the operation it belongs to and the workload being
replayed; spans of one operation share that operation's id.  Counters are kept
per workload too.  Spans stay in memory and are written to a side file when
the run ends.  A span's self time is its duration minus the part of it that
its children cover.

The tracer times its own bookkeeping (everything it does besides running the
traced block), per workload, so the run can report how much tracing added.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.workload = ""     # the workload whose replay is running
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.overhead_s: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_op = 0

    @contextmanager
    def operation(self, name: str):
        """Top-level span of one benchmark operation; its children share its id."""
        t0 = _clock()
        self._next_op += 1
        self.overhead_s[self.workload] += _clock() - t0
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str):
        t0 = _clock()
        index = len(self.spans)
        record = {"name": name, "op": self._next_op, "workload": self.workload,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            record["start"], record["end"] = start, end
            self._stack.pop()
            self.overhead_s[self.workload] += (start - t0) + (_clock() - end)

    def count(self, name: str, value: float) -> None:
        self.counts[self.workload][name] += value

    def maximum(self, name: str, value: float) -> None:
        counts = self.counts[self.workload]
        counts[name] = max(counts[name], value)

    def self_times(self, workload: str) -> dict[str, float]:
        """Total self time per span name over the spans of one workload."""
        child_cover = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                # children of one span run one after another, never overlapping
                child_cover[rec["parent"]] += rec["end"] - rec["start"]
        totals: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans):
            if rec["workload"] == workload:
                totals[rec["name"]] += rec["end"] - rec["start"] - child_cover[i]
        return dict(totals)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        workloads = list(dict.fromkeys(rec["workload"] for rec in self.spans))
        doc = {"meta": meta, "overhead_s": dict(self.overhead_s),
               "counts": {w: dict(c) for w, c in self.counts.items()},
               "self_times_s": {w: self.self_times(w) for w in workloads}, "spans": self.spans}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")
