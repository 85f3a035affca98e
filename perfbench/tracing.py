"""In-memory spans around the benchmark's calls into the repo.

A span is ``(name, start, end, parent, run_id)``; spans live in a list
and are written as JSON lines when the run ends.  A span's self time is
its duration minus the part of it that its children cover.  With
tracing off the benchmark uses ``NullTracer``, whose ``span`` is a
shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class NullTracer:
    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def depth(self) -> int:
        return 0

    def unwind(self, depth: int) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def depth(self) -> int:
        return len(self._stack)

    def unwind(self, depth: int) -> None:
        """Drop spans left open by a call abandoned at its deadline."""
        del self._stack[depth:]

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name (children of one span never
        overlap: the benchmark drives every layer from one thread)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["end"] is not None:
                out[s["name"]] += max(0.0, s["end"] - s["start"] - child[s["id"]])
        return dict(out)

    def overhead_s(self) -> float:
        """Cost of recording this run's spans, timed on a scratch tracer."""
        probe = Tracer(self.run_id)
        n = 2000
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - t0) / n * len(self.spans)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
