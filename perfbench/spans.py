"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name (``module.call``), start, end, parent and request id.
Spans stay in memory while the run measures and are written out once at
the end.  A span's self time is its duration minus the time its children
cover; time that no span covers is reported as unattributed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self._request = 0
        self.t0 = time.perf_counter()

    def new_request(self) -> int:
        self._request += 1
        return self._request

    @contextmanager
    def span(self, name: str, request: int | None = None):
        """Record ``name`` around the block; a no-op when disabled."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "request": request, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Self seconds per module (the part of a span name before the
        first dot), plus ``unattributed``: traced wall time no span covers."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        top = 0.0
        for s in self.spans:
            d = s["end"] - s["start"]
            if s["parent"] is None:
                top += d
            mod = s["name"].split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + d - child[s["id"]]
        out["unattributed"] = (time.perf_counter() - self.t0) - top + out.pop(
            "request", 0.0)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"t0": self.t0, "spans": self.spans}, f)
