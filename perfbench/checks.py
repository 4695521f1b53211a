"""Output checks.  Every operation the benchmark times is counted as
attempted; one that raises, or whose answer a check finds wrong, counts as
failed instead of ending the run."""

from __future__ import annotations

import math
import traceback


def hits(table, k: int | None = None) -> list:
    """``[(doc_id, score), ...]`` from a result table."""
    rows = list(zip(table["doc_id"].to_pylist(), table["score"].to_pylist()))
    return rows if k is None else rows[:k]


def same_hits(got, want, rel_tol: float = 1e-12) -> bool:
    """Same doc ids in the same order with the same scores."""
    return len(got) == len(want) and all(
        g[0] == w[0] and math.isclose(g[1], w[1], rel_tol=rel_tol,
                                      abs_tol=1e-12)
        for g, w in zip(got, want)
    )


class Checker:
    """Attempted and failed operation counts, per layer."""

    def __init__(self):
        self.by_layer: dict = {}
        self.examples: list = []

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.by_layer.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.by_layer.values())

    def errors(self, layer: str) -> int:
        return self.by_layer.get(layer, (0, 0))[1]

    def _add(self, layer: str, attempted: int, failed: int, detail: str):
        a, f = self.by_layer.get(layer, (0, 0))
        self.by_layer[layer] = (a + attempted, f + failed)
        if failed and len(self.examples) < 5:
            self.examples.append(f"{layer}: {detail}"[-600:])

    def call(self, layer: str, fn, *args, **kw):
        """Run one operation; returns ``(ok, result)``.  An exception is a
        failed operation, recorded with the end of its traceback."""
        try:
            result = fn(*args, **kw)
        except Exception:  # a failing operation must not end the run
            self._add(layer, 1, 1, traceback.format_exc(limit=-2))
            return False, None
        self._add(layer, 1, 0, "")
        return True, result

    def wrong(self, layer: str, detail: str) -> None:
        """An operation already counted by :meth:`call` returned a wrong
        answer."""
        self._add(layer, 0, 1, detail)

    def expect(self, layer: str, got, want, what: str) -> bool:
        """Compare one counted operation's hits with the reference hits."""
        if same_hits(got, want):
            return True
        self.wrong(layer, f"{what}: got {got[:3]} want {want[:3]}")
        return False
