"""In-memory spans recorded around the benchmark's own calls into the package."""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans as ``[name, start, end, parent, op]``; ``parent`` is the index of
    the enclosing span, ``op`` the op id every span of one op shares."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, float, int]] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, float(value), self.op))

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def by_op(self) -> dict[int, dict[str, float]]:
        """Per op: summed duration (seconds) per span name, plus every count."""
        out: dict[int, dict[str, float]] = {}
        for name, start, end, _, op in self.spans:
            d = out.setdefault(op, {})
            d[name] = d.get(name, 0.0) + (end - start)
        for name, value, op in self.counts:
            d = out.setdefault(op, {})
            d[name] = d.get(name, 0.0) + value
        return out

    def write(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for (name, start, end, parent, op), self_s in zip(self.spans, own):
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "self": self_s}) + "\n")
            for name, value, op in self.counts:
                fh.write(json.dumps({"count": name, "value": value, "op": op}) + "\n")
