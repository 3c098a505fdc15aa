"""In-memory spans recorded around calls into each sparkcert layer.

A span has a name (``<layer>.<function>``), start and end times from
``time.perf_counter``, the index of its parent span and the id of the
operation it belongs to. Spans stay in memory; run.py writes them out
when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str


class Tracer:
    """Records nested spans; with ``enabled=False`` it records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per layer: span time not covered by child spans.

        Spans come from one thread and nest, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for s, child_time in zip(self.spans, covered):
            layer = s.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (s.end - s.start) - child_time
        return totals
