"""In-memory spans and counters for the benchmark's traced runs.

The library carries no instrumentation of its own: every span wraps one of
the benchmark's calls into a layer's public function.  A span records its
name, start, end and the index of the span that was open when it started,
so a layer's *self* time is its duration minus the time its direct children
cover.  Spans stay in memory during the run and are written out once, when
the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    """Spans ``[name, start, end, parent]`` plus named integer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += int(n)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write the counters, then every span (seconds from the first), as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent])
                    + "\n"
                )
