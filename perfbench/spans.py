"""In-memory spans recorded around calls into varelax's public functions.

A span is (name, start, end, parent).  Spans live in memory while the
passes run and are written out once at the end.  A layer's self time is
its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Tracer:
    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    counts: list[dict[str, int]] = field(default_factory=list)  # one dict per pass
    _stack: list[int] = field(default_factory=list)

    def begin_pass(self) -> None:
        self.counts.append(defaultdict(int))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            _, start, _, _ = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[-1][name] += amount

    def wrap(self, name: str, fn, counter=None):
        """``fn`` with a span around every call.  ``counter`` is an optional
        (count name, function of the result) pair added to the pass's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self.count(counter[0], counter[1](result))
            return result

        return traced

    def pass_self_times(self, root: str) -> list[dict[str, float]]:
        """Self time per span name, one dict per span named ``root``."""
        children = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: list[dict[str, float]] = []
        owner: dict[int, int] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == root and parent < 0:
                totals.append(defaultdict(float))
                owner[i] = len(totals) - 1
                continue
            top = owner.get(parent)
            if top is None:
                continue
            owner[i] = top
            totals[top][name] += (end - start) - children[i]
        return totals

    def dump(self, path: Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
