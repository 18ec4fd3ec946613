"""Reference-speed scaling of wall times.

The host this benchmark runs on changes speed by up to ~40% over
minutes, and a worker process can run its operations 20–40% slower than
the next one on the same host (CPU time tracks wall time, so it is no
steadier).  A wall time is therefore reported at reference speed: it is
multiplied by NOMINAL_S / r, where r is the time of ``reference()``, a
fixed computation that never touches varelax, run in the same process
right before and right after each timed operation.  Only operations that
run in the process that times them are scaled: the grid operations, and
``cli.main`` on traced passes.  The raw wall times are kept in each
run's record.

What slows the program down is mostly contention for the caches and
memory it shares with the host's other tenants, and how much depends on
the size of its working set.  So the reference repeats the program's
own pattern at the workload's size: min-plus DP steps over a dense
transition table on as many nodes as the workload's largest state grid,
with fresh temporaries each step, then an interpreter-bound loop like
the program's per-step bookkeeping.  A single 400-node reference, whose
tables fit in L2, tracked neither fine-grid nor budget-sweep (README.md,
"Reference speed").
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.2  # reference() time that defines "reference speed"; never change it

# Workload -> (nodes, steps) of its reference; each takes about NOMINAL_S
# on the host the README's figures come from.  Never change them either.
SHAPES = {"fine-grid": (513, 40), "budget-sweep": (129, 1100), "cli-shipped": (129, 1100)}


class _Table:
    def __init__(self, nodes: int):
        self.x = np.linspace(-1.0, 1.0, nodes)
        gap = np.abs(self.x[None, :] - self.x[:, None])
        self.admissible = gap <= 0.5
        self.quotient = np.where(self.admissible, (gap * 20.0).astype(np.int64), 0)
        self.costs = np.cos(np.arange(32.0)) ** 2


_TABLES: dict[int, _Table] = {}


def reference(nodes: int, steps: int) -> float:
    """Seconds taken by a fixed computation shaped like the program's DP."""
    if nodes not in _TABLES:
        _TABLES[nodes] = _Table(nodes)
    tab = _TABLES[nodes]
    t0 = time.perf_counter()
    value = np.full(nodes, np.inf)
    value[nodes // 2] = 0.0
    back = np.empty((steps, nodes), dtype=np.int64)
    for i in range(steps):
        g = np.sin(tab.x * (1.0 + 0.01 * i)) ** 2
        move = np.where(tab.admissible, tab.costs[tab.quotient], np.inf)
        candidates = value[:, None] + 0.01 * (g[:, None] + move)
        back[i] = np.argmin(candidates, axis=0)
        value = np.min(candidates, axis=0)
    s, pairs = 0.0, []
    for i in range(100_000):
        s += i * 0.5
        if i % 10 == 0:
            pairs.append((i, s))
    return time.perf_counter() - t0


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` wall seconds at reference speed, given the reference
    times measured just before and just after them."""
    return elapsed * NOMINAL_S / (0.5 * (before + after))


class Clock:
    """Records the wall time of each call it times, raw and at reference
    speed, with ``reference()`` run between consecutive calls."""

    def __init__(self, workload: str):
        self.shape = SHAPES[workload]
        self.before = reference(*self.shape)
        self.laps: list[tuple[float, float]] = []  # (wall, at reference speed) per call

    def time(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            after = reference(*self.shape)
            self.laps.append((elapsed, scaled(elapsed, self.before, after)))
            self.before = after

    def lap(self) -> list[tuple[float, float]]:
        """(wall, at reference speed) of each call since the last lap."""
        laps, self.laps = self.laps, []
        return laps
