"""One ``Discretization`` per (problem, grid) for the solver, the verifier,
and the reconstruction stage.

The per-step velocity set is the set of state-grid difference quotients
clipped at the speed limit, and envelopes are built on exactly that set.
Costs, decompositions, and necessary-condition checks therefore all see
the same discrete relaxation.  f and g are sampled at a path's
``interval_times``, f on the rows of ``f.table`` into one
``convex.EnvelopeTable`` per set of times, which the ``Discretization``
keeps.  A path's velocities are placed on that table once
(``placement``, kept by the bits of its times and velocities), and its
costs, subgradients and splitting are read from that ``Placement``:
``path_costs`` returns it with g, and ``Trajectory.costed`` sums its
values and g.  The DP's cost rows are one more placement, of the whole
grid on every row of the table.  A trajectory carries its
``Discretization``, so the stages after the DP or a trajectory read
reuse its tables and its placement.
The DP reads its transitions from ``Discretization.transitions``: per state
offset and target node, the quotient of the admissible pair, in
O(n_offsets * n_x) small integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .convex import EnvelopeTable, Placement
from .errors import DegenerateInputError, InfeasibleError, OutOfDomainError
from .problem import DPConfig, Problem, Trajectory


def state_grid(problem: Problem, n_x: int) -> np.ndarray:
    """Uniform grid over the state box with both endpoints placed exactly."""
    lo, hi = problem.state_box
    xs = np.linspace(lo, hi, n_x)
    for v in (problem.start, problem.end):
        xs = _place(xs, v, problem.start)
    return xs


def _place(xs: np.ndarray, v: float, start: float) -> np.ndarray:
    """``xs`` with ``v`` on it: the nearest node moves to ``v`` when it is
    within tolerance, unless it already holds a different ``start``;
    otherwise ``v`` is inserted, unless it lies within 1e-14 of the box
    scale of that node: distances from points a few box scales away could
    not tell the two apart, so ``v`` stays off the grid."""
    pitch = np.min(np.diff(xs))
    scale = max(1.0, np.abs(xs).max())
    tol = min(1e-9 * scale, 0.25 * pitch)
    i = int(np.argmin(np.abs(xs - v)))
    if abs(xs[i] - v) <= tol and (xs[i] != start or v == start):
        out = xs.copy()
        out[i] = v
        return out
    if abs(xs[i] - v) <= 1e-14 * scale:
        return xs
    return np.sort(np.append(xs, v))


MERGE_TOL = 1e-12
# Quotient-array entries that ``offset_table`` places per pass, to bound its temporaries.
BLOCK_ENTRIES = 2**15


def merge_close_velocities(values: np.ndarray) -> np.ndarray:
    """Collapse relative-1e-12 clusters of sorted values to their first member.

    Difference quotients of a uniform float grid are equal only up to a
    few ulps; without merging they would create epsilon-width hull edges
    with meaningless slopes.
    """
    out = [float(values[0])]
    for v in values[1:]:
        if v - out[-1] > MERGE_TOL * max(1.0, abs(v), abs(out[-1])):
            out.append(float(v))
    return np.array(out)


def _pair_quotients(xs: np.ndarray, step: float, limit: float) -> np.ndarray:
    """Every admissible state pair's difference quotient, by offset and
    target: entry [r, k] is the quotient of the pair (k - top + r, k), so
    the rows run offsets top, ..., -top, and inf where that pair is off
    the grid or beyond the speed limit.  Offsets d = 0, 1, ... are walked
    until none of d's pairs is within the limit; on an increasing grid the
    quotients grow with |d|.  Offset -d's row is d's negated and shifted:
    a - b is exactly -(b - a)."""
    n = xs.size
    spans = []
    for d in range(n):
        raw = (xs[d:] - xs[: n - d]) / step
        ok = np.abs(raw) <= limit
        if not ok.any():
            break
        spans.append((raw, ok))
    top = len(spans) - 1
    out = np.full((2 * top + 1, n), np.inf)
    for d, (raw, ok) in enumerate(spans):
        out[top + d, : n - d] = np.where(ok, -raw, np.inf)
        out[top - d, d:] = np.where(ok, raw, np.inf)  # last, so offset 0 keeps +0.0
    return out


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct finite values, sorted, from a sort and a mask of changed
    values, without the ``numpy.ma`` import that ``numpy.unique`` makes.
    -0.0 counts as 0.0 (adding 0.0 maps it there and keeps every other
    value's bits), so equal values have equal bits."""
    ordered = np.sort(values + 0.0)
    return ordered[np.concatenate([[True], ordered[1:] != ordered[:-1]])]


def _quotient_grid(quotients: np.ndarray) -> np.ndarray:
    """The merged distinct finite quotients: at least two velocities."""
    values = _sorted_distinct(quotients[np.isfinite(quotients)])
    if values.size < 2:
        raise InfeasibleError("velocity cap admits fewer than two difference quotients")
    grid = merge_close_velocities(values)
    if grid.size < 2:
        raise DegenerateInputError(
            "difference quotients merge into one velocity within the relative "
            f"{MERGE_TOL:g} merge tolerance; the velocity grid needs two"
        )
    return grid


def nearest_index(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the node of an increasing array nearest each point; a tie
    goes to the lower index, as with argmin over all nodes."""
    right = np.clip(np.searchsorted(nodes, points), 0, nodes.size - 1)
    left = np.clip(right - 1, 0, nodes.size - 1)
    pick_left = np.abs(nodes[left] - points) <= np.abs(nodes[right] - points)
    return np.where(pick_left, left, right)


def offset_table(quotients: np.ndarray, points: np.ndarray) -> tuple[int, np.ndarray]:
    """The largest offset d_hi and, in the row order of ``quotients`` (see
    ``_pair_quotients``), the index of the point of ``points`` nearest each
    admissible pair's quotient, and ``points.size`` elsewhere.  The DP
    keeps one predecessor per (target, quotient), so two offsets that give
    one target the same point raise ``InfeasibleError``: their state nodes
    are too close to tell apart."""
    top, sentinel = quotients.shape[0] // 2, points.size
    table = np.full(quotients.shape, sentinel, np.min_scalar_type(sentinel))
    per_block = max(1, BLOCK_ENTRIES // quotients.shape[1])
    for r in range(0, len(table), per_block):  # row blocks of a fixed entry budget
        q, out = quotients[r : r + per_block], table[r : r + per_block]
        admissible = np.isfinite(q)
        out[admissible] = nearest_index(points, q[admissible])
    ordered = np.sort(table, axis=0)
    if np.any((ordered[1:] == ordered[:-1]) & (ordered[1:] < sentinel)):
        raise InfeasibleError("two state nodes are closer than one step's quotients resolve")
    return top, table


@dataclass(frozen=True, eq=False)
class Discretization:
    """State nodes, time nodes, step and quotient grid of one (problem, grid).

    ``of`` decides them once: the grid is the merged distinct finite entries
    of ``quotients``, the admissible pairs' quotients (``_pair_quotients``).
    The offset table, which places those entries on the grid, and the
    endpoint indices are built on first use, so only the DP pays for them;
    f's envelope tables, the paths' placements and the extensions are
    kept in ``_kept``, by the bits of their times, velocities or grid,
    which ``replace`` starts empty.  ``sizes``
    is the (n_t, n_x) it was built for, and ``of_path`` reuses the one that
    costed a trajectory.
    """

    problem: Problem
    sizes: tuple[int, int]
    xs: np.ndarray
    times: np.ndarray
    step: float
    grid: np.ndarray
    quotients: np.ndarray
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, problem: Problem, cfg: DPConfig) -> Discretization:
        xs = state_grid(problem, cfg.n_x)
        step = problem.horizon / cfg.n_t
        quotients = _pair_quotients(xs, step, problem.speed_limit)
        grid = _quotient_grid(quotients)
        times = np.linspace(0.0, problem.horizon, cfg.n_t + 1)
        return cls(problem, (cfg.n_t, cfg.n_x), xs, times, step, grid, quotients)

    @classmethod
    def of_path(cls, problem: Problem, cfg: DPConfig, trajectory: Trajectory) -> Discretization:
        """The discretization that costed ``trajectory`` when it was built
        for this problem and this grid, else ``of(problem, cfg)``."""
        disc = trajectory.discretization
        if disc is not None and disc.problem is problem and disc.sizes == (cfg.n_t, cfg.n_x):
            return disc
        return cls.of(problem, cfg)

    @staticmethod
    def interval_times(times: np.ndarray) -> np.ndarray:
        """The interval starts, ``times[:-1]``: the time at which every stage
        samples f and g on each interval of a path with node times ``times``."""
        return times[:-1]

    @cached_property
    def transitions(self) -> tuple[int, np.ndarray]:
        """The largest state offset and the quotient index of every
        admissible pair by (offset, target): see ``offset_table``."""
        return offset_table(self.quotients, self.grid)

    @cached_property
    def endpoints(self) -> tuple[int, int]:
        """State-node indices of the start and the end."""
        problem = self.problem
        hits = [np.flatnonzero(self.xs == v) for v in (problem.start, problem.end)]
        for name, found in zip(("start", "end"), hits):
            if found.size == 0:
                raise InfeasibleError(f"{name} endpoint is not on the state grid")
        return int(hits[0][0]), int(hits[1][0])

    def extended(self, velocities: np.ndarray) -> Discretization:
        """This discretization with the quotient grid extended by the
        velocities of an externally supplied trajectory: ``self`` when each
        is a grid point or they merge into no new one, else the one
        extension kept for the merged grid."""
        extra = np.asarray(velocities, dtype=float)
        if np.any(np.abs(extra) > self.problem.speed_limit):
            raise OutOfDomainError(
                "trajectory velocity exceeds the cap; outside the envelope domain"
            )
        if np.all(self.grid.take(self.grid.searchsorted(extra), mode="clip") == extra):
            return self
        grid = merge_close_velocities(_sorted_distinct(np.concatenate([self.grid, extra])))
        key = ("grid", grid.tobytes())
        if key[1] == self.grid.tobytes():
            return self
        if key not in self._kept:
            self._kept[key] = replace(self, grid=grid)
        return self._kept[key]

    def envelope_table(self, times: np.ndarray) -> tuple[EnvelopeTable, np.ndarray]:
        """f's envelope table on the quotient grid with the rows of
        ``f.table``, and each time's row: built once per set of time bits."""
        key = ("times", np.asarray(times, dtype=float).tobytes())
        if key not in self._kept:
            values, rows = self.problem.f.finite_table(
                times, self.grid, "velocity cost f", "the quotient grid"
            )
            self._kept[key] = EnvelopeTable.of(self.grid, values), rows
        return self._kept[key]

    def placement(self, times: np.ndarray, velocities: np.ndarray) -> Placement:
        """The velocities of a path with interval times ``times`` placed on
        their rows of ``envelope_table(times)``: located once, and split
        once on first use, per set of time and velocity bits."""
        velocities = np.asarray(velocities, dtype=float)
        times = np.asarray(times, dtype=float)
        key = ("path", times.tobytes(), velocities.shape, velocities.tobytes())
        if key not in self._kept:
            table, rows = self.envelope_table(times)
            self._kept[key] = table.place(rows, velocities)
        return self._kept[key]

    def path_costs(
        self, times: np.ndarray, states: np.ndarray, velocities: np.ndarray
    ) -> tuple[Placement, np.ndarray]:
        """The path's ``placement``, whose ``values`` are f** per interval,
        and g per interval.

        Row i is the interval starting at (times[i], states[i]) with
        constant velocities[i], and paths may be stacked on leading axes
        of ``states`` and ``velocities``; the placement answers every
        further query on the same rows.  g takes one checked call on the
        arrays, with the bits of one scalar call per interval.  It is the
        one routine that gives a path's interval values.
        """
        placed = self.placement(times, velocities)
        g = self.problem.g.finite_value(times, states, "state cost g", "the trajectory's states")
        return placed, g
