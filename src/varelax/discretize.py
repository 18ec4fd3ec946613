"""One ``Discretization`` per (problem, grid) for the solver, the verifier,
and the reconstruction stage.

The per-step velocity set is the set of state-grid difference quotients
clipped at the velocity cap, and envelopes are built on exactly that set.
Costs, decompositions, and necessary-condition checks therefore all see
the same discrete relaxation.  f is sampled on the rows of ``f.table``
into one ``convex.EnvelopeTable`` per solve, and costs, subgradients and
splittings are read from it by array gathers: ``path_costs`` gives a
path's interval costs, which ``Trajectory.costed`` sums, and the
trajectory carries the table that costed it, so the stages after the DP
or after a trajectory read reuse it (``envelope_table``).
The DP reads its transitions from ``Discretization.transitions``: per state
offset and target node, the quotient of the admissible pair, in
O(n_offsets * n_x) small integers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .convex import EnvelopeTable
from .errors import InfeasibleError, OutOfDomainError
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


# Per state offset d with an admissible pair: d, the admissibility of each
# pair (j, j + d) for j = max(0, -d), ..., and the pairs' difference quotients.
OffsetWalk = tuple[tuple[int, np.ndarray, np.ndarray], ...]


def _offset_walk(xs: np.ndarray, step: float, cap: float) -> OffsetWalk:
    """The difference quotients of every state pair, offset by offset.

    Walks the state offsets d = 0, +-1, +-2, ... until no pair at offset d
    is within the cap; on an increasing grid the quotients grow with |d|,
    so no farther pair is admissible either.
    """
    limit = cap * (1.0 + 1e-12)
    n = xs.size
    walk = []
    for direction in (1, -1):
        d = 0 if direction > 0 else -1
        while abs(d) < n:
            lo, hi = max(0, -d), min(n, n - d)
            raw = (xs[lo + d : hi + d] - xs[lo:hi]) / step
            ok = np.abs(raw) <= limit
            if not ok.any():
                break
            walk.append((d, ok, raw))
            d += direction
    return tuple(walk)


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``numpy.unique(values)`` of finite values, from a sort and a mask of
    changed values, without the ``numpy.ma`` import that ``numpy.unique``
    makes.  Equal values then have equal bits, except 0.0 and -0.0: where
    both occur, which ones ``numpy.unique`` keeps is up to its hash table,
    so those arrays go to it."""
    signs = np.signbit(values[values == 0.0])
    if signs.any() and not signs.all():
        return np.unique(values)
    ordered = np.sort(values)
    return ordered[np.concatenate([[True], ordered[1:] != ordered[:-1]])]


def _distinct_quotients(walk: OffsetWalk) -> np.ndarray:
    values = _sorted_distinct(np.concatenate([raw[ok] for _, ok, raw in walk]))
    if values.size < 2:
        raise InfeasibleError("velocity cap admits fewer than two difference quotients")
    return values


def nearest_index(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the node of an increasing array nearest each point; a tie
    goes to the lower index, as with argmin over all nodes."""
    right = np.clip(np.searchsorted(nodes, points), 0, nodes.size - 1)
    left = np.clip(right - 1, 0, nodes.size - 1)
    pick_left = np.abs(nodes[left] - points) <= np.abs(nodes[right] - points)
    return np.where(pick_left, left, right)


def offset_table(walk: OffsetWalk, points: np.ndarray) -> tuple[int, np.ndarray]:
    """The admissible state pairs behind the quotient grid ``points``, by
    state offset.

    Returns the largest offset d_hi and a table whose row r holds offset
    d_hi - r, so the rows run d_hi, d_hi - 1, ..., d_lo: entry [r, k] is
    the index of the grid point nearest the quotient of the pair
    (k - d_hi + r, k), and ``points.size`` where that pair is not
    admissible.  The DP keeps one predecessor per (target, quotient), so
    two admissible offsets that give one target the same point raise
    ``InfeasibleError``: their state nodes are too close to tell apart.
    """
    offsets = [d for d, _, _ in walk]
    top, sentinel = max(offsets), points.size
    n = walk[0][1].size  # the walk starts at offset 0, which pairs every node
    table = np.full((top - min(offsets) + 1, n), sentinel, np.min_scalar_type(sentinel))
    for d, ok, raw in walk:
        lo = max(0, -d)
        table[top - d, lo + d : lo + d + ok.size] = np.where(
            ok, nearest_index(points, raw), sentinel
        )
    ordered = np.sort(table, axis=0)
    if np.any((ordered[1:] == ordered[:-1]) & (ordered[1:] < sentinel)):
        raise InfeasibleError("two state nodes are closer than one step's quotients resolve")
    return top, table


@dataclass(frozen=True, eq=False)
class Discretization:
    """State nodes, time nodes, step and quotient grid of one (problem, grid).

    ``of`` is the one place that decides them, with one walk over the state
    offsets for the merged quotients; the offset table of the admissible
    pairs is cut from that same walk.  The offset table and the endpoint
    indices are built on first use, so only the DP pays for them.
    """

    problem: Problem
    xs: np.ndarray
    times: np.ndarray
    step: float
    grid: np.ndarray
    walk: OffsetWalk

    @classmethod
    def of(cls, problem: Problem, cfg: DPConfig) -> Discretization:
        xs = state_grid(problem, cfg.n_x)
        step = problem.horizon / cfg.n_t
        walk = _offset_walk(xs, step, problem.velocity_cap)
        grid = merge_close_velocities(_distinct_quotients(walk))
        times = np.linspace(0.0, problem.horizon, cfg.n_t + 1)
        return cls(problem, xs, times, step, grid, walk)

    @cached_property
    def transitions(self) -> tuple[int, np.ndarray]:
        """The largest state offset and the quotient index of every
        admissible pair by (offset, target): see ``offset_table``."""
        return offset_table(self.walk, self.grid)

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
        velocities of an externally supplied trajectory."""
        extra = np.asarray(velocities, dtype=float)
        if np.any(np.abs(extra) > self.problem.velocity_cap * (1.0 + 1e-12)):
            raise OutOfDomainError(
                "trajectory velocity exceeds the cap; outside the envelope domain"
            )
        points = _sorted_distinct(np.concatenate([self.grid, extra]))
        return replace(self, grid=merge_close_velocities(points))

    def envelope_table(
        self, times: np.ndarray, trajectory: Trajectory | None = None
    ) -> tuple[EnvelopeTable, np.ndarray]:
        """f's envelope table on the quotient grid with the rows of
        ``f.table``, and each time's row: the table that ``trajectory``
        carries when it was built for this f, exactly these times and
        exactly this grid, else a new one."""
        if trajectory is not None and trajectory.costing is not None:
            f, built_for, table, rows = trajectory.costing
            same_grid = _same_bits(table.grid, self.grid)
            if f is self.problem.f and _same_bits(built_for, times) and same_grid:
                return table, rows
        values, rows = self.problem.f.table(times, self.grid)
        return EnvelopeTable.of(self.grid, values), rows

    def path_costs(
        self, times: np.ndarray, states: np.ndarray, velocities: np.ndarray, trajectory=None
    ) -> tuple[EnvelopeTable, np.ndarray, np.ndarray, np.ndarray]:
        """Per-interval envelope table and row, f**(velocity) and g.

        Row i is the interval starting at (times[i], states[i]) with
        constant velocities[i]; all intervals are costed from one envelope
        table, ``envelope_table(times, trajectory)``, which answers further
        queries on the same rows.  g takes one call on the arrays, with the
        bits of one scalar call per interval.
        """
        table, rows = self.envelope_table(times, trajectory)
        g = self.problem.g.value(times, states)
        return table, rows, table.at(rows, velocities), g


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
