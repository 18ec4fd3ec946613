"""One ``Discretization`` per (problem, grid) for the solver, the verifier,
and the reconstruction stage.

The per-step velocity set is the set of state-grid difference quotients
clipped at the velocity cap, and envelopes are built on exactly that set.
Costs, decompositions, and necessary-condition checks therefore all see
the same discrete relaxation.  Each stage samples f on the rows of
``f.table`` into one ``convex.EnvelopeTable`` and reads costs,
subgradients and splittings from it by array gathers; ``path_costs``
gives a trajectory's interval costs, which ``Trajectory.costed`` sums.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .convex import EnvelopeTable
from .errors import InfeasibleError, OutOfDomainError
from .problem import DPConfig, Problem


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
# A contiguous run of (predecessor, target) pairs: both indices rise by one.
Run = tuple[slice, slice]


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


def _distinct_quotients(walk: OffsetWalk) -> np.ndarray:
    values = np.unique(np.concatenate([raw[ok] for _, ok, raw in walk]))
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


def transition_table(walk: OffsetWalk, points: np.ndarray) -> tuple[tuple[Run, ...], ...]:
    """The band of state pairs behind the quotient grid ``points``.

    Per grid point, the admissible (predecessor, target) pairs whose
    quotient lies nearest it, as maximal runs of (predecessor slice,
    target slice) ordered by target: a run is cut wherever either index
    stops rising by one.  Within one offset both indices rise together, so
    each run is a stretch of one offset's pairs with one nearest point,
    and pairs of different offsets never join a run.  A target appears at
    most once per grid point, since the DP keeps one predecessor per
    (target, quotient); two nodes close enough for their quotients to
    merge raise ``InfeasibleError``.  Per-pair temporaries live for one
    offset at a time.
    """
    runs: list[list[Run]] = [[] for _ in range(points.size)]
    for d, ok, raw in walk:
        group = np.where(ok, nearest_index(points, raw), -1)
        edges = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), group.size]
        lo = max(0, -d)
        for a, b in zip(edges[:-1], edges[1:]):
            if group[a] >= 0:
                runs[group[a]].append((slice(lo + a, lo + b), slice(lo + a + d, lo + b + d)))
    for entry in runs:
        entry.sort(key=lambda run: run[1].start)
        targets = [k for _, k in entry]
        if any(k.start < prev.stop for prev, k in zip(targets, targets[1:])):
            raise InfeasibleError("two state nodes are closer than one step's quotients resolve")
    return tuple(map(tuple, runs))


@dataclass(frozen=True, eq=False)
class Discretization:
    """State nodes, time nodes, step and quotient grid of one (problem, grid).

    ``of`` is the one place that decides them, with one walk over the state
    offsets for the merged quotients; the band is cut from that same walk.
    The transition band and the endpoint indices are built on first use,
    so only the DP pays for them.
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
    def band(self) -> tuple[tuple[Run, ...], ...]:
        """Per grid point, the (predecessor, target) runs realizing it."""
        return transition_table(self.walk, self.grid)

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
        points = np.unique(np.concatenate([self.grid, extra]))
        return replace(self, grid=merge_close_velocities(points))

    def envelope_table(self, times: np.ndarray) -> tuple[EnvelopeTable, np.ndarray]:
        """f's envelope table on the quotient grid with the rows of
        ``f.table``, and each time's row."""
        values, rows = self.problem.f.table(times, self.grid)
        return EnvelopeTable.of(self.grid, values), rows

    def path_costs(
        self, times: np.ndarray, states: np.ndarray, velocities: np.ndarray
    ) -> tuple[EnvelopeTable, np.ndarray, np.ndarray, np.ndarray]:
        """Per-interval envelope table and row, f**(velocity) and g.

        Row i is the interval starting at (times[i], states[i]) with
        constant velocities[i]; all intervals are costed from one envelope
        table, which answers further queries on the same rows.  g takes one
        scalar call per interval, so its bits do not depend on how a state
        cost vectorizes.
        """
        table, rows = self.envelope_table(times)
        problem = self.problem
        g = np.array([float(problem.g.value(float(t), x)) for t, x in zip(times, states)])
        return table, rows, table.at(rows, velocities), g
