"""One ``Discretization`` per (problem, grid) for the solver, the verifier,
and the reconstruction stage.

The per-step velocity set is the set of state-grid difference quotients
clipped at the velocity cap, and envelopes are built on exactly that set.
Costs, decompositions, and necessary-condition checks therefore all see
the same discrete relaxation, and they cost a trajectory through one
routine, ``path_costs``, which builds one envelope per distinct time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .convex import (
    ConvexEnvelope,
    Grid1D,
    SampledFunction,
    evaluate_envelope,
    evaluate_envelope_many,
    lower_convex_hull,
    subdifferential,
    subgradient_midpoints,
)
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


def _offset_pairs(
    xs: np.ndarray, step: float, cap: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(predecessor, target, quotient) of every state pair within the cap.

    Walks the state offsets d = 0, +-1, +-2, ... until no pair at offset d
    is within the cap; on an increasing grid the quotients grow with |d|,
    so no farther pair is admissible either.
    """
    limit = cap * (1.0 + 1e-12)
    n = xs.size
    js, ks, raws = [], [], []
    for direction in (1, -1):
        d = 0 if direction > 0 else -1
        while abs(d) < n:
            j = np.arange(max(0, -d), min(n, n - d))
            raw = (xs[j + d] - xs[j]) / step
            ok = np.abs(raw) <= limit
            if not ok.any():
                break
            js.append(j[ok])
            ks.append(j[ok] + d)
            raws.append(raw[ok])
            d += direction
    out = []
    for parts in (js, ks, raws):  # drop each column's pieces once joined
        out.append(np.concatenate(parts))
        parts.clear()
    return tuple(out)


def _distinct_quotients(raw: np.ndarray) -> np.ndarray:
    values = np.unique(raw)
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


def transition_table(
    xs: np.ndarray, step: float, cap: float, points: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The band of state pairs behind the quotient grid ``points``.

    Per grid point, the (predecessor, target) index arrays of the
    admissible pairs whose quotient lies nearest it, ordered by target.
    A target appears at most once per grid point, since the DP keeps one
    predecessor per (target, quotient); two nodes close enough for their
    quotients to merge raise ``InfeasibleError``.  No (n, n) array is
    built.  The nearest point is picked once per distinct quotient, not
    per pair, and every per-pair temporary is released before the band is
    cut, which keeps the peak near three times the band's size.
    """
    j, k, raw = _offset_pairs(xs, step, cap)
    values = np.unique(raw)
    point_of = nearest_index(points, values).astype(np.min_scalar_type(points.size))
    # every pair's quotient is one of ``values``, so the search hits it exactly
    group = point_of[np.searchsorted(values, raw)]
    del raw
    order = np.lexsort((k, group))
    bounds = np.concatenate([[0], np.cumsum(np.bincount(group, minlength=points.size))])
    del group
    j = j[order]
    k = k[order]
    del order
    band = tuple((j[lo:hi], k[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
    if any(np.any(kq[1:] == kq[:-1]) for _, kq in band):
        raise InfeasibleError("two state nodes are closer than one step's quotients resolve")
    return band


def f_envelope(
    problem: Problem, grid: Grid1D, t: float
) -> tuple[SampledFunction, ConvexEnvelope]:
    samples = problem.f.sample(t, grid)
    return samples, lower_convex_hull(samples)


@dataclass(frozen=True, eq=False)
class Discretization:
    """State nodes, time nodes, step and quotient grid of one (problem, grid).

    ``of`` is the one place that decides them, with one walk over the state
    offsets for the merged quotients.  The transition band and the
    endpoint indices are built on first use, so only the DP pays for them.
    """

    problem: Problem
    xs: np.ndarray
    times: np.ndarray
    step: float
    grid: Grid1D

    @classmethod
    def of(cls, problem: Problem, cfg: DPConfig) -> Discretization:
        xs = state_grid(problem, cfg.n_x)
        step = problem.horizon / cfg.n_t
        raw = _offset_pairs(xs, step, problem.velocity_cap)[2]
        grid = Grid1D(merge_close_velocities(_distinct_quotients(raw)))
        times = np.linspace(0.0, problem.horizon, cfg.n_t + 1)
        return cls(problem, xs, times, step, grid)

    @cached_property
    def band(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per grid point, the (predecessor, target) pairs realizing it."""
        cap = self.problem.velocity_cap
        return transition_table(self.xs, self.step, cap, self.grid.points)

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
        points = np.unique(np.concatenate([self.grid.points, extra]))
        return replace(self, grid=Grid1D(merge_close_velocities(points)))

    def envelopes(
        self, times: np.ndarray
    ) -> tuple[list[tuple[SampledFunction, ConvexEnvelope]], np.ndarray]:
        """One (samples, envelope) pair of f per distinct time, and each time's
        pair index.  An autonomous f gets a single pair for all times."""
        times = np.asarray(times, dtype=float)
        if self.problem.f.autonomous:
            keys, which = times[:1], np.zeros(times.size, dtype=np.intp)
        else:
            keys, which = np.unique(times, return_inverse=True)
        return [f_envelope(self.problem, self.grid, float(t)) for t in keys], which

    def path_costs(
        self, times: np.ndarray, states: np.ndarray, velocities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-interval f**(velocity), midpoint subgradient of f** there, and g.

        Row i is the interval starting at (times[i], states[i]) with
        constant velocities[i].  Intervals that share an envelope are
        evaluated together; a lone interval takes the scalar path, which is
        cheaper for one point and gives the same bits.  g takes one scalar
        call per interval, so its bits do not depend on how a state cost
        vectorizes.
        """
        velocities = np.asarray(velocities, dtype=float)
        pairs, which = self.envelopes(times)
        values = np.empty(velocities.size)
        midpoints = np.empty(velocities.size)
        order = np.argsort(which, kind="stable")
        bounds = np.searchsorted(which[order], np.arange(len(pairs) + 1))
        for (_, env), lo, hi in zip(pairs, bounds[:-1], bounds[1:]):
            rows = order[lo:hi]
            if rows.size == 1:
                r = rows[0]
                xi = float(velocities[r])
                values[r] = evaluate_envelope(env, xi)
                midpoints[r] = subdifferential(env, xi).midpoint
            else:
                values[rows] = evaluate_envelope_many(env, velocities[rows])
                midpoints[rows] = subgradient_midpoints(env, velocities[rows])
        problem = self.problem
        g = np.array([float(problem.g.value(float(t), x)) for t, x in zip(times, states)])
        return values, midpoints, g
