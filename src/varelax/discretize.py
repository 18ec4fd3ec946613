"""Shared grid construction for the solver, the verifier, and the
reconstruction stage.

The per-step velocity set is the set of state-grid difference quotients
clipped at the velocity cap, and envelopes are built on exactly that set.
Costs, decompositions, and necessary-condition checks therefore all see
the same discrete relaxation.
"""

from __future__ import annotations

import numpy as np

from .convex import ConvexEnvelope, Grid1D, SampledFunction, lower_convex_hull
from .errors import InfeasibleError, OutOfDomainError
from .problem import DPConfig, Problem


def state_grid(problem: Problem, n_x: int) -> np.ndarray:
    """Uniform grid over the state box with both endpoints placed exactly."""
    lo, hi = problem.state_box
    xs = np.linspace(lo, hi, n_x)
    for v in (problem.start, problem.end):
        xs = _place(xs, v)
    return xs


def _place(xs: np.ndarray, v: float) -> np.ndarray:
    pitch = np.min(np.diff(xs))
    tol = min(1e-9 * max(1.0, np.abs(xs).max()), 0.25 * pitch)
    i = int(np.argmin(np.abs(xs - v)))
    if abs(xs[i] - v) <= tol:
        out = xs.copy()
        out[i] = v
        return out
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


def transition_table(
    xs: np.ndarray, step: float, cap: float
) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Admissible difference quotients and the band of state pairs behind them.

    Walks the state offsets d = 0, +-1, +-2, ... until no pair at offset d
    is within the cap; on an increasing grid the quotients grow with |d|,
    so no farther pair is admissible either.  Returns the sorted merged
    quotient values and, per value, the (predecessor, target) index arrays
    of the pairs realizing it, ordered by target.  No (n, n) array is built.
    """
    limit = cap * (1.0 + 1e-12)
    n = xs.size
    pairs = []
    for direction in (1, -1):
        d = 0 if direction > 0 else -1
        while abs(d) < n:
            j = np.arange(max(0, -d), min(n, n - d))
            raw = (xs[j + d] - xs[j]) / step
            ok = np.abs(raw) <= limit
            if not ok.any():
                break
            pairs.append((j[ok], j[ok] + d, raw[ok]))
            d += direction
    j, k, raw = (np.concatenate(parts) for parts in zip(*pairs))
    values = np.unique(raw)
    if values.size < 2:
        raise InfeasibleError("velocity cap admits fewer than two difference quotients")
    reps = merge_close_velocities(values)
    nearest = np.clip(np.searchsorted(reps, raw), 0, reps.size - 1)
    left = np.clip(nearest - 1, 0, reps.size - 1)
    pick_left = np.abs(reps[left] - raw) <= np.abs(reps[nearest] - raw)
    group = np.where(pick_left, left, nearest)
    order = np.lexsort((k, group))
    bounds = np.searchsorted(group[order], np.arange(reps.size + 1))
    band = tuple(
        (j[order[lo:hi]], k[order[lo:hi]]) for lo, hi in zip(bounds[:-1], bounds[1:])
    )
    return reps, band


def velocity_grid_for(
    problem: Problem, cfg: DPConfig, extra: np.ndarray | None = None
) -> Grid1D:
    """Quotient grid of the configuration, optionally extended by the
    velocities of an externally supplied trajectory."""
    xs = state_grid(problem, cfg.n_x)
    step = problem.horizon / cfg.n_t
    values, _ = transition_table(xs, step, problem.velocity_cap)
    if extra is not None:
        extra = np.asarray(extra, dtype=float)
        beyond = np.abs(extra) > problem.velocity_cap * (1.0 + 1e-12)
        if np.any(beyond):
            raise OutOfDomainError(
                "trajectory velocity exceeds the cap; outside the envelope domain"
            )
        values = merge_close_velocities(np.unique(np.concatenate([values, extra])))
    return Grid1D(values)


def f_envelope(
    problem: Problem, grid: Grid1D, t: float
) -> tuple[SampledFunction, ConvexEnvelope]:
    samples = problem.f.sample(t, grid)
    return samples, lower_convex_hull(samples)


def exact_index(xs: np.ndarray, v: float, name: str) -> int:
    hits = np.flatnonzero(xs == v)
    if hits.size == 0:
        raise InfeasibleError(f"{name} endpoint is not on the state grid")
    return int(hits[0])
