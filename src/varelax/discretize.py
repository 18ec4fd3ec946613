"""Shared grid construction for the solver, the verifier, and the
reconstruction stage.

The per-step velocity set is the set of state-grid difference quotients
clipped at the velocity cap, and envelopes are built on exactly that set.
Costs, decompositions, and necessary-condition checks therefore all see
the same discrete relaxation, and they cost a trajectory through one
routine, ``path_costs``, which builds one envelope per distinct time.
"""

from __future__ import annotations

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


def transition_table(
    xs: np.ndarray, step: float, cap: float
) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Admissible difference quotients and the band of state pairs behind them.

    Returns the sorted merged quotient values and, per value, the
    (predecessor, target) index arrays of the pairs realizing it, ordered
    by target.  No (n, n) array is built.  The nearest merged value is
    picked once per distinct quotient, not per pair, and every per-pair
    temporary is released before the band is cut, which keeps the peak
    near three times the band's size.
    """
    j, k, raw = _offset_pairs(xs, step, cap)
    values = _distinct_quotients(raw)
    reps = merge_close_velocities(values)
    nearest = np.clip(np.searchsorted(reps, values), 0, reps.size - 1)
    left = np.clip(nearest - 1, 0, reps.size - 1)
    pick_left = np.abs(reps[left] - values) <= np.abs(reps[nearest] - values)
    rep_of = np.where(pick_left, left, nearest).astype(np.min_scalar_type(reps.size))
    # every pair's quotient is one of ``values``, so the search hits it exactly
    group = rep_of[np.searchsorted(values, raw)]
    del raw
    order = np.lexsort((k, group))
    bounds = np.concatenate([[0], np.cumsum(np.bincount(group, minlength=reps.size))])
    del group
    j = j[order]
    k = k[order]
    del order
    band = tuple((j[lo:hi], k[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
    return reps, band


def velocity_grid_for(
    problem: Problem, cfg: DPConfig, extra: np.ndarray | None = None
) -> Grid1D:
    """Quotient grid of the configuration, optionally extended by the
    velocities of an externally supplied trajectory."""
    xs = state_grid(problem, cfg.n_x)
    step = problem.horizon / cfg.n_t
    raw = _offset_pairs(xs, step, problem.velocity_cap)[2]
    values = merge_close_velocities(_distinct_quotients(raw))
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


def f_envelopes(
    problem: Problem, grid: Grid1D, times: np.ndarray
) -> tuple[list[tuple[SampledFunction, ConvexEnvelope]], np.ndarray]:
    """One (samples, envelope) pair of f per distinct time, and each time's
    pair index.  An autonomous f gets a single pair for all times."""
    times = np.asarray(times, dtype=float)
    if problem.f.autonomous:
        keys, which = times[:1], np.zeros(times.size, dtype=np.intp)
    else:
        keys, which = np.unique(times, return_inverse=True)
    return [f_envelope(problem, grid, float(t)) for t in keys], which


def path_costs(
    problem: Problem,
    grid: Grid1D,
    times: np.ndarray,
    states: np.ndarray,
    velocities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-interval f**(velocity), midpoint subgradient of f** there, and g.

    Row i is the interval starting at (times[i], states[i]) with constant
    velocities[i].  Intervals that share an envelope are evaluated
    together; a lone interval takes the scalar path, which is cheaper for
    one point and gives the same bits.  g takes one scalar call per
    interval, so its bits do not depend on how a state cost vectorizes.
    """
    velocities = np.asarray(velocities, dtype=float)
    pairs, which = f_envelopes(problem, grid, times)
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
    g = np.array([float(problem.g.value(float(t), x)) for t, x in zip(times, states)])
    return values, midpoints, g


def exact_index(xs: np.ndarray, v: float, name: str) -> int:
    hits = np.flatnonzero(xs == v)
    if hits.size == 0:
        raise InfeasibleError(f"{name} endpoint is not on the state grid")
    return int(hits[0])
