"""Problem and solver-configuration containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import NagumoFunction
from .errors import InfeasibleError, SchemaError
from .families import IntegrandFamily


@dataclass(frozen=True, eq=False)
class Problem:
    """Fixed-endpoint problem data: minimize sum of g(t, x) + f(t, x') over [0, T]."""

    horizon: float
    start: float
    end: float
    f: IntegrandFamily
    g: IntegrandFamily
    state_box: tuple[float, float]
    velocity_cap: float

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise SchemaError("horizon must be positive and finite")
        lo, hi = self.state_box
        # a finite width implies finite ends; float() keeps numpy from warning
        if not (lo < hi and np.isfinite(float(hi) - float(lo))):
            raise SchemaError("state box must be a nonempty finite interval")
        for name, v in (("start", self.start), ("end", self.end)):
            if not np.isfinite(v) or not (lo <= v <= hi):
                raise SchemaError(f"{name} endpoint must lie inside the state box")
        if not (np.isfinite(self.velocity_cap) and self.velocity_cap > 0):
            raise SchemaError("velocity cap must be positive")
        mean_speed = abs(self.end - self.start) / self.horizon
        if mean_speed > self.velocity_cap * (1.0 + 1e-12):
            raise InfeasibleError(
                "endpoints are unreachable: |b - a|/T exceeds the velocity cap"
            )

    @property
    def autonomous(self) -> bool:
        return self.f.autonomous and self.g.autonomous


@dataclass(frozen=True, eq=False)
class DPConfig:
    """Grid sizes and optional speed-penalty settings for the DP solver."""

    n_t: int = 128
    n_x: int = 129
    theta: NagumoFunction | None = None
    penalty: float = 0.0
    theta_budget: float | None = None
    budget_levels: int = 64

    def __post_init__(self):
        if self.n_t < 2:
            raise SchemaError("need at least 2 time intervals")
        if self.n_x < 3:
            raise SchemaError("need at least 3 state grid points")
        if self.penalty < 0.0 or not np.isfinite(self.penalty):
            raise SchemaError("penalty weight must be nonnegative and finite")
        if self.theta_budget is not None:
            if not (np.isfinite(self.theta_budget) and self.theta_budget > 0):
                raise SchemaError("speed budget must be positive")
        if (self.penalty > 0.0 or self.theta_budget is not None) and self.theta is None:
            raise SchemaError("penalty or budget settings require a Nagumo entry")
        if self.budget_levels < 2:
            raise SchemaError("need at least 2 budget levels")


def running_sum(terms):
    """The sums of ``terms`` along the last axis, each from 0.0, left to
    right, as a loop adds them: the one rule by which every path's cost is
    summed.  One path's terms give a float."""
    terms = np.asarray(terms, dtype=float)
    zeros = np.zeros(terms.shape[:-1] + (1,))
    sums = np.cumsum(np.concatenate([zeros, terms], axis=-1), axis=-1)[..., -1]
    return float(sums) if terms.ndim == 1 else sums


def path_sums(times, f_values, g_values, theta=None, velocities=None):
    """(f cost, g cost, theta value) of paths on the uniform grid ``times``,
    one path along the last axis of the interval values: the one rule for
    a path's cost.  h*f and h*g are summed by ``running_sum``, with
    h = times[1] - times[0]; the theta value, when a ``theta`` is given,
    is h*sum(theta(velocities)), a pairwise numpy sum."""
    h = float(times[1] - times[0])
    f_cost, g_cost = (running_sum(np.multiply(h, v)) for v in (f_values, g_values))
    theta_value = None if theta is None else h * np.sum(theta(velocities), axis=-1)
    return f_cost, g_cost, theta_value


def check_paths(times, states, velocities, values) -> None:
    """Raise ``SchemaError`` unless each path is a trajectory: states and
    velocities along the last axis, on one strictly increasing uniform
    time grid, finite, with velocities that match the state increments,
    and a finite value."""
    if times.ndim != 1 or times.size < 2:
        raise SchemaError("trajectory needs at least two time nodes")
    paths = np.shape(values)  # one value per path
    if states.shape != paths + times.shape or velocities.shape != paths + (times.size - 1,):
        raise SchemaError("trajectory arrays have inconsistent lengths")
    steps = np.diff(times)
    if not np.all(steps > 0):
        raise SchemaError("trajectory times must be strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise SchemaError("trajectory time grid must be uniform")
    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(velocities))):
        raise SchemaError("trajectory data must be finite")
    implied = np.diff(states, axis=-1) / steps[0]
    scale = 1.0 + np.max(np.abs(velocities), axis=-1)
    if np.any(np.max(np.abs(implied - velocities), axis=-1) > 1e-9 * scale):
        raise SchemaError("velocities are inconsistent with the state increments")
    if not np.all(np.isfinite(values)):
        raise SchemaError("trajectory value must be finite")


@dataclass(eq=False)
class Trajectory:
    """Piecewise-linear path on a uniform time grid with per-interval velocities."""

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray
    value: float
    f_cost: float
    g_cost: float
    theta_value: float | None = None
    warnings: tuple[str, ...] = ()
    # The costing that gave f_cost, when a table did: (the Discretization
    # of its problem and grid, interval times, f's EnvelopeTable, each
    # interval's row).  ``costed`` sets it; it is not a field, so reports,
    # repr and equality never see it, and only ``Discretization`` reads it.
    costing = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        check_paths(self.times, self.states, self.velocities, self.value)

    @classmethod
    def costed(
        cls, times, states, velocities, f_values, g_values, theta=None, warnings=(), costing=None
    ):
        """The path with interval costs ``f_values`` and ``g_values``, costed
        by ``path_sums``.  The path carries ``costing``, the table that gave
        ``f_values``."""
        f_cost, g_cost, theta_value = path_sums(times, f_values, g_values, theta, velocities)
        if theta_value is not None:
            theta_value = float(theta_value)
        path = cls(
            times, states, velocities, f_cost + g_cost, f_cost, g_cost, theta_value, warnings
        )
        path.costing = costing
        return path

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    def velocity_l1(self) -> float:
        return float(self.step * np.sum(np.abs(self.velocities)))

    def state_l1(self) -> float:
        return float(self.step * np.sum(np.abs(self.states[:-1])))


@dataclass(eq=False)
class SweepReport:
    """Constrained values along an increasing speed-budget schedule."""

    budgets: np.ndarray
    values: list[float | None]
    settle_index: int | None

    @property
    def settled(self) -> bool:
        return self.settle_index is not None
