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


def running_sum(terms) -> float:
    """The sum of ``terms`` from 0.0, left to right, as a loop adds them: the
    one rule by which every path's cost is summed."""
    return float(np.cumsum(np.concatenate([[0.0], terms]))[-1])


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
    # The costing that gave f_cost, when a table did: (f, interval times,
    # f's EnvelopeTable, each interval's row).  ``costed`` sets it; it is
    # not a field, so reports, repr and equality never see it, and only
    # ``Discretization.envelope_table`` reads it.
    costing = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        vels = np.asarray(self.velocities, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise SchemaError("trajectory needs at least two time nodes")
        if states.shape != times.shape or vels.shape != (times.size - 1,):
            raise SchemaError("trajectory arrays have inconsistent lengths")
        steps = np.diff(times)
        if not np.all(steps > 0):
            raise SchemaError("trajectory times must be strictly increasing")
        if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise SchemaError("trajectory time grid must be uniform")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(vels))):
            raise SchemaError("trajectory data must be finite")
        implied = np.diff(states) / steps[0]
        scale = 1.0 + float(np.max(np.abs(vels))) if vels.size else 1.0
        if np.max(np.abs(implied - vels)) > 1e-9 * scale:
            raise SchemaError("velocities are inconsistent with the state increments")
        if not np.isfinite(self.value):
            raise SchemaError("trajectory value must be finite")
        self.times = times
        self.states = states
        self.velocities = vels

    @classmethod
    def costed(
        cls, times, states, velocities, f_values, g_values, theta=None, warnings=(), costing=None
    ):
        """The path with interval costs ``f_values`` and ``g_values``, by the
        one rule for a path's cost: h*f and h*g summed left to right, with
        h = times[1] - times[0], and ``theta_value`` h*sum(theta(velocities))
        when a ``theta`` is given.  The path carries ``costing``, the
        table that gave ``f_values``."""
        h = float(times[1] - times[0])
        f_cost, g_cost = (running_sum(np.multiply(h, v)) for v in (f_values, g_values))
        theta_value = None if theta is None else float(h * np.sum(theta(velocities)))
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
