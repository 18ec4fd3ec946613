"""Turn a relaxed minimizer into a trajectory of the original problem.

Each interval's velocity is split across the hull-edge support points
that realize the relaxed cost: one ``CaratheodoryDecomposition`` batch,
a row per interval, from one envelope table of the trajectory's times,
checked once as a whole.  The two resulting sub-intervals are then
ordered to favor the cheaper state cost.  Contiguous sub-intervals are a
valid bang-bang realization as the step vanishes, and the ordering is the
only degree of freedom that affects cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convex import CaratheodoryDecomposition
from .discretize import Discretization
from .problem import DPConfig, Problem, Trajectory

ORDER_TIE_TOL = 1e-12
# The probe grid of g's state Lipschitz constant in ``compare_costs``:
# times over the horizon by states over the box.
LIPSCHITZ_TIMES, LIPSCHITZ_STATES = 9, 129


def decompose_velocities(
    problem: Problem, trajectory: Trajectory, cfg: DPConfig
) -> CaratheodoryDecomposition:
    """Split every interval velocity over its hull-edge support points, one
    row per interval.

    The support points stay inside one velocity ball whose radius is
    reported; it is a property of the problem, not of the grid.
    """
    disc = Discretization.of(problem, cfg).extended(trajectory.velocities)
    table, rows = disc.envelope_table(trajectory.times[:-1])
    return table.split(rows, trajectory.velocities)


@dataclass(eq=False)
class ReconstructedTrajectory:
    """Bang-bang realization on a refined grid; velocities take support values."""

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray
    piece: np.ndarray  # support-point label per sub-interval
    f_cost: float
    g_cost: float

    @property
    def total(self) -> float:
        return self.f_cost + self.g_cost

    @property
    def step_bound(self) -> float:
        return float(np.max(np.abs(self.velocities)))


def rearrange(
    problem: Problem, trajectory: Trajectory, track: CaratheodoryDecomposition
) -> ReconstructedTrajectory:
    """Realize each splitting by two contiguous sub-intervals.

    Sub-interval lengths are the decomposition weights times the step, so
    interval-endpoint states are unchanged.  The two orderings are scored
    by midpoint quadrature of the state cost and the cheaper one wins;
    ties keep the decomposition's first support point first.
    """
    step = trajectory.step
    times = [float(trajectory.times[0])]
    states = [float(trajectory.states[0])]
    velocities: list[float] = []
    labels: list[int] = []
    f_cost = 0.0
    g_cost = 0.0
    splits = (track.weights, track.points, track.point_values, track.support)
    for i, (weights, points, values, support) in enumerate(zip(*(a.tolist() for a in splits))):
        t0 = float(trajectory.times[i])
        x0 = float(trajectory.states[i])
        x1 = float(trajectory.states[i + 1])
        # a splitting of support 1 has weight exactly 1.0: one sub-interval of length step
        order = (0,) if support == 1 else _pick_order(problem, weights, points, t0, x0, step)
        durations = [step * weights[j] for j in order]
        t_cursor, x_cursor = t0, x0
        for pos, j in enumerate(order):
            q = points[j]
            dt = durations[pos]
            f_cost += dt * values[j]
            g_cost += dt * float(problem.g.value(t_cursor, x_cursor))
            t_cursor += dt
            x_cursor += q * dt
            last = pos == len(order) - 1
            times.append(float(trajectory.times[i + 1]) if last else t_cursor)
            states.append(x1 if last else x_cursor)
            velocities.append(q)
            labels.append(int(j))
    return ReconstructedTrajectory(
        times=np.array(times),
        states=np.array(states),
        velocities=np.array(velocities),
        piece=np.array(labels, dtype=np.int64),
        f_cost=f_cost,
        g_cost=g_cost,
    )


def _pick_order(
    problem: Problem, weights: list[float], points: list[float], t0: float, x0: float, step: float
) -> tuple[int, int]:
    def midpoint_cost(order: tuple[int, int]) -> float:
        cost = 0.0
        t_cursor, x_cursor = t0, x0
        for j in order:
            dt = step * weights[j]
            q = points[j]
            cost += dt * float(problem.g.value(t_cursor + dt / 2.0, x_cursor + q * dt / 2.0))
            t_cursor += dt
            x_cursor += q * dt
        return cost

    forward = midpoint_cost((0, 1))
    swapped = midpoint_cost((1, 0))
    if swapped < forward - ORDER_TIE_TOL:
        return (1, 0)
    return (0, 1)


@dataclass(eq=False)
class CostComparison:
    """Relaxed versus reconstructed costs with the acceptance verdict."""

    f_relaxed: float
    g_relaxed: float
    total_relaxed: float
    f_reconstructed: float
    g_reconstructed: float
    total_reconstructed: float
    f_gap: float
    g_gap: float
    total_gap: float
    f_tolerance: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(
            abs(self.f_gap) <= self.f_tolerance
            and self.total_reconstructed
            <= self.total_relaxed + self.tolerance + self.f_tolerance
        )


def compare_costs(
    problem: Problem,
    relaxed: Trajectory,
    reconstructed: ReconstructedTrajectory,
) -> CostComparison:
    """PASS when the reconstruction reproduces the relaxed velocity cost
    and does not exceed the relaxed total beyond the step-sized slack
    state_lipschitz * max-speed * step * horizon, with g's state Lipschitz
    constant measured on a probe grid."""
    state_lipschitz = _state_lipschitz(problem)
    step = relaxed.step
    n = relaxed.velocities.size
    f_tol = n * 1e-9 * (1.0 + abs(relaxed.f_cost))
    tol = state_lipschitz * reconstructed.step_bound * step * problem.horizon
    f_gap = reconstructed.f_cost - relaxed.f_cost
    g_gap = reconstructed.g_cost - relaxed.g_cost
    total_gap = reconstructed.total - relaxed.value
    return CostComparison(
        f_relaxed=relaxed.f_cost,
        g_relaxed=relaxed.g_cost,
        total_relaxed=relaxed.value,
        f_reconstructed=reconstructed.f_cost,
        g_reconstructed=reconstructed.g_cost,
        total_reconstructed=reconstructed.total,
        f_gap=float(f_gap),
        g_gap=float(g_gap),
        total_gap=float(total_gap),
        f_tolerance=float(f_tol),
        tolerance=float(tol),
    )


def _state_lipschitz(problem: Problem) -> float:
    lo, hi = problem.state_box
    xs = np.linspace(lo, hi, LIPSCHITZ_STATES)
    worst = 0.0
    for t in np.linspace(0.0, problem.horizon, LIPSCHITZ_TIMES):
        vals = problem.g.value(float(t), xs)
        worst = max(worst, float(np.max(np.abs(np.diff(vals) / np.diff(xs)))))
    return worst
