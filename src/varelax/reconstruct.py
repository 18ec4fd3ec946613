"""Turn a relaxed minimizer into a trajectory of the original problem.

Each interval's velocity is split across the hull-edge support points
that realize the relaxed cost: one ``CaratheodoryDecomposition`` batch,
a row per interval, from the path's placement on one envelope table of
the trajectory's times, checked once as a whole.  The two resulting
sub-intervals are then ordered to favor the cheaper state cost.
Contiguous sub-intervals are a valid bang-bang realization as the step
vanishes, and the ordering is the only degree of freedom that affects
cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convex import CaratheodoryDecomposition
from .discretize import Discretization
from .errors import InfeasibleError
from .problem import DPConfig, Problem, Trajectory, running_sum

ORDER_TIE_TOL = 1e-12
# The two orders of a splitting's support points: as given, and swapped.
ORDERS = np.array([[0, 1], [1, 0]])
# The probe grid of g's state Lipschitz constant in ``compare_costs``:
# times over the horizon by states over the box.
LIPSCHITZ_TIMES, LIPSCHITZ_STATES = 9, 129


def decompose_velocities(
    problem: Problem, trajectory: Trajectory, cfg: DPConfig
) -> CaratheodoryDecomposition:
    """Split every interval velocity over its hull-edge support points, one
    row per interval.

    The support points stay inside one velocity ball whose radius is
    reported; it is a property of the problem, not of the grid.  It is
    the splitting of the path's ``Discretization.placement``, which the
    ``Discretization`` the trajectory carries keeps when that was built
    for this (problem, grid): the one the Du Bois-Reymond check read,
    checked once, with read-only arrays.
    """
    disc = Discretization.of_path(problem, cfg, trajectory).extended(trajectory.velocities)
    return disc.placement(disc.interval_times(trajectory.times), trajectory.velocities).split


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
    interval-endpoint states are unchanged.  An order is admissible when
    its turning point lies in the state box; the admissible orders are
    scored by midpoint quadrature of the state cost and the cheaper one
    wins, ties keeping the decomposition's first support point first.
    ``InfeasibleError`` when both orders leave, which needs support points
    beyond the box width over the step: never on a grid path's own
    velocity grid, whose quotients times the step are at most the width.
    Every interval is scored and laid out at once, and the costs are
    summed by the path-cost rule over the sub-intervals in time order.
    """
    t0, x0 = trajectory.times[:-1], trajectory.states[:-1]
    durations, points = trajectory.step * track.weights, track.points
    split = track.support == 2
    # both orders in one batch: [sub-interval s, order o] is column ORDERS[s, o]
    forward, swapped = _midpoint_cost(problem, t0, x0, durations.T[ORDERS], points.T[ORDERS])
    stuck = np.flatnonzero(split & (forward == np.inf) & (swapped == np.inf))
    if stuck.size:
        raise InfeasibleError(
            f"both orders of interval {int(stuck[0])}'s splitting leave the state box "
            f"{list(problem.state_box)}; a smaller step keeps one inside"
        )
    swap = split & (swapped < forward - ORDER_TIE_TOL)
    # sub-interval slots: 2i for interval i, and 2i + 1 when it is split,
    # since a splitting of support 1 has weight exactly 1.0; slot 2i + k
    # reads column k ^ swap[i] of the splitting, its piece label
    kept = split.repeat(2)
    kept[::2] = True
    slot = np.flatnonzero(kept)
    i = slot >> 1
    column = slot ^ swap.take(i)
    durations, points, values = (
        a.ravel().take(column) for a in (durations, points, track.point_values)
    )
    turn = slot & 1 < split.take(i)  # the first of two ends at the turning point
    t1, x1 = trajectory.times[1:].take(i), trajectory.states[1:].take(i)
    ends_t = np.where(turn, t0.take(i) + durations, t1)
    ends_x = np.where(turn, x0.take(i) + points * durations, x1)
    times = np.concatenate([trajectory.times[:1], ends_t])
    states = np.concatenate([trajectory.states[:1], ends_x])
    f_terms = durations * values
    g_terms = durations * problem.g.value(Discretization.interval_times(times), states[:-1])
    return ReconstructedTrajectory(
        times=times,
        states=states,
        velocities=points,
        piece=column & 1,
        f_cost=running_sum(f_terms),
        g_cost=running_sum(g_terms),
    )


def _midpoint_cost(problem, t0, x0, durations, points) -> np.ndarray:
    """Midpoint quadrature of g over each interval's two sub-intervals, in
    the order of the leading axis, or inf where the turning point leaves
    the state box: g is then read at x0, so it is never evaluated outside
    the box.  Later axes batch intervals, or orders of them."""
    lo, hi = problem.state_box
    turns = x0 + points[0] * durations[0]
    inside = (turns >= lo) & (turns <= hi)
    points = np.where(inside, points, 0.0)
    cost = 0.0
    t_cursor, x_cursor = t0, x0
    for dt, q in zip(durations, points):
        cost = cost + dt * problem.g.value(t_cursor + dt / 2.0, x_cursor + q * dt / 2.0)
        t_cursor = t_cursor + dt
        x_cursor = x_cursor + q * dt
    return np.where(inside, cost, np.inf)


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
    values, _ = problem.g.table(np.linspace(0.0, problem.horizon, LIPSCHITZ_TIMES), xs)
    return float(np.max(np.abs(np.diff(values, axis=1) / np.diff(xs))))
