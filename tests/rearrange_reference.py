"""The reconstruction's interval loop, kept as the oracle of
``reconstruct.rearrange``: one interval at a time, each support-2
splitting's orders that turn inside the state box scored by scalar
midpoint calls of g, and the costs summed in a running float from 0.0.
It raises ``InfeasibleError`` where both orders leave the box.  It reads
``reconstruct.ORDER_TIE_TOL`` at call time, so a test that patches the
tolerance moves both."""

import numpy as np

from varelax import reconstruct
from varelax.errors import InfeasibleError
from varelax.reconstruct import ReconstructedTrajectory


def rearrange_reference(problem, trajectory, track):
    step = trajectory.step
    times = [float(trajectory.times[0])]
    states = [float(trajectory.states[0])]
    velocities = []
    labels = []
    f_cost = 0.0
    g_cost = 0.0
    splits = (track.weights, track.points, track.point_values, track.support)
    for i, (weights, points, values, support) in enumerate(zip(*(a.tolist() for a in splits))):
        t0 = float(trajectory.times[i])
        x0 = float(trajectory.states[i])
        x1 = float(trajectory.states[i + 1])
        # a splitting of support 1 has weight exactly 1.0: one sub-interval of length step
        order = (0,) if support == 1 else pick_order(problem, weights, points, t0, x0, step)
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


def order_costs(problem, weights, points, t0, x0, step):
    """Midpoint costs of the orders (0, 1) and (1, 0) of one splitting, inf
    for an order whose turning point leaves the state box."""
    lo, hi = problem.state_box

    def midpoint_cost(order):
        first = order[0]
        if not lo <= x0 + points[first] * (step * weights[first]) <= hi:
            return np.inf
        cost = 0.0
        t_cursor, x_cursor = t0, x0
        for j in order:
            dt = step * weights[j]
            q = points[j]
            cost += dt * float(problem.g.value(t_cursor + dt / 2.0, x_cursor + q * dt / 2.0))
            t_cursor += dt
            x_cursor += q * dt
        return cost

    return midpoint_cost((0, 1)), midpoint_cost((1, 0))


def pick_order(problem, weights, points, t0, x0, step):
    forward, swapped = order_costs(problem, weights, points, t0, x0, step)
    if forward == swapped == np.inf:
        raise InfeasibleError("both orders leave the state box")
    if swapped < forward - reconstruct.ORDER_TIE_TOL:
        return (1, 0)
    return (0, 1)
