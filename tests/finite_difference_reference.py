"""Central-difference reference for the time-derivative selection.

The library reads d/dt(f** + g) from the envelope's support points; these
functions estimate it the way the library once did, by differencing
f** + g at t - delta and t + delta, one-sided where either leaves the
horizon.  The error is O(delta^2) away from a change of the hull between
the two times, and O(delta) at a one-sided end.
"""

import numpy as np

from varelax.convex import EnvelopeTable
from varelax.discretize import Discretization


def dr_rates(problem, trajectory, cfg):
    """Du Bois-Reymond's interval energies, time rates and maximum residual
    as computed with delta = T/(4n), and delta."""
    disc = Discretization.of(problem, cfg).extended(trajectory.velocities)
    n = trajectory.velocities.size
    horizon = problem.horizon
    delta = horizon / (4.0 * n)
    t = trajectory.times[:-1]
    lo = np.maximum(t - delta, 0.0)
    hi = np.minimum(t + delta, horizon)
    xi = trajectory.velocities
    placed, g = disc.path_costs(
        np.concatenate([t, lo, hi]), np.tile(trajectory.states[:-1], 3), np.tile(xi, 3)
    )
    values, (low, high) = placed.values, placed.subgradients
    energies = values[:n] - 0.5 * (low[:n] + high[:n]) * xi + g[:n]
    phi_lo = values[n : 2 * n] + g[n : 2 * n]
    phi_hi = values[2 * n :] + g[2 * n :]
    rates = (phi_hi - phi_lo) / (hi - lo)
    drift = np.concatenate([[0.0], np.cumsum(rates[:-1]) * trajectory.step])
    corrected = energies - drift
    max_residual = float(np.max(np.abs(corrected - np.median(corrected))))
    return energies, rates, max_residual, delta


def probe_rates(problem, probe):
    """d/dt(g + f**) on the (time, state, velocity) probe grid, with delta a
    quarter of the probe time step."""
    ts, xs, xis = probe.times, probe.states, probe.velocities
    delta = float(ts[-1] - ts[0]) / (4.0 * (ts.size - 1))

    def phi(t):
        table = EnvelopeTable.of(xis, problem.f.table(np.array([t]), xis)[0])
        fstar = table.place(0, xis).values
        return problem.g.value(t, xs)[:, None] + fstar[None, :]

    rates = []
    for t in ts:
        t_lo, t_hi = max(t - delta, float(ts[0])), min(t + delta, float(ts[-1]))
        rates.append((phi(t_hi) - phi(t_lo)) / (t_hi - t_lo))
    return np.stack(rates)
