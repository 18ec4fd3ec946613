"""Necessary-condition diagnostics on candidate trajectories.

Along a minimizer the linearization defect of the velocity cost plus the
state cost equals a constant plus the integral of a time-derivative
selection.  For autonomous problems that reduces to constancy of the
defect.  The check is a diagnostic and never constrains the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import Discretization
from .errors import NotAutonomousError
from .problem import DPConfig, Problem, Trajectory


@dataclass(eq=False)
class DRReport:
    """Per-interval energy, its estimated drift, and the centered residual.

    The constant is the median of the drift-corrected energy, which is
    robust to a few kink-node outliers; the residual sequence has median
    zero by construction.
    """

    times: np.ndarray
    energy: np.ndarray
    drift: np.ndarray
    residual: np.ndarray
    constant: float
    max_residual: float


def dubois_reymond_residual(
    problem: Problem, trajectory: Trajectory, cfg: DPConfig
) -> DRReport:
    """Residual of the energy identity with a finite-difference drift.

    The subgradient selection is the interval midpoint at each velocity;
    the time derivative is estimated by central differences of the
    envelope-plus-state cost (one-sided at the horizon ends).  The
    interval times and both difference times are costed in one call, so
    an autonomous f needs a single envelope.
    """
    disc = Discretization.of(problem, cfg).extended(trajectory.velocities)
    n = trajectory.velocities.size
    horizon = problem.horizon
    delta = horizon / (4.0 * n)
    t = trajectory.times[:-1]
    lo = np.maximum(t - delta, 0.0)
    hi = np.minimum(t + delta, horizon)
    xi = trajectory.velocities
    values, midpoints, g = disc.path_costs(
        np.concatenate([t, lo, hi]), np.tile(trajectory.states[:-1], 3), np.tile(xi, 3)
    )
    # the linearization defect f**(xi) - p*xi + g per interval
    energies = values[:n] - midpoints[:n] * xi + g[:n]
    phi_lo = values[n : 2 * n] + g[n : 2 * n]
    phi_hi = values[2 * n :] + g[2 * n :]
    rates = (phi_hi - phi_lo) / (hi - lo)
    step = trajectory.step
    drift = np.concatenate([[0.0], np.cumsum(rates[:-1]) * step])
    corrected = energies - drift
    constant = float(np.median(corrected))
    residual = corrected - constant
    return DRReport(
        times=trajectory.times[:-1].copy(),
        energy=energies,
        drift=drift,
        residual=residual,
        constant=constant,
        max_residual=float(np.max(np.abs(residual))),
    )


def energy_constancy(problem: Problem, trajectory: Trajectory, cfg: DPConfig) -> float:
    """Maximum deviation of the interval energy from its median.

    Only defined for autonomous problems, where the drift is exactly zero,
    so this is the residual's maximum; use the general residual otherwise.
    """
    if not problem.autonomous:
        raise NotAutonomousError(
            "energy constancy requires an autonomous problem; "
            "use dubois_reymond_residual instead"
        )
    return dubois_reymond_residual(problem, trajectory, cfg).max_residual
