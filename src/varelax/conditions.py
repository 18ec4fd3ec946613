"""Necessary-condition diagnostics on candidate trajectories.

Along a minimizer the linearization defect of the velocity cost plus the
state cost equals a constant plus the integral of a time-derivative
selection.  For autonomous problems that reduces to constancy of the
defect.  The check is a diagnostic and never constrains the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import Grid1D, evaluate_envelope, subdifferential
from .discretize import f_envelope, velocity_grid_for
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


def _interval_energy(problem: Problem, trajectory: Trajectory, grid: Grid1D) -> np.ndarray:
    energies = np.empty(trajectory.velocities.size)
    for i, (t, x, xi) in enumerate(
        zip(trajectory.times[:-1], trajectory.states[:-1], trajectory.velocities)
    ):
        _, env = f_envelope(problem, grid, float(t))
        p = subdifferential(env, float(xi)).midpoint
        energies[i] = (
            evaluate_envelope(env, float(xi))
            - p * float(xi)
            + float(problem.g.value(float(t), x))
        )
    return energies


def dubois_reymond_residual(
    problem: Problem, trajectory: Trajectory, cfg: DPConfig
) -> DRReport:
    """Residual of the energy identity with a finite-difference drift.

    The subgradient selection is the interval midpoint at each velocity;
    the time derivative is estimated by central differences of the
    envelope-plus-state cost (one-sided at the horizon ends).
    """
    grid = velocity_grid_for(problem, cfg, extra=trajectory.velocities)
    energies = _interval_energy(problem, trajectory, grid)
    n = trajectory.velocities.size
    horizon = problem.horizon
    delta = horizon / (4.0 * n)
    rates = np.empty(n)
    for i, (t, x, xi) in enumerate(
        zip(trajectory.times[:-1], trajectory.states[:-1], trajectory.velocities)
    ):
        t = float(t)
        lo = max(t - delta, 0.0)
        hi = min(t + delta, horizon)
        _, env_lo = f_envelope(problem, grid, lo)
        _, env_hi = f_envelope(problem, grid, hi)
        phi_lo = evaluate_envelope(env_lo, float(xi)) + float(problem.g.value(lo, x))
        phi_hi = evaluate_envelope(env_hi, float(xi)) + float(problem.g.value(hi, x))
        rates[i] = (phi_hi - phi_lo) / (hi - lo)
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

    Only defined for autonomous problems, where the drift vanishes; use
    the general residual otherwise.
    """
    if not problem.autonomous:
        raise NotAutonomousError(
            "energy constancy requires an autonomous problem; "
            "use dubois_reymond_residual instead"
        )
    grid = velocity_grid_for(problem, cfg, extra=trajectory.velocities)
    energies = _interval_energy(problem, trajectory, grid)
    return float(np.max(np.abs(energies - np.median(energies))))
