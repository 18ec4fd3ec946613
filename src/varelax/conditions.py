"""Necessary-condition diagnostics on candidate trajectories.

Along a minimizer the linearization defect of the velocity cost plus the
state cost equals a constant plus the integral of a time-derivative
selection, read from the support points of the envelope's splittings.
For autonomous problems that reduces to constancy of the defect.  The
check reads f**, the subgradient ends and the splittings from the
``Placement`` that ``Discretization.path_costs`` returns, the one that
costed the path and that ``decompose_velocities`` returns the splitting
of.  It is a diagnostic and never constrains the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import Discretization
from .errors import NotAutonomousError
from .families import _finite
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
    """Residual of the energy identity with the envelope's time derivative.

    The subgradient selection is the interval midpoint at each velocity,
    of two adjacent edge slopes that cross at most by the rounding that
    ``EnvelopeTable.of`` allows the slopes.
    The time-derivative selection is d/dt(f** + g) at each interval's time,
    ``interval_times``, by the envelope theorem: f**'s is sum_i lam_i *
    d/dt f(t, xi_i) over the splitting of the velocity on the table row that
    costs f**.  The interval times are costed in one call, so an autonomous
    f needs a single envelope, and a trajectory that carries the
    ``Discretization`` of this (problem, grid) needs none, nor a new
    location or splitting of its velocities; on an autonomous problem the
    drift is exactly zero.  An energy or a drift that is not finite, an
    overflow included, is an input error that names f and g.
    """
    disc = Discretization.of_path(problem, cfg, trajectory).extended(trajectory.velocities)
    t, x, xi = disc.interval_times(trajectory.times), trajectory.states[:-1], trajectory.velocities
    placed, g = disc.path_costs(t, x, xi)
    lo, hi = placed.subgradients
    with np.errstate(all="ignore"):
        # the linearization defect f**(xi) - p*xi + g per interval
        energies = placed.values - 0.5 * (lo + hi) * xi + g
        rates = problem.f.envelope_rate(t, placed.split) + problem.g.time_rate(t, x)
        drift = np.concatenate([[0.0], np.cumsum(rates[:-1]) * trajectory.step])
    name = "the Du Bois-Reymond energy and drift of velocity cost f and state cost g"
    _finite(np.concatenate([energies, drift]), name, "the trajectory")
    corrected = energies - drift
    constant = _median(corrected)
    residual = corrected - constant
    return DRReport(
        times=trajectory.times[:-1].copy(),
        energy=energies,
        drift=drift,
        residual=residual,
        constant=constant,
        max_residual=float(np.max(np.abs(residual))),
    )


def _median(values: np.ndarray) -> float:
    """``numpy.median`` of finite values, from a sort: the middle value, or
    the mean of the middle two, without the ``numpy.ma`` import that
    ``numpy.median`` makes."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


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
