"""Necessary-condition diagnostics.

For the quadratic benchmark the interval energy is constant along the
DP minimizer, and a uniform-velocity path keeps it constant for any
subgradient selection, so the residual vanishes up to roundoff.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import finite_difference_reference as fd
from varelax.catalog import state_function, time_factor, velocity_function
from varelax.conditions import dubois_reymond_residual, energy_constancy
from varelax.discretize import Discretization
from varelax.errors import InfeasibleError, NotAutonomousError
from varelax.families import IntegrandFamily
from varelax.io import parse_problem
from varelax.problem import DPConfig, Problem, Trajectory
from varelax.solve import solve_relaxed

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
AUTONOMOUS = (
    "doublewell", "doublewell_concave", "linear_minus_sqrt", "quadratic", "sqrt_one_plus"
)


def quadratic_problem(cap=2.0, g_family=None):
    return Problem(
        horizon=1.0,
        start=0.0,
        end=1.0,
        f=IntegrandFamily(base=velocity_function("power_p", {"p": 2.0})),
        g=g_family or IntegrandFamily(base=state_function("zero")),
        state_box=(0.0, 1.0),
        velocity_cap=cap,
    )


def manual_trajectory(times, states, value=0.0):
    vels = np.diff(states) / (times[1] - times[0])
    return Trajectory(
        times=times,
        states=states,
        velocities=vels,
        value=value,
        f_cost=value,
        g_cost=0.0,
    )


class TestEnergyConstancy:
    def test_identity_path_constant(self):
        prob = quadratic_problem()
        times = np.linspace(0.0, 1.0, 33)
        traj = manual_trajectory(times, times.copy(), value=1.0)
        dev = energy_constancy(prob, traj, DPConfig(n_t=32, n_x=32))
        assert dev <= 1e-12

    def test_dp_minimizer_constant(self):
        prob = quadratic_problem()
        cfg = DPConfig(n_t=64, n_x=64)
        traj = solve_relaxed(prob, cfg)
        assert energy_constancy(prob, traj, cfg) <= 1e-12

    def test_deviation_shrinks_under_refinement(self):
        prob = quadratic_problem()
        devs = []
        for n in (16, 32, 64):
            cfg = DPConfig(n_t=n, n_x=n)
            devs.append(energy_constancy(prob, solve_relaxed(prob, cfg), cfg))
        assert devs[1] <= devs[0] + 1e-12
        assert devs[2] <= devs[1] + 1e-12

    def test_constant_path_trivially_constant(self):
        prob = Problem(
            horizon=1.0,
            start=0.25,
            end=0.25,
            f=IntegrandFamily(base=velocity_function("sqrt_one_plus")),
            g=IntegrandFamily(base=state_function("zero")),
            state_box=(0.0, 1.0),
            velocity_cap=2.0,
        )
        cfg = DPConfig(n_t=16, n_x=17)
        traj = solve_relaxed(prob, cfg)
        assert energy_constancy(prob, traj, cfg) <= 1e-12

    def test_perturbed_path_deviates_more(self):
        prob = quadratic_problem(cap=4.0)
        cfg = DPConfig(n_t=16, n_x=16)
        optimal = solve_relaxed(prob, cfg)
        base_dev = energy_constancy(prob, optimal, cfg)
        xs = np.linspace(0.0, 1.0, 16)
        idx = [0, 2, 2, 2] + list(range(3, 16))  # one double move, two rests
        states = xs[idx]
        times = np.linspace(0.0, 1.0, 17)
        perturbed = manual_trajectory(times, states)
        assert energy_constancy(prob, perturbed, cfg) > base_dev

    def test_refuses_time_dependent_problems(self):
        g_fam = IntegrandFamily(
            base=state_function("zero"),
            modulation=state_function("affine", {"slope": 0.0, "offset": 1.0}),
            factor=time_factor("affine_t", {"slope": 1.0, "offset": 0.0}),
        )
        prob = quadratic_problem(g_family=g_fam)
        times = np.linspace(0.0, 1.0, 17)
        traj = manual_trajectory(times, times.copy(), value=1.0)
        with pytest.raises(NotAutonomousError):
            energy_constancy(prob, traj, DPConfig(n_t=16, n_x=17))


class TestDuboisReymondResidual:
    def test_autonomous_drift_vanishes(self):
        prob = quadratic_problem()
        cfg = DPConfig(n_t=32, n_x=32)
        traj = solve_relaxed(prob, cfg)
        report = dubois_reymond_residual(prob, traj, cfg)
        np.testing.assert_allclose(report.drift, 0.0, atol=1e-12)
        assert report.max_residual <= 1e-12

    def test_state_independent_time_cost_drifts_linearly(self):
        # g(t, x) = t adds t to the energy and to the drift simultaneously
        g_fam = IntegrandFamily(
            base=state_function("zero"),
            modulation=state_function("affine", {"slope": 0.0, "offset": 1.0}),
            factor=time_factor("affine_t", {"slope": 1.0, "offset": 0.0}),
        )
        prob = quadratic_problem(g_family=g_fam)
        cfg = DPConfig(n_t=32, n_x=33)
        times = np.linspace(0.0, 1.0, 33)
        traj = manual_trajectory(times, times.copy(), value=1.5)
        report = dubois_reymond_residual(prob, traj, cfg)
        np.testing.assert_allclose(report.drift, times[:-1], atol=1e-9)
        assert report.max_residual <= 1e-9

    def test_residual_median_zero(self):
        prob = quadratic_problem()
        cfg = DPConfig(n_t=24, n_x=25)
        traj = solve_relaxed(prob, cfg)
        report = dubois_reymond_residual(prob, traj, cfg)
        assert np.median(report.residual) == 0.0

    def test_flat_edge_energy_reduces_to_state_cost(self):
        # inside the flat envelope edge the subgradient is zero
        prob = Problem(
            horizon=1.0,
            start=0.0,
            end=0.0,
            f=IntegrandFamily(base=velocity_function("double_well")),
            g=IntegrandFamily(base=state_function("zero")),
            state_box=(-0.5, 0.5),
            velocity_cap=2.0,
        )
        cfg = DPConfig(n_t=16, n_x=17)
        times = np.linspace(0.0, 1.0, 17)
        traj = manual_trajectory(times, np.zeros(17))
        report = dubois_reymond_residual(prob, traj, cfg)
        np.testing.assert_allclose(report.energy, 0.0, atol=1e-12)
        assert report.max_residual <= 1e-12


class TestDriftAgainstCentralDifference:
    """The envelope theorem's time rates against the central differences at
    t +- delta, delta = T/(4n), that DR once used, on the shipped
    time-varying problem: the rates agree within delta^2, the energies keep
    their bits, and the maximum residual, which the midpoint subgradient
    selection dominates, moves by less than 1e-6 from its recorded value."""

    MAX_RESIDUAL = {128: 0.3572267539, 256: 0.3584005597, 384: 4.8552749842}

    @pytest.mark.parametrize("n", sorted(MAX_RESIDUAL))
    def test_rates_match_the_central_difference(self, n):
        loaded = parse_problem(PROBLEMS / "doublewell_timevarying.json")
        problem, cfg = loaded.problem, replace(loaded.config, n_t=n, n_x=n + 1)
        traj = solve_relaxed(problem, cfg)
        report = dubois_reymond_residual(problem, traj, cfg)
        energies, rates, max_residual, delta = fd.dr_rates(problem, traj, cfg)
        assert report.energy.tobytes() == energies.tobytes()
        # the drift sums the rates of every interval but the last
        closed_form = np.diff(report.drift) / traj.step
        assert np.max(np.abs(closed_form - rates[:-1])) <= delta**2
        assert max_residual == pytest.approx(self.MAX_RESIDUAL[n], abs=1e-10)
        assert report.max_residual == pytest.approx(self.MAX_RESIDUAL[n], abs=1e-6)


def median_deviation(problem, trajectory, cfg):
    """The energy-constancy formula before it became the residual's
    maximum: the interval energies' largest deviation from their median."""
    disc = Discretization.of(problem, cfg).extended(trajectory.velocities)
    xi = trajectory.velocities
    t, x = trajectory.times[:-1], trajectory.states[:-1]
    table, rows, values, g = disc.path_costs(t, x, xi)
    energies = values - table.midpoints(rows, xi) * xi + g
    return float(np.max(np.abs(energies - np.median(energies))))


@st.composite
def autonomous_paths(draw):
    """A shipped autonomous problem on a small grid, with its relaxed
    minimizer or that path moved off the state grid."""
    loaded = parse_problem(PROBLEMS / f"{draw(st.sampled_from(AUTONOMOUS))}.json")
    problem = loaded.problem
    cfg = replace(loaded.config, n_t=draw(st.integers(2, 40)), n_x=draw(st.integers(3, 41)))
    try:
        traj = solve_relaxed(problem, cfg)
    except InfeasibleError:
        assume(False)
    if draw(st.booleans()):
        lo, hi = problem.state_box
        n = cfg.n_t - 1
        shift = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
        states = traj.states.copy()
        states[1:-1] = np.clip(states[1:-1] + shift * (hi - lo) / cfg.n_x, lo, hi)
        traj = manual_trajectory(traj.times, states)
        assume(np.all(np.abs(traj.velocities) <= problem.velocity_cap))
    return problem, traj, cfg


class TestEnergyConstancyIsTheResidualMaximum:
    @settings(max_examples=120, deadline=None)
    @given(autonomous_paths())
    def test_matches_the_median_deviation_bit_for_bit(self, case):
        problem, traj, cfg = case
        assert problem.autonomous
        assert energy_constancy(problem, traj, cfg) == median_deviation(problem, traj, cfg)
