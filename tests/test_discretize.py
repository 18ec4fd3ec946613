"""Shared costing of trajectories and the transition table's memory.

Envelopes of f are built once per distinct time, and once in total for an
autonomous f; ``Discretization.path_costs`` must give the bits of the per-interval scalar
evaluation it replaces, and the hull counts below pin the sharing.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import varelax.discretize as discretize
from varelax.classify import hypothesis_check
from varelax.conditions import dubois_reymond_residual
from varelax.convex import evaluate_envelope, subdifferential
from varelax.catalog import state_function, velocity_function
from varelax.discretize import (
    Discretization,
    f_envelope,
    merge_close_velocities,
    state_grid,
)
from varelax.errors import DegenerateInputError, InfeasibleError
from varelax.families import IntegrandFamily
from varelax.io import emit_trajectory, parse_problem, read_trajectory
from varelax.problem import DPConfig, Problem
from varelax.reconstruct import decompose_velocities
from varelax.solve import coercivity_bound_check, solve_relaxed

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def load(name):
    loaded = parse_problem(PROBLEMS / f"{name}.json")
    return loaded.problem, loaded.config


@pytest.fixture
def hulls(monkeypatch):
    """List that grows by one entry per envelope built through discretize."""
    calls = []
    build = discretize.lower_convex_hull

    def counting(samples):
        calls.append(samples)
        return build(samples)

    monkeypatch.setattr(discretize, "lower_convex_hull", counting)
    return calls


class TestHullCounts:
    def test_autonomous_verify_and_decompose_build_one_envelope(self, hulls):
        # quadratic.json at its shipped 256 intervals: 768 and 256 envelopes
        # were built per interval before the sharing
        problem, cfg = load("quadratic")
        traj = solve_relaxed(problem, cfg)
        hulls.clear()
        dubois_reymond_residual(problem, traj, cfg)
        assert len(hulls) == 1
        hulls.clear()
        decompose_velocities(problem, traj, cfg)
        assert len(hulls) == 1

    def test_read_trajectory_builds_one_envelope_for_autonomous_f(self, hulls, tmp_path):
        problem, cfg = load("doublewell")
        emit_trajectory(solve_relaxed(problem, cfg), tmp_path / "traj.csv")
        hulls.clear()
        read_trajectory(tmp_path / "traj.csv", problem, cfg)
        assert len(hulls) == 1

    def test_time_varying_dr_builds_one_envelope_per_distinct_time(self, hulls):
        problem, cfg = load("doublewell_timevarying")
        assert not problem.f.autonomous
        traj = solve_relaxed(problem, cfg)
        hulls.clear()
        dubois_reymond_residual(problem, traj, cfg)
        # the interval times and t -+ delta; t = 0 and its clipped lower
        # difference time share one envelope
        assert len(hulls) == 3 * cfg.n_t - 1

    def test_coercivity_builds_no_transition_band(self, hulls, monkeypatch):
        problem, cfg = load("quadratic")
        traj = solve_relaxed(problem, cfg)
        hypotheses = hypothesis_check(problem)

        def forbidden(*args):
            raise AssertionError("coercivity rebuilt the transition band")

        monkeypatch.setattr(discretize, "transition_table", forbidden)
        hulls.clear()
        report = coercivity_bound_check(problem, traj, hypotheses, cfg)
        assert len(hulls) == 1
        assert report.reference_ok


def scalar_costs(disc, times, states, velocities):
    """The per-interval loop ``path_costs`` replaces."""
    values, midpoints, g = [], [], []
    for t, x, xi in zip(times, states, velocities):
        _, env = f_envelope(disc.problem, disc.grid, float(t))
        values.append(evaluate_envelope(env, float(xi)))
        midpoints.append(subdifferential(env, float(xi)).midpoint)
        g.append(float(disc.problem.g.value(float(t), x)))
    return values, midpoints, g


@st.composite
def costing_cases(draw):
    name = draw(
        st.sampled_from(
            ["doublewell", "doublewell_timevarying", "linear_minus_sqrt", "quadratic"]
        )
    )
    problem, cfg = load(name)
    n_x = draw(st.integers(5, 33))
    cfg = replace(cfg, n_t=draw(st.integers(2, n_x - 1)), n_x=n_x)
    disc = Discretization.of(problem, cfg)
    grid = disc.grid
    n = draw(st.integers(1, 24))
    # few distinct times, so that some envelopes serve several intervals
    pool = draw(st.lists(st.floats(0.0, problem.horizon), min_size=1, max_size=4))
    times = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    lo, hi = problem.state_box
    states = np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
    at_nodes = st.sampled_from(list(grid.points))
    between = st.floats(float(grid.points[0]), float(grid.points[-1]))
    velocities = np.array(
        draw(st.lists(st.one_of(at_nodes, between), min_size=n, max_size=n))
    )
    return disc, times, states, velocities


class TestPathCosts:
    @settings(max_examples=80, deadline=None)
    @given(costing_cases())
    def test_matches_scalar_loop_bit_for_bit(self, case):
        disc, times, states, velocities = case
        got = disc.path_costs(times, states, velocities)
        want = scalar_costs(disc, times, states, velocities)
        for a, b in zip(got, want):
            assert a.tobytes() == np.array(b, dtype=float).tobytes()

    def test_envelopes_once_per_distinct_time(self, hulls):
        problem, cfg = load("doublewell_timevarying")
        disc = Discretization.of(problem, cfg)
        times = np.array([0.5, 0.0, 0.5, 0.25, 0.0])
        disc.path_costs(times, np.zeros(5), np.zeros(5))
        assert len(hulls) == 3


class TestTransitionTableMemory:
    def test_peak_stays_near_the_band(self):
        # the double well's 2049-node grid at n_t = 64 has 129 quotients; the
        # band as index arrays held 4.2 MB, and keeping every per-offset piece
        # and per-pair temporary of it peaked at 25 MB.  The walk, the grid
        # and the band are traced together: the band is cut from the walk.
        problem, _ = load("doublewell")
        tracemalloc.start()
        try:
            Discretization.of(problem, DPConfig(n_t=64, n_x=2049)).band
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15e6


@st.composite
def discretization_cases(draw):
    """A random box, horizon, cap and grid; the endpoints are drawn freely,
    so they usually fall off the uniform grid and are inserted."""
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.05, 3.0))
    start, end = (draw(st.floats(lo, hi)) for _ in range(2))
    horizon = draw(st.floats(0.25, 2.0))
    cap = draw(st.floats(0.05, 8.0))
    assume(abs(end - start) / horizon <= cap)
    name, params = draw(st.sampled_from([("power_p", {"p": 2.0}), ("double_well", None)]))
    problem = Problem(
        horizon=horizon,
        start=start,
        end=end,
        f=IntegrandFamily(base=velocity_function(name, params)),
        g=IntegrandFamily(base=state_function("zero")),
        state_box=(lo, hi),
        velocity_cap=cap,
    )
    return problem, DPConfig(n_t=draw(st.integers(2, 48)), n_x=draw(st.integers(3, 48)))


def brute_force_grid(problem, cfg):
    """Merged quotients of every state pair within the cap, from the full
    difference matrix rather than the offset walk."""
    xs = state_grid(problem, cfg.n_x)
    diffs = (xs[None, :] - xs[:, None]) / (problem.horizon / cfg.n_t)
    within = np.abs(diffs) <= problem.velocity_cap * (1.0 + 1e-12)
    return merge_close_velocities(np.unique(diffs[within]))


def brute_force_band(problem, cfg, points):
    """Per grid point, the (predecessor, target) arrays of the admissible
    pairs nearest it (the lower one on a tie), ordered by target, from the
    full difference matrix."""
    xs = state_grid(problem, cfg.n_x)
    diffs = (xs[None, :] - xs[:, None]) / (problem.horizon / cfg.n_t)  # [j, k]: j to k
    within = np.abs(diffs) <= problem.velocity_cap * (1.0 + 1e-12)
    pred, target = np.nonzero(within)
    nearest = np.argmin(np.abs(points[None, :] - diffs[within][:, None]), axis=1)
    want = []
    for q in range(points.size):
        j, k = pred[nearest == q], target[nearest == q]
        by_target = np.argsort(k)
        want.append((j[by_target], k[by_target]))
    return want


def run_pairs(entry):
    """The (predecessor, target) arrays of a band entry's runs, concatenated."""
    j = np.concatenate([np.arange(js.start, js.stop) for js, _ in entry])
    k = np.concatenate([np.arange(ks.start, ks.stop) for _, ks in entry])
    return j, k


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDiscretizationOwnsTheGrid:
    """``_dp`` indexes band entries by grid position, and verification costs
    trajectories on the grid extended by their velocities; both must see
    the quotients the offset walk and the band were built from."""

    @settings(max_examples=150, deadline=None)
    @given(discretization_cases())
    def test_grid_is_the_band_quotients(self, case):
        problem, cfg = case
        xs = state_grid(problem, cfg.n_x)
        step = problem.horizon / cfg.n_t
        diffs = (xs[None, :] - xs[:, None]) / step  # [j, k]: from node j to node k
        within = np.abs(diffs) <= problem.velocity_cap * (1.0 + 1e-12)
        if np.unique(diffs[within]).size < 2:
            with pytest.raises(InfeasibleError):
                Discretization.of(problem, cfg)
            return
        points = brute_force_grid(problem, cfg)
        if points.size < 2:
            with pytest.raises(DegenerateInputError):
                Discretization.of(problem, cfg)
            return
        disc = Discretization.of(problem, cfg)
        assert same_bits(disc.grid.points, points)
        assert same_bits(disc.xs, xs)
        assert disc.step == step
        assert same_bits(disc.times, np.linspace(0.0, problem.horizon, cfg.n_t + 1))
        # every admissible pair belongs to its nearest grid point (the lower
        # one on a tie), and an entry lists its pairs by target
        want = brute_force_band(problem, cfg, points)
        if any(np.unique(k).size < k.size for _, k in want):
            with pytest.raises(InfeasibleError):
                disc.band
            return
        assert len(disc.band) == points.size
        for entry, (want_j, want_k) in zip(disc.band, want):
            j, k = run_pairs(entry)
            assert np.array_equal(j, want_j)
            assert np.array_equal(k, want_k)

    @settings(max_examples=150, deadline=None)
    @given(discretization_cases())
    def test_band_entries_are_maximal_runs(self, case):
        problem, cfg = case
        try:
            disc = Discretization.of(problem, cfg)
            band = disc.band
        except (InfeasibleError, DegenerateInputError):
            assume(False)
        want = brute_force_band(problem, cfg, disc.grid.points)
        for entry, (want_j, want_k) in zip(band, want):
            j, k = run_pairs(entry)
            assert np.array_equal(j, want_j) and np.array_equal(k, want_k)
            for js, ks in entry:
                assert js.step is None and ks.step is None
                assert 0 < js.stop - js.start == ks.stop - ks.start
            # a run ends only where an index stops rising by one
            for (j0, k0), (j1, k1) in zip(entry, entry[1:]):
                assert (j1.start, k1.start) != (j0.stop, k0.stop)

    @settings(max_examples=150, deadline=None)
    @given(discretization_cases(), st.data())
    def test_extended_grid(self, case, data):
        problem, cfg = case
        try:
            disc = Discretization.of(problem, cfg)
        except (InfeasibleError, DegenerateInputError):
            assume(False)
        cap = problem.velocity_cap
        try:
            relaxed = solve_relaxed(problem, cfg).velocities
        except InfeasibleError:  # no grid path between the endpoints
            relaxed = np.array([])
        brute = brute_force_grid(problem, cfg)
        # a relaxed path's velocities are grid points: they merge back
        assert same_bits(disc.extended(relaxed).grid.points, disc.grid.points)
        assert same_bits(
            disc.grid.points, merge_close_velocities(np.unique(np.concatenate([brute, relaxed])))
        )
        # perturbed velocities, some within the merge tolerance of a point
        points = list(disc.grid.points)
        nudged = st.sampled_from(points).map(lambda v: v * (1.0 + 3e-13) + 1e-14)
        free = st.floats(-cap, cap)
        extra = np.clip(
            data.draw(st.lists(st.one_of(free, nudged), min_size=1, max_size=12)), -cap, cap
        )
        want = merge_close_velocities(np.unique(np.concatenate([brute, extra])))
        assert same_bits(disc.extended(extra).grid.points, want)


class TestStateGridKeepsBothEndpoints:
    """The end is placed after the start and must not take the start's node."""

    @staticmethod
    def problem(end, horizon=1.0):
        return Problem(
            horizon=horizon,
            start=0.0,
            end=end,
            f=IntegrandFamily(base=velocity_function("power_p", {"p": 2.0})),
            g=IntegrandFamily(base=state_function("zero")),
            state_box=(-1.0, 1.0),
            velocity_cap=2.0,
        )

    def test_end_within_tolerance_of_the_start_is_inserted(self):
        # the end used to overwrite the start's node, and the solve raised
        # "start endpoint is not on the state grid"
        problem = self.problem(1e-12)
        xs = state_grid(problem, 9)
        assert xs.size == 10 and 0.0 in xs and 1e-12 in xs
        traj = solve_relaxed(problem, DPConfig(n_t=8, n_x=9))
        assert (traj.states[0], traj.states[-1]) == (0.0, 1e-12)

    def test_unresolved_gaps_raise_infeasible(self):
        # over a step of 1 the gap's quotient merges with 0, so two pairs of
        # one quotient reach the end's node
        with pytest.raises(InfeasibleError, match="closer than one step's quotients"):
            solve_relaxed(self.problem(1e-12, horizon=8.0), DPConfig(n_t=8, n_x=9))
        # below the float resolution of the box the end stays off the grid
        assert state_grid(self.problem(1e-300), 9).size == 9
        with pytest.raises(InfeasibleError, match="end endpoint is not on the state grid"):
            solve_relaxed(self.problem(1e-300), DPConfig(n_t=8, n_x=9))
