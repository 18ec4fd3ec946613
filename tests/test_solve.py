"""DP solver checks: exactness against enumeration, analytic benchmarks,
budget sweeps, penalized variants, and the coercivity chain.

Frozen analytic values:
  min of sum h*xi^2 from 0 to 1 on an n-point grid over [0,1] with n time
  steps is n/(n-1) (n-1 unit moves of speed n/(n-1), one rest step).
"""

import hashlib
import itertools
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import envelope_reference as ref
from varelax.catalog import nagumo_function, state_function, time_factor, velocity_function
from varelax.classify import hypothesis_check
from varelax.conditions import dubois_reymond_residual
from varelax.discretize import Discretization, merge_close_velocities, nearest_index, state_grid
from varelax.errors import CertificateError, DegenerateInputError, InfeasibleError
from varelax.families import IntegrandFamily
from varelax.io import parse_problem
from varelax.problem import DPConfig, Problem, Trajectory
from varelax.reconstruct import decompose_velocities, rearrange
from varelax import solve
from varelax.solve import (
    _dp,
    _tables,
    fewest_budget_units,
    lagrangian_sweep,
    coercivity_bound_check,
    nagumo_penalized_solve,
    solve_relaxed,
    value_sweep,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def make_problem(f_name, f_params=None, g_name="zero", g_params=None, **kw):
    defaults = dict(horizon=1.0, start=0.0, end=1.0, state_box=(0.0, 1.0), velocity_cap=2.0)
    defaults.update(kw)
    return Problem(
        f=IntegrandFamily(base=velocity_function(f_name, f_params)),
        g=IntegrandFamily(base=state_function(g_name, g_params)),
        **defaults,
    )


QUADRATIC = make_problem("power_p", {"p": 2.0})
DOUBLE_WELL = make_problem(
    "double_well", start=0.0, end=0.0, state_box=(-0.5, 0.5)
)


def enumeration_oracle(problem, cfg):
    """Exhaustive minimum over all state-grid paths, small instances only."""
    lo, hi = problem.state_box
    xs = np.linspace(lo, hi, cfg.n_x)
    step = problem.horizon / cfg.n_t
    times = np.linspace(0.0, problem.horizon, cfg.n_t + 1)
    quotients = np.unique((xs[None, :] - xs[:, None]) / step)
    quotients = quotients[np.abs(quotients) <= problem.velocity_cap * (1 + 1e-12)]
    samples = [problem.f.value(t, quotients) for t in times[:-1]]
    hulls = [ref.hull(quotients, ys) for ys in samples]
    i_a = int(np.flatnonzero(xs == problem.start)[0])
    i_b = int(np.flatnonzero(xs == problem.end)[0])
    best = np.inf
    for interior in itertools.product(range(cfg.n_x), repeat=cfg.n_t - 1):
        idx = (i_a,) + interior + (i_b,)
        cost = 0.0
        ok = True
        for i in range(cfg.n_t):
            q = (xs[idx[i + 1]] - xs[idx[i]]) / step
            if abs(q) > problem.velocity_cap * (1 + 1e-12):
                ok = False
                break
            cost += step * (
                float(ref.value(quotients, samples[i], hulls[i], q))
                + float(problem.g.value(times[i], xs[idx[i]]))
            )
        if ok:
            best = min(best, cost)
    return best


class TestSolveRelaxed:
    def test_quadratic_analytic_value(self):
        traj = solve_relaxed(QUADRATIC, DPConfig(n_t=64, n_x=64))
        assert traj.value == pytest.approx(64.0 / 63.0, rel=1e-12)
        # path follows the identity up to one rest step
        assert np.max(np.abs(traj.states - traj.times)) <= 1.0 / 63.0 + 1e-12

    def test_endpoints_exact(self):
        traj = solve_relaxed(QUADRATIC, DPConfig(n_t=32, n_x=41))
        assert traj.states[0] == 0.0
        assert traj.states[-1] == 1.0

    def test_constant_path_when_endpoints_agree(self):
        prob = make_problem(
            "sqrt_one_plus", start=0.5, end=0.5, state_box=(0.0, 1.0)
        )
        traj = solve_relaxed(prob, DPConfig(n_t=16, n_x=17))
        np.testing.assert_array_equal(traj.states, 0.5)
        assert traj.value == pytest.approx(1.0, rel=1e-12)

    def test_double_well_relaxes_to_zero(self):
        # any path with speeds inside the flat edge [-1, 1] costs zero
        traj = solve_relaxed(DOUBLE_WELL, DPConfig(n_t=32, n_x=33))
        assert traj.value <= 1e-12
        assert np.max(np.abs(traj.velocities)) <= 1.0 + 1e-12

    def test_matches_enumeration_oracle(self):
        cfg = DPConfig(n_t=4, n_x=5)
        for problem in (
            QUADRATIC,
            DOUBLE_WELL,
            make_problem("double_well", g_name="concave_quadratic", g_params={"kappa": 0.5},
                         start=0.0, end=0.0, state_box=(-0.5, 0.5)),
            make_problem("linear_minus_sqrt"),
        ):
            dp = solve_relaxed(problem, cfg)
            assert dp.value == pytest.approx(enumeration_oracle(problem, cfg), abs=1e-12)

    def test_monotone_refinement(self):
        coarse = solve_relaxed(QUADRATIC, DPConfig(n_t=16, n_x=16))
        fine = solve_relaxed(QUADRATIC, DPConfig(n_t=32, n_x=31))
        assert fine.value <= coarse.value + 1e-12

    def test_infeasible_without_moves(self):
        prob = make_problem("power_p", {"p": 2.0}, velocity_cap=1.0)
        # cap exactly 1: the straight line is the only speed profile
        traj = solve_relaxed(prob, DPConfig(n_t=8, n_x=9))
        assert "cap-saturation" in traj.warnings

    def test_boundary_contact_warning(self):
        prob = make_problem(
            "double_well",
            g_name="concave_quadratic",
            g_params={"kappa": 0.25},
            start=0.0,
            end=0.0,
            state_box=(-0.25, 0.25),
        )
        traj = solve_relaxed(prob, DPConfig(n_t=32, n_x=17))
        assert "boundary-contact" in traj.warnings

    def test_cap_doubling_reproduces_value(self):
        base = make_problem("linear_minus_sqrt", velocity_cap=2.0)
        doubled = make_problem("linear_minus_sqrt", velocity_cap=4.0)
        cfg = DPConfig(n_t=32, n_x=33)
        t1 = solve_relaxed(base, cfg)
        t2 = solve_relaxed(doubled, cfg)
        assert abs(t1.value - t2.value) <= 1e-9
        np.testing.assert_array_equal(t1.velocities, t2.velocities)

    def test_budget_constrained_solve(self):
        theta = nagumo_function("power_p", {"p": 2.0})
        cfg = DPConfig(n_t=16, n_x=17, theta=theta, theta_budget=4.0)
        traj = solve_relaxed(QUADRATIC, cfg)
        free = solve_relaxed(QUADRATIC, DPConfig(n_t=16, n_x=17))
        assert traj.value == free.value
        assert traj.theta_value <= 4.0
        with pytest.raises(InfeasibleError):
            solve_relaxed(QUADRATIC, DPConfig(n_t=16, n_x=17, theta=theta, theta_budget=0.5))


class TestValueSweep:
    def test_quadratic_budget_sweep(self):
        theta = nagumo_function("power_p", {"p": 2.0})
        cfg = DPConfig(n_t=64, n_x=64, theta=theta)
        schedule = np.linspace(0.25, 4.0, 16)
        report = value_sweep(QUADRATIC, cfg, schedule)
        feasible = [v for v in report.values if v is not None]
        assert all(b <= a + 1e-9 for a, b in zip(feasible, feasible[1:]))
        assert report.settle_index is not None
        # discrete speed budget of the unconstrained minimizer is ~64/63
        assert 1.0 <= schedule[report.settle_index] <= 1.5
        assert feasible[-1] == pytest.approx(64.0 / 63.0, rel=1e-12)

    def test_infeasible_entries_marked(self):
        theta = nagumo_function("power_p", {"p": 2.0})
        cfg = DPConfig(n_t=16, n_x=17, theta=theta)
        report = value_sweep(QUADRATIC, cfg, np.linspace(0.2, 2.0, 8))
        assert report.values[0] is None
        assert report.values[-1] is not None

    def test_requires_theta(self):
        with pytest.raises(CertificateError):
            value_sweep(QUADRATIC, DPConfig(n_t=8, n_x=9), np.linspace(0.5, 2, 4))

    def test_double_well_settles_immediately(self):
        # the relaxed minimizer can rest, so every budget admits it
        theta = nagumo_function("power_p", {"p": 2.0})
        cfg = DPConfig(n_t=16, n_x=17, theta=theta)
        report = value_sweep(DOUBLE_WELL, cfg, np.linspace(0.1, 1.0, 8))
        assert report.settle_index == 0
        assert report.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_lagrangian_sweep_bounds_from_below(self):
        theta = nagumo_function("power_p", {"p": 2.0})
        cfg = DPConfig(n_t=32, n_x=32, theta=theta)
        schedule = np.linspace(0.5, 4.0, 8)
        exact = value_sweep(QUADRATIC, cfg, schedule)
        dual = lagrangian_sweep(QUADRATIC, cfg, schedule)
        for lb, v in zip(dual.values, exact.values):
            if v is not None:
                assert lb <= v + 1e-9
        assert all(b <= a + 1e-12 for a, b in zip(dual.values, dual.values[1:]))
        # at large budgets the dual is tight on the unconstrained value
        assert dual.values[-1] == pytest.approx(exact.values[-1], abs=1e-9)

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ([1.0], "increasing with >= 2 entries"),
            ([2.0, 1.0], "increasing with >= 2 entries"),
            ([-1.0, 0.0, 1.0], "entries must be positive"),
        ],
    )
    def test_both_sweeps_reject_the_same_schedules(self, schedule, message):
        cfg = DPConfig(n_t=8, n_x=9, theta=nagumo_function("power_p", {"p": 2.0}))
        for sweep in (value_sweep, lagrangian_sweep):
            with pytest.raises(CertificateError, match=message):
                sweep(QUADRATIC, cfg, np.array(schedule))


class TestPenalizedSolve:
    def test_zero_penalty_identical(self):
        theta = nagumo_function("power_p", {"p": 2.0})
        cfg = DPConfig(n_t=16, n_x=17, theta=theta, penalty=0.0)
        a = nagumo_penalized_solve(QUADRATIC, cfg)
        b = solve_relaxed(QUADRATIC, DPConfig(n_t=16, n_x=17, theta=theta))
        assert a.value == b.value
        np.testing.assert_array_equal(a.states, b.states)

    def test_large_penalty_flattens_to_jensen_minimum(self):
        theta = nagumo_function("power_p", {"p": 2.0})
        cfg_small = DPConfig(n_t=4, n_x=5, theta=theta, penalty=1e6)
        traj = nagumo_penalized_solve(QUADRATIC, cfg_small)
        # enumerate the minimal discrete speed budget over all paths
        lo, hi = QUADRATIC.state_box
        xs = np.linspace(lo, hi, 5)
        step = 0.25
        best = np.inf
        for interior in itertools.product(range(5), repeat=3):
            idx = (0,) + interior + (4,)
            qs = np.diff(xs[list(idx)]) / step
            if np.max(np.abs(qs)) > QUADRATIC.velocity_cap:
                continue
            best = min(best, step * float(np.sum(qs**2)))
        assert traj.theta_value == pytest.approx(best, abs=1e-12)

    def test_penalized_objective_monotone_in_rate(self):
        theta = nagumo_function("power_p", {"p": 2.0})
        objectives = []
        for rate in (0.0, 0.5, 2.0, 8.0):
            cfg = DPConfig(n_t=16, n_x=17, theta=theta, penalty=rate)
            traj = nagumo_penalized_solve(DOUBLE_WELL_SHIFT, cfg)
            objectives.append(traj.value + rate * traj.theta_value)
        assert all(a <= b + 1e-12 for a, b in zip(objectives, objectives[1:]))


DOUBLE_WELL_SHIFT = make_problem("double_well", state_box=(-0.5, 1.5))


class TestCoercivityBound:
    def test_chain_holds_on_quadratic(self):
        cfg = DPConfig(n_t=32, n_x=33)
        traj = solve_relaxed(QUADRATIC, cfg)
        report = coercivity_bound_check(QUADRATIC, traj, hypothesis_check(QUADRATIC), cfg)
        assert report.reference_ok
        assert report.lower_bound_ok
        assert report.velocity_bound_ok
        assert report.consistent

    def test_reference_dominates_minimizer(self):
        cfg = DPConfig(n_t=16, n_x=17)
        for problem in (QUADRATIC, DOUBLE_WELL, make_problem("linear_minus_sqrt")):
            traj = solve_relaxed(problem, cfg)
            report = coercivity_bound_check(problem, traj, hypothesis_check(problem), cfg)
            assert report.reference_value >= traj.value - 1e-12

    def test_zero_state_slope_reduces_bound(self):
        cfg = DPConfig(n_t=16, n_x=17)
        traj = solve_relaxed(QUADRATIC, cfg)
        hyp = hypothesis_check(QUADRATIC)
        report = coercivity_bound_check(QUADRATIC, traj, hyp, cfg)
        assert hyp.g_bound_slope == 0.0
        expected = (
            report.reference_value
            + (hyp.f_bound_offset + hyp.g_bound_offset) * QUADRATIC.horizon
        ) / hyp.f_bound_slope
        assert report.velocity_l1_bound == pytest.approx(expected, rel=1e-12)

    def test_shifted_parabola_declared_constants(self):
        # f = xi^2 - 1 with the hand-picked pair (offset 1, slope 1): the
        # integrated chain holds for the minimizer even though the pair is
        # not the fitted one
        shifted = Problem(
            horizon=1.0,
            start=0.0,
            end=1.0,
            f=IntegrandFamily(
                base=velocity_function("power_p", {"p": 2.0}),
                modulation=velocity_function("affine", {"slope": 0.0, "offset": -1.0}),
            ),
            g=IntegrandFamily(base=state_function("zero")),
            state_box=(0.0, 1.0),
            velocity_cap=2.0,
        )
        cfg = DPConfig(n_t=64, n_x=64)
        traj = solve_relaxed(shifted, cfg)
        assert traj.value >= -1.0 * shifted.horizon + 1.0 * traj.velocity_l1() - 1e-12
        report = coercivity_bound_check(shifted, traj, hypothesis_check(shifted), cfg)
        assert report.consistent

    def test_no_velocity_bound_when_the_state_slope_dominates(self):
        # g = -100 x^2 has slope beta = 25 > B = 4.34 at T = 1, so
        # B - beta * T <= 0 bounds no speed and the other two checks decide
        problem = make_problem(
            "double_well", g_name="concave_quadratic", g_params={"kappa": 100.0},
            start=0.0, end=0.0, state_box=(-0.25, 0.25),
        )
        cfg = DPConfig(n_t=32, n_x=33)
        hyp = hypothesis_check(problem)
        assert hyp.f_bound_slope - hyp.g_bound_slope * problem.horizon <= 0.0
        report = coercivity_bound_check(problem, solve_relaxed(problem, cfg), hyp, cfg)
        assert report.velocity_l1_bound is None and report.velocity_bound_ok is None
        assert report.consistent == (report.reference_ok and report.lower_bound_ok)
        assert report.consistent



@st.composite
def snap_cases(draw):
    """A state grid with off-grid endpoints, and points to snap onto it:
    the coercivity reference path, node midpoints (ties) and points
    beyond both ends of the box."""
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.05, 3.0))
    start, end = (draw(st.floats(lo, hi)) for _ in range(2))
    problem = make_problem(
        "power_p", {"p": 2.0}, start=start, end=end, state_box=(lo, hi), velocity_cap=1e6
    )
    xs = state_grid(problem, draw(st.integers(3, 80)))
    times = np.linspace(0.0, 1.0, draw(st.integers(2, 80)) + 1)
    reference = start + (end - start) * times
    midpoints = (xs[:-1] + xs[1:]) / 2.0
    outside = np.array([lo - 1.0, hi + 1.0, draw(st.floats(lo - 1.0, hi + 1.0))])
    return xs, np.concatenate([reference, midpoints, xs, outside])


class TestReferenceSnap:
    """The coercivity reference path snaps by a sorted search, not by an
    (n_x, n_t + 1) distance table."""

    @settings(max_examples=300, deadline=None)
    @given(snap_cases())
    def test_nearest_index_matches_argmin(self, case):
        xs, points = case
        want = np.argmin(np.abs(xs[:, None] - points[None, :]), axis=0)
        np.testing.assert_array_equal(nearest_index(xs, points), want)

    def test_peak_at_2048_nodes(self):
        # the distance table and its temporary peaked at 67 MB here
        cfg = DPConfig(n_t=2048, n_x=2048)
        times = np.linspace(0.0, 1.0, cfg.n_t + 1)
        straight = Trajectory(
            times=times, states=times.copy(), velocities=np.ones(cfg.n_t),
            value=1.0, f_cost=1.0, g_cost=0.0,
        )
        hypotheses = hypothesis_check(QUADRATIC)
        tracemalloc.start()
        try:
            report = coercivity_bound_check(QUADRATIC, straight, hypotheses, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.reference_ok
        assert peak < 4e6


class TestStateCostChecked:
    def test_nonfinite_state_cost_is_an_input_error(self):
        # -1e308 * x^2 overflows to -inf at the box edges; the fault is the
        # state cost, not a missing path
        problem = make_problem(
            "double_well", g_name="concave_quadratic", g_params={"kappa": 1e308},
            state_box=(-2.0, 2.0), velocity_cap=8.0,
        )
        with pytest.raises(DegenerateInputError, match="state cost g"):
            solve_relaxed(problem, DPConfig(n_t=8, n_x=9))

    def test_overflow_is_reported_once_without_a_warning(self):
        problem = make_problem(
            "double_well", g_name="concave_quadratic", g_params={"kappa": 1e308},
            state_box=(-2.0, 2.0), velocity_cap=8.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateInputError) as info:
                solve_relaxed(problem, DPConfig(n_t=8, n_x=9))
        assert str(info.value) == "state cost g must be finite on the state grid"


class TestBudgetUnitOverflow:
    def test_tiny_budget_is_infeasible_without_a_cast_warning(self):
        # h*theta(q)/quantum is about 1e20 units here; cast before clipping,
        # it overflowed int64 and every quotient became free
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        cfg = replace(loaded.config, n_t=16, n_x=17, theta_budget=1e-19)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InfeasibleError):
                solve_relaxed(loaded.problem, cfg)

def dense_quotients(xs, step, cap):
    """Merged quotient values and the (n, n) quotient index of every state
    pair (-1 when inadmissible), built from the full difference matrix."""
    diffs = (xs[None, :] - xs[:, None]) / step
    all_q, inverse = np.unique(diffs, return_inverse=True)
    admissible = np.abs(all_q) <= cap * (1.0 + 1e-12)
    if np.count_nonzero(admissible) < 2:
        return None, None
    reps = merge_close_velocities(all_q[admissible])
    raw = all_q[admissible]
    nearest = np.clip(np.searchsorted(reps, raw), 0, reps.size - 1)
    left = np.clip(nearest - 1, 0, reps.size - 1)
    position = np.full(all_q.size, -1, dtype=np.int64)
    position[admissible] = np.where(
        np.abs(reps[left] - raw) <= np.abs(reps[nearest] - raw), left, nearest
    )
    return reps, position[inverse.reshape(diffs.shape)]


def dense_setup(problem, cfg):
    xs = state_grid(problem, cfg.n_x)
    step = problem.horizon / cfg.n_t
    times = np.linspace(0.0, problem.horizon, cfg.n_t + 1)
    reps, qindex = dense_quotients(xs, step, problem.velocity_cap)
    if reps is None:
        return None
    costs = []
    for t in times[:-1]:
        ys = problem.f.value(t, reps)
        keep = ref.hull(reps, ys)
        fq = np.array([ref.value(reps, ys, keep, q) for q in reps])
        if cfg.penalty > 0.0:
            fq = fq + cfg.penalty * cfg.theta(reps)
        costs.append((fq, problem.g.value(t, xs)))
    i_a = int(np.flatnonzero(xs == problem.start)[0])
    i_b = int(np.flatnonzero(xs == problem.end)[0])
    return xs, step, reps, qindex, costs, i_a, i_b


def dense_reference_dp(problem, cfg):
    """Plain DP over the dense n x n candidate matrix; argmin picks the
    smallest predecessor.  Returns (value, states) or None if infeasible."""
    setup = dense_setup(problem, cfg)
    if setup is None:
        return None
    xs, step, reps, qindex, costs, i_a, i_b = setup
    value = np.full(xs.size, np.inf)
    value[i_a] = 0.0
    back = []
    for fq, gx in costs:
        move = np.where(qindex >= 0, fq[np.maximum(qindex, 0)], np.inf)
        candidates = value[:, None] + step * (gx[:, None] + move)
        back.append(np.argmin(candidates, axis=0))
        value = np.min(candidates, axis=0)
    if not np.isfinite(value[i_b]):
        return None
    idx = [i_b]
    for b in reversed(back):
        idx.append(b[idx[-1]])
    return value[i_b], xs[np.array(idx[::-1])]


def dense_reference_budget(problem, cfg, budget):
    """Budget DP over (used units, state) that visits predecessors in
    ascending index for every target and keeps the first strict minimum.
    Returns (value, states) or None if no path fits the budget."""
    setup = dense_setup(problem, cfg)
    if setup is None:
        return None
    xs, step, reps, qindex, costs, i_a, i_b = setup
    units = np.ceil(step * cfg.theta(reps) / (budget / cfg.budget_levels)).astype(np.int64)
    units = np.maximum(units, 0)
    levels = cfg.budget_levels + 1
    value = np.full((levels, xs.size), np.inf)
    value[0, i_a] = 0.0
    back = []
    for fq, gx in costs:
        nxt = np.full_like(value, np.inf)
        pred = np.full(value.shape, -1)
        for j in range(xs.size):
            for k in np.flatnonzero(qindex[j] >= 0):
                q = qindex[j, k]
                u = units[q]
                if u >= levels:
                    continue
                cand = value[: levels - u, j] + step * (gx[j] + fq[q])
                better = cand < nxt[u:, k]
                nxt[u:, k][better] = cand[better]
                pred[u:, k][better] = j
        back.append(pred)
        value = nxt
    column = value[:, i_b]
    if not np.any(np.isfinite(column)):
        return None
    level = int(np.argmin(column))
    idx = [i_b]
    for pred in reversed(back):
        j = pred[level, idx[-1]]
        level -= units[qindex[j, idx[-1]]]
        idx.append(j)
    return column.min(), xs[np.array(idx[::-1])]


THETA = nagumo_function("power_p", {"p": 2.0})
F_SHAPES = (
    ("double_well", None),
    ("power_p", {"p": 2.0}),
    ("linear_minus_sqrt", None),
    ("sqrt_one_plus", None),
)
G_FAMILIES = (
    IntegrandFamily(base=state_function("zero")),
    IntegrandFamily(base=state_function("concave_quadratic", {"kappa": 0.5})),
    IntegrandFamily(
        base=state_function("affine", {"slope": -0.7, "offset": 0.1}),
        modulation=state_function("concave_quadratic", {"kappa": 1.0}),
        factor=time_factor("affine_t", {"slope": 2.0, "offset": -0.5}),
    ),
)


@st.composite
def dp_cases(draw):
    """Small problems on the box [-0.5, 0.5]: endpoints 0 and 0.25 fall off
    the uniform grid for some n_x and are inserted as extra nodes."""
    name, params = draw(st.sampled_from(F_SHAPES))
    f = IntegrandFamily(base=velocity_function(name, params))
    if draw(st.booleans()):
        f = IntegrandFamily(
            base=f.base,
            modulation=velocity_function("power_p", {"p": 2.0}),
            factor=time_factor("sine", {"amplitude": 0.5, "frequency": 3.0}),
        )
    start, end = draw(st.sampled_from([(0.0, 0.0), (-0.5, 0.5), (0.0, 0.25), (-0.25, 0.5)]))
    problem = Problem(
        horizon=1.0,
        start=start,
        end=end,
        f=f,
        g=draw(st.sampled_from(G_FAMILIES)),
        state_box=(-0.5, 0.5),
        velocity_cap=draw(st.sampled_from([1.0, 1.5, 2.0, 4.0])),
    )
    cfg = DPConfig(
        n_t=draw(st.integers(2, 12)),
        n_x=draw(st.integers(3, 33)),
        theta=THETA,
        budget_levels=draw(st.sampled_from([4, 8, 16])),
    )
    return problem, cfg, draw(st.sampled_from([0.5, 3.0])), draw(st.sampled_from([0.3, 1.0, 5.0]))


# A dp_cases case past its n_x range: 263 offset rows, so ranks are int16
WIDE_CASE = (
    Problem(
        horizon=1.0,
        start=0.0,
        end=0.25,
        f=IntegrandFamily(base=velocity_function("double_well")),
        g=G_FAMILIES[1],
        state_box=(-0.5, 0.5),
        velocity_cap=4.0,
    ),
    DPConfig(n_t=2, n_x=131, theta=THETA, budget_levels=8),
    3.0,
    1.0,
)


def assert_kernel_matches(problem, cfg, budget, reference, solve):
    """The kernel's value and path equal the reference's bit for bit, and
    the public solve returns the same path."""
    if reference is None:
        with pytest.raises(InfeasibleError):
            solve()
        return
    ref_value, ref_states = reference
    value, idx, _ = _dp(_tables(problem, cfg), cfg, budget, want_path=True)
    assert value == ref_value
    np.testing.assert_array_equal(state_grid(problem, cfg.n_x)[idx], ref_states)
    np.testing.assert_array_equal(solve().states, ref_states)


class TestBandedKernelAgainstDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(dp_cases())
    @example(WIDE_CASE)
    def test_plain_penalized_and_budget_solves(self, case):
        problem, cfg, penalty, budget = case
        assert_kernel_matches(
            problem, cfg, None, dense_reference_dp(problem, cfg),
            lambda: solve_relaxed(problem, cfg),
        )
        penalized = replace(cfg, penalty=penalty)
        assert_kernel_matches(
            problem, penalized, None, dense_reference_dp(problem, penalized),
            lambda: nagumo_penalized_solve(problem, penalized),
        )
        budgeted = replace(cfg, theta_budget=budget)
        assert_kernel_matches(
            problem, cfg, budget, dense_reference_budget(problem, cfg, budget),
            lambda: solve_relaxed(problem, budgeted),
        )

    @settings(max_examples=40, deadline=None)
    @given(dp_cases())
    def test_penalized_solve_keeps_the_budget(self, case):
        problem, cfg, penalty, budget = case
        penalized = replace(cfg, penalty=penalty)
        assert_kernel_matches(
            problem, penalized, budget, dense_reference_budget(problem, penalized, budget),
            lambda: nagumo_penalized_solve(problem, replace(penalized, theta_budget=budget)),
        )

    def test_slack_budget_path_equals_plain_path(self):
        # a budget that never binds must not change the tie-break
        loaded = parse_problem(PROBLEMS / "doublewell_concave.json")
        cfg = replace(loaded.config, n_t=32, n_x=33, theta=THETA)
        plain = solve_relaxed(loaded.problem, cfg)
        budgeted = solve_relaxed(loaded.problem, replace(cfg, theta_budget=1e6))
        np.testing.assert_array_equal(budgeted.states, plain.states)
        assert budgeted.value == plain.value

    def test_sweep_values_match_dense_budget_reference(self):
        cfg = DPConfig(n_t=8, n_x=17, theta=THETA, budget_levels=16)
        schedule = np.linspace(0.5, 3.0, 4)
        report = value_sweep(QUADRATIC, cfg, schedule)
        for budget, value in zip(schedule, report.values):
            reference = dense_reference_budget(QUADRATIC, cfg, budget)
            assert value == (None if reference is None else reference[0])

    def test_no_dense_state_table(self):
        # one float64 array of n_x^2 entries would take 33.6 MB here
        cfg = DPConfig(n_t=256, n_x=2049)
        tracemalloc.start()
        try:
            solve_relaxed(DOUBLE_WELL, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_budget_backpointers_are_narrow(self):
        # int64 backpointers of shape (128, 257, 129) alone would take 34 MB;
        # the 9 admissible quotients here fit in int8
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        cfg = replace(loaded.config, n_t=128, n_x=257, budget_levels=128, theta_budget=4.0)
        tracemalloc.start()
        try:
            traj = solve_relaxed(loaded.problem, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6
        # speed 1 throughout is the unique minimizer (Jensen), and its
        # theta cost 1 fits the budget
        np.testing.assert_array_equal(traj.states, np.linspace(0.0, 1.0, 129))


class TestPerRateKernelAgainstDenseOracle:
    @settings(max_examples=30, deadline=None)
    @given(dp_cases())
    @example(WIDE_CASE)
    def test_every_rate_column_matches_the_dense_oracle(self, case):
        # lagrangian_sweep's one DP pass with a column per multiplier
        problem, cfg, _, _ = case
        references = [
            dense_reference_dp(problem, replace(cfg, penalty=float(rate)))
            for rate in solve.MULTIPLIERS
        ]
        if references[0] is None:
            with pytest.raises(InfeasibleError):
                solve_relaxed(problem, cfg)
            return
        columns = _dp(_tables(problem, cfg, solve.MULTIPLIERS), cfg, None, want_path=True)
        assert len(columns) == len(references)
        xs = state_grid(problem, cfg.n_x)
        for (value, idx, _), (ref_value, ref_states) in zip(columns, references):
            assert value == ref_value
            np.testing.assert_array_equal(xs[idx], ref_states)


def dense_path_indices(problem, cfg, states):
    """Node and quotient indices of a dense reference path."""
    xs, _, reps, qindex, *_ = dense_setup(problem, cfg)
    idx = np.searchsorted(xs, states)
    return reps, idx, qindex[idx[:-1], idx[1:]]


def step_entries(tab, n_cols):
    """Candidate entries of one DP step: offsets x columns x padded states."""
    n_offsets, n_nodes = tab.disc.transitions[1].shape
    return n_offsets * n_cols * (n_nodes + n_offsets - 1)


class TestChunkedBackpointers:
    """The DP takes its backpointers once per chunk of steps; the chunk's
    length shows in no value or path."""

    CASES = (
        # speeds 0 and 0.875 share one envelope edge, so every path over
        # them costs the same and most targets tie
        (DOUBLE_WELL, DPConfig(n_t=7, n_x=9, theta=THETA, budget_levels=8)),
        # f and g both change with time, so every step has its own costs
        (
            Problem(
                horizon=1.0,
                start=0.0,
                end=0.25,
                f=IntegrandFamily(
                    base=velocity_function("double_well"),
                    modulation=velocity_function("power_p", {"p": 2.0}),
                    factor=time_factor("sine", {"amplitude": 0.5, "frequency": 3.0}),
                ),
                g=G_FAMILIES[2],
                state_box=(-0.5, 0.5),
                velocity_cap=2.0,
            ),
            DPConfig(n_t=9, n_x=17, theta=THETA, budget_levels=8),
        ),
        # f is autonomous and g changes with time: only g's rows change
        (
            Problem(
                horizon=1.0,
                start=0.0,
                end=0.25,
                f=IntegrandFamily(base=velocity_function("double_well")),
                g=G_FAMILIES[2],
                state_box=(-0.5, 0.5),
                velocity_cap=2.0,
            ),
            DPConfig(n_t=9, n_x=17, theta=THETA, budget_levels=8),
        ),
        # f changes with time and g is zero: the blocks are gathered from h*f**
        (
            Problem(
                horizon=1.0,
                start=0.0,
                end=0.25,
                f=IntegrandFamily(
                    base=velocity_function("double_well"),
                    modulation=velocity_function("power_p", {"p": 2.0}),
                    factor=time_factor("sine", {"amplitude": 0.5, "frequency": 3.0}),
                ),
                g=G_FAMILIES[0],
                state_box=(-0.5, 0.5),
                velocity_cap=2.0,
            ),
            DPConfig(n_t=9, n_x=17, theta=THETA, budget_levels=8),
        ),
        # f is -0.0 at negative quotients and g is zero: every path costs
        # zero, and the value's sign is the oracle's step * (g + move)
        (
            Problem(
                horizon=1.0,
                start=0.0,
                end=0.25,
                f=IntegrandFamily(
                    base=velocity_function("affine", {"slope": 0.0, "offset": -0.0})
                ),
                g=G_FAMILIES[0],
                state_box=(-0.5, 0.5),
                velocity_cap=2.0,
            ),
            DPConfig(n_t=9, n_x=17, theta=THETA, budget_levels=8),
        ),
        # the path starts at the box's lower corner and moves at most two
        # nodes a step, so after step i every node above 2i is unreachable;
        # g falls with x, and the plain path climbs along that frontier
        (
            Problem(
                horizon=1.0,
                start=-0.5,
                end=-0.5,
                f=IntegrandFamily(base=velocity_function("double_well")),
                g=IntegrandFamily(base=state_function("affine", {"slope": -1.0, "offset": 0.0})),
                state_box=(-0.5, 0.5),
                velocity_cap=1.25,
            ),
            DPConfig(n_t=9, n_x=17, theta=THETA, budget_levels=8),
        ),
    )

    # steps per chunk: one, a non-divisor of the odd n_t, and all of them
    @pytest.mark.parametrize("chunk", [1, 2, 100])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_every_layout_matches_the_dense_oracle(self, monkeypatch, case, chunk):
        problem, cfg = self.CASES[case]
        tab = _tables(problem, cfg)
        budget = 1.0
        layouts = (
            # (columns, the DP's results, the references' (value, states))
            (
                1,
                lambda path: [_dp(tab, cfg, None, path)],
                [dense_reference_dp(problem, cfg)],
            ),
            (
                solve.MULTIPLIERS.size,
                lambda path: _dp(_tables(problem, cfg, solve.MULTIPLIERS), cfg, None, path),
                [
                    dense_reference_dp(problem, replace(cfg, penalty=float(rate)))
                    for rate in solve.MULTIPLIERS
                ],
            ),
            (
                cfg.budget_levels + 1,
                lambda path: [_dp(tab, cfg, budget, path)],
                [dense_reference_budget(problem, cfg, budget)],
            ),
        )
        for n_cols, run, references in layouts:
            monkeypatch.setattr(solve, "CHUNK_ENTRIES", chunk * step_entries(tab, n_cols))
            for (value, idx, qidx), (bare, _, _), (ref_value, ref_states) in zip(
                run(True), run(False), references
            ):
                reps, ref_idx, ref_qidx = dense_path_indices(problem, cfg, ref_states)
                np.testing.assert_array_equal(tab.disc.grid, reps)
                assert value.hex() == bare.hex() == float(ref_value).hex()
                np.testing.assert_array_equal(idx, ref_idx)
                np.testing.assert_array_equal(qidx, ref_qidx)

    def test_per_rate_layout_at_one_step_per_chunk(self):
        # lagrangian_sweep on budget-sweep's 64x129 grid: a step's block of
        # 9 offsets x 14 columns x 137 padded states fills a chunk alone.
        # The layout test above patches CHUNK_ENTRIES; this one runs the
        # shipped value and checks that it gives one step per chunk here.
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        problem, cfg = loaded.problem, replace(loaded.config, n_t=64, n_x=129)
        tab = _tables(problem, cfg)
        assert step_entries(tab, solve.MULTIPLIERS.size) == 9 * 14 * 137
        assert solve.CHUNK_ENTRIES // step_entries(tab, solve.MULTIPLIERS.size) == 1
        columns = _dp(_tables(problem, cfg, solve.MULTIPLIERS), cfg, None, True)
        for rate, (value, idx, qidx) in zip(solve.MULTIPLIERS, columns):
            rated = replace(cfg, penalty=float(rate))
            ref_value, ref_states = dense_reference_dp(problem, rated)
            _, ref_idx, ref_qidx = dense_path_indices(problem, rated, ref_states)
            assert value.hex() == float(ref_value).hex()
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(qidx, ref_qidx)

    def test_peak_grows_only_by_the_backpointers(self):
        # doublewell with its cap scaled to the grid, so both grids have the
        # same five offsets and chunk length: only n_t differs
        loaded = parse_problem(PROBLEMS / "doublewell.json")
        peaks = {}
        for n_t in (256, 2048):
            cfg = replace(loaded.config, n_t=n_t, n_x=129)
            tab = _tables(replace(loaded.problem, velocity_cap=2.5 * n_t / 128), cfg)
            n_offsets, n_nodes = tab.disc.transitions[1].shape
            tracemalloc.start()
            try:
                _dp(tab, cfg, None, want_path=True)
                _, peaks[n_t] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert n_offsets == 5
        # one int8 backpointer per (step, padded state), and per step the
        # path's node and quotient indices and the two row lists, 8 bytes each
        per_step = (n_nodes + n_offsets - 1) + 4 * 8
        assert peaks[2048] - peaks[256] <= (2048 - 256) * per_step + 16 * 1024


class TestKernelOnBandRuns:
    """The DP steps over the offset table, one row per state offset; an
    endpoint inserted off the uniform grid puts some quotients' pairs at
    two offsets, and spreads an offset's pairs over several quotients."""

    def test_split_entries_match_the_dense_oracle(self):
        # 0 is not a node of the 64-point grid on (-0.5, 0.5): it is inserted
        loaded = parse_problem(PROBLEMS / "doublewell.json")
        cfg = replace(loaded.config, n_t=24, n_x=64)
        disc = _tables(loaded.problem, cfg).disc
        _, table = disc.transitions
        offsets_per_quotient = [np.any(table == q, axis=1).sum() for q in range(disc.grid.size)]
        assert max(offsets_per_quotient) >= 2
        assert_kernel_matches(
            loaded.problem, cfg, None, dense_reference_dp(loaded.problem, cfg),
            lambda: solve_relaxed(loaded.problem, cfg),
        )

    def test_inserted_endpoint_adds_no_offset_row(self):
        # fine-grid's doublewell: 513 nodes and 15 quotients, whose band
        # split into 33 runs per step; the offset table has one row per offset
        loaded = parse_problem(PROBLEMS / "doublewell.json")
        disc = _tables(loaded.problem, replace(loaded.config, n_t=256, n_x=512)).disc
        top, table = disc.transitions
        assert (disc.grid.size, top, table.shape) == (15, 4, (9, 513))

    # solve_relaxed on the fine-grid benchmark ops, recorded before the DP
    # stepped over runs of slices: (n_t, n_x, value, sha256 of the states)
    FINE_GRID = {
        "doublewell": (
            256, 512, 1.5348561081995633e-05,
            "ec8ea85e0ff1d562cbf6fd858eb08473835e26922d9b4e0afb9d766ea6be4088",
        ),
        "doublewell_timevarying": (
            384, 385, 0.22930088449665867,
            "eac2826d5fe4007dcc27f34a9232d64f9792ba656a61db9c97a408ae0cc6ac82",
        ),
        "doublewell_concave": (
            512, 257, -0.010416746139526367,
            "aaeb11a45b2c85eab059d6a670de87d671843683771d73b6ef6419e0f1874edf",
        ),
    }

    @pytest.mark.parametrize("name", sorted(FINE_GRID))
    def test_fine_grid_solves_keep_their_bits(self, name):
        n_t, n_x, value, digest = self.FINE_GRID[name]
        loaded = parse_problem(PROBLEMS / f"{name}.json")
        traj = solve_relaxed(loaded.problem, replace(loaded.config, n_t=n_t, n_x=n_x))
        assert traj.value.hex() == value.hex()
        assert hashlib.sha256(traj.states.tobytes()).hexdigest() == digest


class TestStagesAfterTheDP:
    """DR and the reconstruction on the fine-grid benchmark ops keep their
    bits, recorded before the stages read one envelope table per time set:
    sha256 of DR's energy, drift and residual and of the reconstructed
    times, states and velocities; then f_cost, g_cost and split_count.
    ``doublewell_timevarying``'s drift and residual were re-recorded when
    the drift moved from central differences to the envelope's support
    points (``test_conditions.TestDriftAgainstCentralDifference``).
    ``doublewell_concave``'s reconstructed states, velocities and g_cost
    were re-recorded when ``rearrange`` started choosing only orders that
    stay in the state box: its 256 split intervals sit on the lower edge,
    where the cheaper order had left the box, down to -0.2509765625."""

    PINS = {
        "doublewell": (
            256, 512,
            "7b6f7c0e76734ed4836e232b194886796629aff5bec3d7f137224e33b8112b7d",
            "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
            "28630efb5c6fc29332d1aad6c3712d9ec21ec17261683df2f6dd81a20b4139a1",
            "68af266e4d5226f598e7ecad3db3bf9eea5b355153be39c12c1ef1c2374123a7",
            "3ae6effecf1d3eac780d3be327dc0e54159cd447b7780c08c5cba68352b779ce",
            "c28b129002e815a32beb7fdfe6d02c226a35cc6bbb7d0290194a5d8bed2b9019",
            "0x1.0181916118c81p-16", "0x0.0p+0", 24,
        ),
        "doublewell_timevarying": (
            384, 385,
            "bbf220b960fb1bc0518d529162087c3da7fead69e39841152687fbbba7bc4340",
            "bff74e6af4f1906da24627dd9ddad893898b2165de49e8fc6c20c2ff12693a7b",
            "49d8ff6278109b0a0b2482b04089983a7001f7121301e5744f438699962f6d2b",
            "a42ab5bf762659abb0fc4402b08edb366d41b5c7561b096dc08275b8927ab400",
            "382176f52a0628c1c2afba4f71c9586bb838d5950d59532dc3dcea26bea76f14",
            "4203da604f1912348278d6cc08cd9290a12c2fd03e444e7f47de8ee77e0494cd",
            "0x1.d59bb3bedb2eap-3", "0x0.0p+0", 2,
        ),
        "doublewell_concave": (
            512, 257,
            "7811d9d75a8c3790c1a74780a98900aa9eb5cdb0ec90073f0181ff1715372656",
            "ad7facb2586fc6e966c004d7d1d16b024f5805ff7cb47c7a85dabd8b48892ca7",
            "85045ef8d209c9a3819ae508363c0afe53bd97aeb375fd45a4d7c70aefabb5d9",
            "cec5942258b0e244d92be94fb7aca2562a089fad89ba7ec18d5e3e4e5b481c24",
            "6825f4ee75c8e8723b57efc6178f71d2e3e6869885da0bf15d94b19a2e60c3d3",
            "35480b46e8c724e35f0658e1b60392f33fb01601d51d6ce02a8d955cbd17ea01",
            "0x0.0p+0", "-0x1.5456800000000p-7", 256,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_fine_grid_stages_keep_their_bits(self, name):
        n_t, n_x, *digests, f_cost, g_cost, splits = self.PINS[name]
        loaded = parse_problem(PROBLEMS / f"{name}.json")
        problem, cfg = loaded.problem, replace(loaded.config, n_t=n_t, n_x=n_x)
        traj = solve_relaxed(problem, cfg)
        dr = dubois_reymond_residual(problem, traj, cfg)
        track = decompose_velocities(problem, traj, cfg)
        rec = rearrange(problem, traj, track)
        arrays = (dr.energy, dr.drift, dr.residual, rec.times, rec.states, rec.velocities)
        assert [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays] == digests
        assert (float(rec.f_cost).hex(), float(rec.g_cost).hex()) == (f_cost, g_cost)
        assert track.split_count == splits


@st.composite
def sweep_cases(draw):
    """A ``dp_cases`` problem, with or without a penalty, and an increasing
    schedule spread over two decades, so that it often crosses the
    smallest budget that admits a path."""
    problem, cfg, penalty, _ = draw(dp_cases())
    if draw(st.booleans()):
        cfg = replace(cfg, penalty=penalty)
    exponents = draw(st.lists(st.integers(-8, 8), min_size=2, max_size=5, unique=True))
    return problem, cfg, np.array(sorted(2.0 ** (k / 4) for k in exponents))


class TestSweepsAgainstPerEntrySolves:
    @settings(max_examples=40, deadline=None)
    @given(sweep_cases())
    def test_value_sweep_equals_one_budget_dp_per_entry(self, case):
        problem, cfg, schedule = case
        if dense_setup(problem, cfg) is None:
            with pytest.raises(InfeasibleError):
                value_sweep(problem, cfg, schedule)
            return
        report = value_sweep(problem, cfg, schedule)
        tab = _tables(problem, cfg)
        assert report.values == [_dp(tab, cfg, float(b), want_path=False)[0] for b in schedule]
        for budget, value in zip(schedule, report.values):
            reference = dense_reference_budget(problem, cfg, budget)
            assert value == (None if reference is None else reference[0])

    @settings(max_examples=40, deadline=None)
    @given(sweep_cases())
    def test_lagrangian_sweep_equals_one_solve_per_multiplier(self, case):
        problem, cfg, schedule = case
        if dense_reference_dp(problem, cfg) is None:
            with pytest.raises(InfeasibleError):
                lagrangian_sweep(problem, cfg, schedule)
            return
        report = lagrangian_sweep(problem, cfg, schedule)
        multipliers = np.concatenate([[0.0], 2.0 ** np.arange(-6.0, 7.0)])
        minima = []
        for rate in multipliers:
            traj = nagumo_penalized_solve(problem, replace(cfg, penalty=float(rate)))
            minima.append(traj.value + float(rate) * traj.theta_value)
        duals = np.array(minima)[:, None] - multipliers[:, None] * schedule[None, :]
        assert report.values == [float(v) for v in duals.max(axis=0)]

    @pytest.mark.parametrize(
        "column, broken, error",
        [
            # a DP value 1e-6 off its path's recomputed cost
            (0, lambda value, idx, qidx: (value + 1e-6, idx, qidx), CertificateError),
            (13, lambda value, idx, qidx: (value - 1e-6, idx, qidx), CertificateError),
            # a column whose end node is unreachable
            (6, lambda value, idx, qidx: (None, None, None), InfeasibleError),
        ],
    )
    def test_lagrangian_sweep_checks_every_column(self, monkeypatch, column, broken, error):
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        problem, cfg = loaded.problem, replace(loaded.config, n_t=16, n_x=17)
        schedule = np.linspace(0.25, 4.0, 16)
        lagrangian_sweep(problem, cfg, schedule)
        kernel = solve._dp

        def perturbed(*args, **kwargs):
            results = kernel(*args, **kwargs)
            results[column] = broken(*results[column])
            return results

        monkeypatch.setattr(solve, "_dp", perturbed)
        with pytest.raises(error):
            lagrangian_sweep(problem, cfg, schedule)

    @settings(max_examples=60, deadline=None)
    @given(dp_cases(), st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=16), st.integers(2, 256))
    def test_units_of_a_schedule_are_the_one_budget_rows(self, case, schedule, levels):
        # value_sweep takes every entry's units in one pass; each row must
        # have the bits of the one-budget call that _dp makes
        problem, cfg, _, _ = case
        cfg = replace(cfg, budget_levels=levels)
        try:
            tab = _tables(problem, cfg)
        except InfeasibleError:  # the cap admits fewer than two quotients
            return
        batch = solve._units(tab, cfg, np.array(schedule))
        assert batch.shape == (len(schedule), tab.disc.grid.size)
        for row, budget in zip(batch, schedule):
            one = solve._units(tab, cfg, budget)
            assert row.dtype == one.dtype and row.tobytes() == one.tobytes()

    def test_fewest_units_decide_feasibility(self):
        # the README sweep: no 256-step path fits 64 levels of l = 4
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        assert fewest_budget_units(loaded.problem, loaded.config, 4.0) == 255.0
        cfg = DPConfig(n_t=16, n_x=17, theta=THETA)
        for budget in np.linspace(0.2, 2.0, 8):
            reference = dense_reference_budget(QUADRATIC, cfg, budget)
            fits = fewest_budget_units(QUADRATIC, cfg, budget) <= cfg.budget_levels
            assert fits == (reference is not None)


@st.composite
def floor_cases(draw):
    """A ``dp_cases`` problem under either Nagumo entry, its endpoints
    possibly swapped, with the units rows of a schedule over three decades."""
    problem, cfg, _, _ = draw(dp_cases())
    if draw(st.booleans()):
        problem = replace(problem, start=problem.end, end=problem.start)
    theta = draw(st.sampled_from([THETA, nagumo_function("exp_minus_linear")]))
    cfg = replace(cfg, theta=theta)
    exponents = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=6, unique=True))
    return problem, cfg, np.array(sorted(2.0 ** (k / 4) for k in exponents))


class TestUnitFloor:
    """Jensen's bound on a units row never exceeds the fewest units of any
    grid path, the one-column DP's exact count."""

    @settings(max_examples=80, deadline=None)
    @given(floor_cases())
    # 0 and 0.25 inserted off the uniform grid, a above b
    @example((
        replace(QUADRATIC, start=0.25, end=0.0, state_box=(-0.5, 0.5)),
        DPConfig(n_t=4, n_x=6, theta=THETA, budget_levels=8),
        np.array([0.05, 0.3, 1.0, 5.0]),
    ))
    def test_floor_is_below_the_fewest_units(self, case):
        problem, cfg, schedule = case
        try:
            tab = _tables(problem, cfg)
            tab.disc.transitions
        except InfeasibleError:  # fewer than two quotients, or nodes too close
            return
        units = solve._units(tab, cfg, schedule)
        floors = solve._unit_floor(tab, cfg, units)
        fewest = [solve._fewest_units(tab, cfg, row) for row in units]
        assert np.all(floors <= fewest), (floors, fewest)

    def test_floor_of_the_readme_sweep_clears_the_levels(self):
        # 256 steps of at least one unit each where 64 levels are allowed
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        tab = _tables(loaded.problem, loaded.config)
        units = solve._units(tab, loaded.config, np.linspace(0.25, 4.0, 16))
        floors = solve._unit_floor(tab, loaded.config, units)
        assert np.all(floors > loaded.config.budget_levels)
        assert floors[-1] == pytest.approx(255.0, abs=1e-6)

    def test_no_path_reaches_an_end_beyond_the_quotient_grid(self):
        # (b - a)/T = 1.25 is below the cap, but the quotients are -1, 0 and 1
        problem = replace(QUADRATIC, end=1.25, state_box=(0.0, 1.25), velocity_cap=1.5)
        cfg = DPConfig(n_t=4, n_x=6, theta=THETA)
        tab = _tables(problem, cfg)
        units = solve._units(tab, cfg, np.array([1.0, 100.0]))
        assert np.all(solve._unit_floor(tab, cfg, units) == np.inf)
        with pytest.raises(InfeasibleError, match="no admissible grid path"):
            solve_relaxed(problem, cfg)

    def test_sweep_raises_the_set_up_error_the_dp_raises_first(self, monkeypatch):
        # both set-up checks fail; the DP reads the transitions first
        def failing(name):
            def read(disc):
                raise InfeasibleError(name)

            return property(read)

        monkeypatch.setattr(Discretization, "transitions", failing("transitions"))
        monkeypatch.setattr(Discretization, "endpoints", failing("endpoints"))
        cfg = DPConfig(n_t=4, n_x=6, theta=THETA)
        for run in (
            lambda: solve_relaxed(QUADRATIC, cfg),
            lambda: value_sweep(QUADRATIC, cfg, np.array([1.0, 100.0])),
        ):
            with pytest.raises(InfeasibleError, match="^transitions$"):
                run()


class TestSweepBudgetDPCount:
    """value_sweep runs a budget DP only where its exact checks leave the
    value open."""

    @staticmethod
    def dp_budgets(monkeypatch, problem, cfg, schedule):
        """The budget of each ``_dp`` call of a value_sweep, None for a DP
        without one."""
        calls = []
        kernel = solve._dp

        def counted(tab, cfg, budget, want_path):
            calls.append(budget)
            return kernel(tab, cfg, budget, want_path)

        monkeypatch.setattr(solve, "_dp", counted)
        value_sweep(problem, cfg, schedule)
        return calls

    @classmethod
    def budget_dps(cls, monkeypatch, problem, cfg, schedule):
        return sum(b is not None for b in cls.dp_budgets(monkeypatch, problem, cfg, schedule))

    @pytest.mark.parametrize("n_t", [64, 128])
    def test_budget_sweep_grid_runs_only_the_plain_dp(self, monkeypatch, n_t):
        # Jensen's bound excludes the infeasible entries, so no fewest-units DP
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        cfg = replace(loaded.config, n_t=n_t, n_x=129, budget_levels=128)
        schedule = np.linspace(0.25, 4.0, 16)
        assert self.dp_budgets(monkeypatch, loaded.problem, cfg, schedule) == [None]

    def test_readme_sweep_runs_no_dp(self, monkeypatch):
        # Jensen's bound excludes all 16 entries: 255 units > 64 at l = 4
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        schedule = np.linspace(0.25, 4.0, 16)
        assert self.dp_budgets(monkeypatch, loaded.problem, loaded.config, schedule) == []

    def test_budget_sweep_grid_needs_no_budget_dp(self, monkeypatch):
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        cfg = replace(loaded.config, n_t=64, n_x=129, budget_levels=128)
        schedule = np.linspace(0.25, 4.0, 16)
        assert self.budget_dps(monkeypatch, loaded.problem, cfg, schedule) == 0

    def test_readme_sweep_needs_no_budget_dp(self, monkeypatch):
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        schedule = np.linspace(0.25, 4.0, 16)
        assert self.budget_dps(monkeypatch, loaded.problem, loaded.config, schedule) == 0

    def test_unsettled_sweep_runs_budget_dps(self, monkeypatch):
        # 64 levels at 128 steps never admit the plain minimizer
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        cfg = replace(loaded.config, n_t=128, n_x=129)
        schedule = np.linspace(0.25, 4.0, 16)
        assert self.budget_dps(monkeypatch, loaded.problem, cfg, schedule) > 0
