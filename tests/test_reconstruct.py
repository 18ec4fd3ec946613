"""Velocity splitting and bang-bang reassembly.

The double well is the workhorse: its envelope is flat on [-1, 1] with
support points exactly at the wells, so splittings, costs, and orderings
all have closed forms.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rearrange_reference import order_costs, rearrange_reference
from varelax import cli, reconstruct
from varelax.catalog import nagumo_function, state_function, time_factor, velocity_function
from varelax.convex import CaratheodoryDecomposition
from varelax.discretize import Discretization
from varelax.errors import InfeasibleError
from varelax.families import IntegrandFamily
from varelax.problem import DPConfig, Problem, Trajectory, path_sums, running_sum
from varelax.reconstruct import compare_costs, decompose_velocities, rearrange
from varelax.solve import solve_relaxed


def make_problem(f_name, f_params=None, g_name="zero", g_params=None, **kw):
    defaults = dict(horizon=1.0, start=0.0, end=0.0, state_box=(-0.5, 0.5), velocity_cap=2.0)
    defaults.update(kw)
    return Problem(
        f=IntegrandFamily(base=velocity_function(f_name, f_params)),
        g=IntegrandFamily(base=state_function(g_name, g_params)),
        **defaults,
    )


PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
DOUBLE_WELL = make_problem("double_well")
CLIPPED_CONCAVE = make_problem(
    "double_well",
    g_name="concave_quadratic",
    g_params={"kappa": 0.25},
    state_box=(-0.25, 0.25),
)
QUADRATIC = make_problem(
    "power_p", {"p": 2.0}, start=0.0, end=1.0, state_box=(0.0, 1.0)
)


def count_batches(monkeypatch):
    """The row count of each ``CaratheodoryDecomposition`` built from now on."""
    built = []
    check = CaratheodoryDecomposition.__post_init__

    def counted(self):
        check(self)
        built.append(self.support.size)

    monkeypatch.setattr(CaratheodoryDecomposition, "__post_init__", counted)
    return built


def resting_trajectory(n):
    """The zero-velocity relaxed minimizer of the double well."""
    times = np.linspace(0.0, 1.0, n + 1)
    return Trajectory(
        times=times,
        states=np.zeros(n + 1),
        velocities=np.zeros(n),
        value=0.0,
        f_cost=0.0,
        g_cost=0.0,
    )


class TestDecomposeVelocities:
    def test_flat_edge_splits_half_half(self):
        cfg = DPConfig(n_t=16, n_x=17)
        track = decompose_velocities(DOUBLE_WELL, resting_trajectory(16), cfg)
        assert track.split_count == 16
        for weights, points, k in zip(track.weights, track.points, track.support):
            np.testing.assert_array_equal(weights[:k], [0.5, 0.5])
            np.testing.assert_array_equal(points[:k], [-1.0, 1.0])
        assert track.support_radius == 1.0

    def test_strictly_convex_all_trivial(self):
        cfg = DPConfig(n_t=16, n_x=16)
        traj = solve_relaxed(QUADRATIC, cfg)
        track = decompose_velocities(QUADRATIC, traj, cfg)
        assert track.split_count == 0

    def test_mixed_track(self):
        cfg = DPConfig(n_t=64, n_x=33)
        traj = solve_relaxed(CLIPPED_CONCAVE, cfg)
        track = decompose_velocities(CLIPPED_CONCAVE, traj, cfg)
        trivial = int(np.count_nonzero(track.support == 1))
        assert 0 < trivial < track.support.size
        assert 0 < track.split_count < track.support.size

    def test_support_radius_grid_independent(self):
        radii = []
        for n_t, n_x in ((64, 33), (128, 65)):
            cfg = DPConfig(n_t=n_t, n_x=n_x)
            traj = solve_relaxed(CLIPPED_CONCAVE, cfg)
            radii.append(decompose_velocities(CLIPPED_CONCAVE, traj, cfg).support_radius)
        assert radii[0] == radii[1] == 1.0


    def test_library_path_builds_one_batch(self, monkeypatch):
        cfg = DPConfig(n_t=64, n_x=33)
        traj = solve_relaxed(CLIPPED_CONCAVE, cfg)
        built = count_batches(monkeypatch)
        track = decompose_velocities(CLIPPED_CONCAVE, traj, cfg)
        rec = rearrange(CLIPPED_CONCAVE, traj, track)
        assert built == [traj.velocities.size]
        assert 0 < track.split_count < traj.velocities.size
        assert track.support_radius == 1.0 and rec.f_cost >= 0.0

    def test_decompose_command_builds_one_batch(self, monkeypatch, tmp_path):
        built = count_batches(monkeypatch)
        traj = tmp_path / "traj.csv"
        assert cli.main(["relax", str(PROBLEMS / "doublewell.json"), "--out", str(traj)]) == 0
        built.clear()
        out = tmp_path / "decomposition.json"
        argv = ["decompose", str(PROBLEMS / "doublewell.json"), "--traj", str(traj)]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert built == [128]


class TestRearrange:
    def test_double_well_sawtooth(self):
        cfg = DPConfig(n_t=16, n_x=17)
        traj = resting_trajectory(16)
        track = decompose_velocities(DOUBLE_WELL, traj, cfg)
        rec = rearrange(DOUBLE_WELL, traj, track)
        assert set(np.unique(rec.velocities)) == {-1.0, 1.0}
        assert rec.states[0] == 0.0 and rec.states[-1] == 0.0
        assert rec.f_cost == 0.0
        # original nodes are preserved exactly
        node_states = rec.states[np.isin(rec.times, traj.times)]
        np.testing.assert_array_equal(node_states, 0.0)

    def test_trivial_track_is_identity(self):
        cfg = DPConfig(n_t=16, n_x=16)
        traj = solve_relaxed(QUADRATIC, cfg)
        track = decompose_velocities(QUADRATIC, traj, cfg)
        rec = rearrange(QUADRATIC, traj, track)
        np.testing.assert_array_equal(rec.times, traj.times)
        np.testing.assert_array_equal(rec.states, traj.states)
        np.testing.assert_array_equal(rec.velocities, traj.velocities)
        assert rec.f_cost == traj.f_cost
        assert rec.g_cost == traj.g_cost

    def test_mean_preservation_at_nodes(self):
        cfg = DPConfig(n_t=64, n_x=33)
        traj = solve_relaxed(CLIPPED_CONCAVE, cfg)
        track = decompose_velocities(CLIPPED_CONCAVE, traj, cfg)
        rec = rearrange(CLIPPED_CONCAVE, traj, track)
        for t, x in zip(traj.times, traj.states):
            hits = np.flatnonzero(rec.times == t)
            assert hits.size >= 1
            assert rec.states[hits[0]] == x

    def test_f_cost_identity(self):
        cfg = DPConfig(n_t=64, n_x=33)
        traj = solve_relaxed(CLIPPED_CONCAVE, cfg)
        track = decompose_velocities(CLIPPED_CONCAVE, traj, cfg)
        rec = rearrange(CLIPPED_CONCAVE, traj, track)
        assert abs(rec.f_cost - traj.f_cost) <= 64 * 1e-9

    def test_ordering_prefers_larger_excursion(self):
        # the concave state cost rewards the outward branch: inside the box
        # a resting path at x = 0.1 moves away from zero first
        cfg = DPConfig(n_t=16, n_x=17)
        resting = resting_trajectory(16)
        resting.states = resting.states + 0.1
        track = decompose_velocities(CLIPPED_CONCAVE, resting, cfg)
        rec = rearrange(CLIPPED_CONCAVE, resting, track)
        assert np.all(track.support == 2) and np.all(rec.velocities[::2] == 1.0)
        assert rec.g_cost < float(CLIPPED_CONCAVE.g.value(0.0, 0.1))
        # on the plateau at the box edge the outward branch leaves the box,
        # so every split interval there moves inward first
        cfg = DPConfig(n_t=64, n_x=33)
        traj = solve_relaxed(CLIPPED_CONCAVE, cfg)
        track = decompose_velocities(CLIPPED_CONCAVE, traj, cfg)
        rec = rearrange(CLIPPED_CONCAVE, traj, track)
        assert np.all((rec.states >= -0.25) & (rec.states <= 0.25))
        assert compare_costs(CLIPPED_CONCAVE, traj, rec).passed
        cursor = 0
        for i, support in enumerate(track.support):
            n_pieces = 1 if support == 1 else 2
            if support != 1:
                x_here = traj.states[i]
                first_q = rec.velocities[cursor]
                assert abs(x_here) == 0.25 and np.sign(first_q) == -np.sign(x_here)
            cursor += n_pieces
        assert cursor == rec.velocities.size


STATE_SHAPES = (
    ("zero", None),
    ("affine", {"slope": -0.7, "offset": 0.1}),
    ("concave_quadratic", {"kappa": 0.5}),
    ("table", {"grid": [-0.5, 0.0, 0.2, 0.5], "values": [0.3, -0.1, 0.05, -0.4]}),
)
TIME_FACTORS = (
    ("const", {"value": -1.3}),
    ("affine_t", {"slope": 2.0, "offset": -0.5}),
    ("sine", {"amplitude": 0.5, "frequency": 3.0}),
)


@st.composite
def state_families(draw):
    """g = base(x) + factor(t) * modulation(x) over the catalog's state
    shapes and time factors, time-varying unless the factor is const."""
    base, modulation = (draw(st.sampled_from(STATE_SHAPES)) for _ in range(2))
    return IntegrandFamily(
        base=state_function(*base),
        modulation=state_function(*modulation),
        factor=time_factor(*draw(st.sampled_from(TIME_FACTORS))),
    )


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestRearrangeAgainstTheLoop:
    """``rearrange`` scores and lays out every interval at once; the
    interval loop it replaced is the oracle, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        g=state_families(),
        f=st.sampled_from([("double_well", None), ("linear_minus_sqrt", None)]),
        ends=st.sampled_from([(0.0, 0.0), (-0.5, 0.5), (0.0, 0.25), (0.2, -0.3)]),
        cap=st.sampled_from([1.5, 2.0, 4.0]),
        n_t=st.integers(2, 16),
        n_x=st.integers(3, 33),
        tie=st.one_of(st.none(), st.tuples(st.integers(0, 1000), st.integers(-1, 1))),
    )
    def test_matches_the_interval_loop(self, g, f, ends, cap, n_t, n_x, tie):
        problem = Problem(
            horizon=1.0,
            start=ends[0],
            end=ends[1],
            f=IntegrandFamily(base=velocity_function(*f)),
            g=g,
            state_box=(-0.5, 0.5),
            velocity_cap=cap,
        )
        cfg = DPConfig(n_t=n_t, n_x=n_x)
        try:
            traj = solve_relaxed(problem, cfg)
        except InfeasibleError:
            assume(False)
        track = decompose_velocities(problem, traj, cfg)
        split = np.flatnonzero(track.support == 2)
        with pytest.MonkeyPatch.context() as monkeypatch:
            try:
                if tie is not None and split.size:
                    # the tolerance at one split interval's own cost gap, or
                    # one ulp either side of it: that interval's order is a
                    # near tie
                    i = int(split[tie[0] % split.size])
                    forward, swapped = order_costs(
                        problem, *(a[i].tolist() for a in (track.weights, track.points)),
                        float(traj.times[i]), float(traj.states[i]), traj.step,
                    )
                    tol = forward - swapped
                    if tie[1]:
                        tol = np.nextafter(tol, tie[1] * np.inf)
                    if np.isfinite(tol):  # a tie needs both orders inside the box
                        monkeypatch.setattr(reconstruct, "ORDER_TIE_TOL", float(tol))
                want = rearrange_reference(problem, traj, track)
            except InfeasibleError:
                # both orders of a splitting leave the box
                with pytest.raises(InfeasibleError):
                    rearrange(problem, traj, track)
                return
            got = rearrange(problem, traj, track)
        assert np.all((got.states >= -0.5) & (got.states <= 0.5))
        for name in ("times", "states", "velocities", "piece"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert same_bits(got.f_cost, want.f_cost) and same_bits(got.g_cost, want.g_cost)

    @settings(max_examples=40, deadline=None)
    @given(
        g=state_families(),
        times=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12),
        xs=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=12),
    )
    def test_value_on_times_keeps_the_scalar_bits(self, g, times, xs):
        times, xs = np.array(times), np.array(xs)
        pairs = min(times.size, xs.size)
        scalar = [float(g.value(float(t), float(x))) for t, x in zip(times, xs)]
        assert same_bits(g.value(times[:pairs], xs[:pairs]), scalar[:pairs])
        rows = np.stack([g.value(float(t), xs) for t in times])
        assert same_bits(g.value(times[:, None], xs), rows)

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.one_of(
            state_families(),
            st.sampled_from(STATE_SHAPES).map(lambda s: IntegrandFamily(state_function(*s))),
        ),
        times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        xs=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=12),
    )
    def test_path_costs_take_g_with_the_scalar_bits(self, g, times, xs):
        # path_costs takes g in one call on the interval arrays; its bits
        # are those of one scalar call per interval
        n = min(len(times), len(xs))
        times, xs = np.array(times[:n]), np.array(xs[:n])
        disc = Discretization.of(replace(DOUBLE_WELL, g=g), DPConfig(n_t=4, n_x=5))
        g_values = disc.path_costs(times, xs, np.zeros(n))[3]
        assert same_bits(g_values, [float(g.value(float(t), x)) for t, x in zip(times, xs)])


class TestCompareCosts:
    def test_zero_state_cost_gaps_vanish(self):
        cfg = DPConfig(n_t=16, n_x=17)
        traj = resting_trajectory(16)
        track = decompose_velocities(DOUBLE_WELL, traj, cfg)
        rec = rearrange(DOUBLE_WELL, traj, track)
        cmp = compare_costs(DOUBLE_WELL, traj, rec)
        assert cmp.g_gap == 0.0
        assert abs(cmp.total_gap) <= cmp.f_tolerance
        assert cmp.passed

    def test_identity_reconstruction_all_zero(self):
        cfg = DPConfig(n_t=16, n_x=16)
        traj = solve_relaxed(QUADRATIC, cfg)
        rec = rearrange(QUADRATIC, traj, decompose_velocities(QUADRATIC, traj, cfg))
        cmp = compare_costs(QUADRATIC, traj, rec)
        assert cmp.f_gap == 0.0
        assert cmp.g_gap == 0.0
        assert cmp.total_gap == 0.0
        assert cmp.passed

    def test_concave_gap_shrinks_with_step(self):
        gaps = []
        for n_t, n_x in ((128, 65), (256, 129)):
            cfg = DPConfig(n_t=n_t, n_x=n_x)
            traj = solve_relaxed(CLIPPED_CONCAVE, cfg)
            track = decompose_velocities(CLIPPED_CONCAVE, traj, cfg)
            rec = rearrange(CLIPPED_CONCAVE, traj, track)
            cmp = compare_costs(CLIPPED_CONCAVE, traj, rec)
            assert cmp.passed
            # the box-bound reconstruction pays a step-sized gap, well
            # inside the tolerance
            assert abs(cmp.total_gap) <= 0.25 * cmp.tolerance
            gaps.append(abs(cmp.total_gap))
        assert gaps[1] <= 0.7 * gaps[0]
        assert gaps[1] > 0.0

    def test_verdict_follows_a_replaced_tolerance(self):
        # a reconstruction whose state cost exceeds the relaxed one by 0.01
        cfg = DPConfig(n_t=16, n_x=17)
        traj = solve_relaxed(CLIPPED_CONCAVE, cfg)
        rec = rearrange(CLIPPED_CONCAVE, traj, decompose_velocities(CLIPPED_CONCAVE, traj, cfg))
        cmp = compare_costs(CLIPPED_CONCAVE, traj, replace(rec, g_cost=traj.g_cost + 0.01))
        assert cmp.f_tolerance > 0.0 and cmp.total_gap > 0.0
        edge = cmp.total_gap - cmp.f_tolerance  # the smallest tolerance that passes
        verdicts = []
        for tol in (0.0, cmp.tolerance, 0.5 * edge, edge - 1e-9, edge + 1e-9, 0.02):
            got = replace(cmp, tolerance=tol)
            assert got.tolerance == tol
            assert got.passed == (
                abs(cmp.f_gap) <= cmp.f_tolerance
                and cmp.total_reconstructed <= cmp.total_relaxed + tol + cmp.f_tolerance
            )
            verdicts.append(got.passed)
        assert verdicts == [False, False, False, False, True, True]


def in_box_problem(g, **kw):
    """The double well with state cost ``g`` on the box [-0.5, 0.5]."""
    defaults = dict(horizon=1.0, start=-0.5, end=0.5, state_box=(-0.5, 0.5), velocity_cap=1.5)
    return Problem(
        f=IntegrandFamily(base=velocity_function("double_well")),
        g=IntegrandFamily(base=g),
        **{**defaults, **kw},
    )


class TestRearrangeStaysInTheBox:
    """Of the two orders of a splitting only those whose turning point lies
    in the state box are admissible."""

    def reconstruct(self, problem, cfg):
        traj = solve_relaxed(problem, cfg)
        rec = rearrange(problem, traj, decompose_velocities(problem, traj, cfg))
        lo, hi = problem.state_box
        assert np.all((rec.states >= lo) & (rec.states <= hi))
        assert compare_costs(problem, traj, rec).passed
        return rec

    def test_concave_g_at_the_edge(self):
        # the cheaper order leaves through the lower edge, to -0.6
        problem = in_box_problem(state_function("concave_quadratic", {"kappa": 0.5}))
        rec = self.reconstruct(problem, DPConfig(n_t=3, n_x=6))
        assert rec.states.min() == -0.5

    def test_table_g_is_never_read_outside_its_grid(self):
        # g defined on the box only: scoring the outward order at the edge
        # raised OutOfDomainError.  First -1.3 times the catalog table of
        # STATE_SHAPES at 2 x 19, then a tent over 0 with both ends at -0.5
        table = state_function(*STATE_SHAPES[3])
        problem = replace(
            in_box_problem(state_function("zero")),
            g=IntegrandFamily(state_function("zero"), table, time_factor("const", {"value": -1.3})),
        )
        assert self.reconstruct(problem, DPConfig(n_t=2, n_x=19)).states.min() == -0.5
        tent = state_function("table", {"grid": [-0.5, 0.0, 0.5], "values": [-0.125, 0.0, -0.125]})
        for n_t, n_x in ((3, 6), (8, 9), (16, 17)):
            problem = in_box_problem(tent, end=-0.5)
            assert self.reconstruct(problem, DPConfig(n_t=n_t, n_x=n_x)).states.min() == -0.5

    def test_both_orders_leave_is_infeasible(self):
        # a splitting of 0 over -2 and 2 at step 1 turns at -1 or at 1, both
        # outside the box of width 1; the DP's quotients never reach that
        # far, since a quotient times the step is at most the box width
        problem = in_box_problem(state_function("zero"), start=0.0, end=0.0, horizon=2.0)
        traj = resting_trajectory(2)
        traj.times = np.linspace(0.0, 2.0, 3)
        rows = np.array([[0.5, 0.5], [1.0, 0.0]]), np.array([[-2.0, 2.0], [0.0, 0.0]])
        values = problem.f.value(0.0, rows[1])
        track = CaratheodoryDecomposition(
            *rows, values, np.array([2, 1]), np.zeros(2), np.sum(rows[0] * values, axis=1)
        )
        with pytest.raises(InfeasibleError, match="both orders of interval 0"):
            rearrange(problem, traj, track)


class TestMergedRulesKeepTheirBits:
    @settings(max_examples=60, deadline=None)
    @given(
        paths=st.integers(1, 6),
        intervals=st.integers(1, 512),
        seed=st.integers(0, 2**32 - 1),
        theta=st.sampled_from([("power_p", {"p": 2.0}), ("exp_minus_linear", None)]),
    )
    def test_batched_path_sums_give_each_row_its_bits(self, paths, intervals, seed, theta):
        # lagrangian_sweep costs its paths as one (paths, intervals) batch;
        # past 128 terms numpy's pairwise sum of the theta values splits
        # into blocks, and mixed magnitudes show any reassociation
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-12, 13, (2, paths, intervals))
        f_values, g_values = rng.uniform(-1.0, 1.0, (2, paths, intervals)) * scales
        velocities = rng.uniform(-4.0, 4.0, (paths, intervals))
        times = np.linspace(0.0, rng.uniform(0.5, 4.0), intervals + 1)
        h, nagumo = float(times[1] - times[0]), nagumo_function(*theta)
        batch = path_sums(times, f_values, g_values, nagumo, velocities)
        assert [b.shape for b in batch] == [(paths,)] * 3
        for row in range(paths):
            # the 1-D rule, as Trajectory.costed applies it
            want = (
                running_sum(h * f_values[row]),
                running_sum(h * g_values[row]),
                float(h * np.sum(nagumo(velocities[row]))),
            )
            single = path_sums(times, f_values[row], g_values[row], nagumo, velocities[row])
            assert all(same_bits(b[row], w) for b, w in zip(batch, want))
            assert all(same_bits(one, w) for one, w in zip(single, want))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1.0, 1.0, allow_nan=False),
                st.sampled_from([1e-300, 1e-16, 1e-8, 1.0, 1e8, 1e16, 1e300]),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_running_sum_is_the_left_to_right_loop(self, draws):
        # mixed magnitudes, and each term's negation after it when drawn:
        # any reassociation of these sums changes their bits
        terms = []
        for mantissa, scale, cancel in draws:
            terms += [mantissa * scale, -mantissa * scale] if cancel else [mantissa * scale]
        total = 0.0
        for term in terms:
            total += term
        assert same_bits(running_sum(np.array(terms)), total)

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.one_of(
            state_families(),
            st.sampled_from(STATE_SHAPES).map(lambda s: IntegrandFamily(state_function(*s))),
        ),
        horizon=st.floats(0.25, 4.0),
    )
    def test_state_lipschitz_reads_the_per_time_loop(self, g, horizon):
        problem = replace(DOUBLE_WELL, g=g, horizon=horizon)
        xs = np.linspace(-0.5, 0.5, reconstruct.LIPSCHITZ_STATES)
        worst = 0.0
        for t in np.linspace(0.0, horizon, reconstruct.LIPSCHITZ_TIMES):
            values = g.value(float(t), xs)
            worst = max(worst, float(np.max(np.abs(np.diff(values) / np.diff(xs)))))
        assert same_bits(reconstruct._state_lipschitz(problem), worst)
