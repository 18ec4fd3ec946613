"""Shared costing of trajectories and the transition table's memory.

f is sampled once per distinct time, and once in total for an autonomous
f, into one envelope table; its costs, subgradients and splittings must
give the bits of the per-envelope reference (``envelope_reference``), and
the hull counts below pin the sharing.
"""

import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import envelope_reference as ref
from offset_table_reference import offset_table_reference
import varelax.convex as convex
import varelax.discretize as discretize
from varelax import cli
from varelax.classify import hypothesis_check
from varelax.conditions import dubois_reymond_residual
from varelax.convex import EnvelopeTable
from varelax.catalog import state_function, time_factor, velocity_function
from varelax.discretize import Discretization, merge_close_velocities, state_grid
from varelax.errors import DegenerateInputError, InfeasibleError, OutOfDomainError
from varelax.families import IntegrandFamily
from varelax.io import emit_trajectory, parse_problem, read_trajectory, to_jsonable
from varelax.problem import DPConfig, Problem, Trajectory
from varelax.reconstruct import compare_costs, decompose_velocities, rearrange
from varelax.solve import coercivity_bound_check, solve_relaxed

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def load(name):
    loaded = parse_problem(PROBLEMS / f"{name}.json")
    return loaded.problem, loaded.config


@pytest.fixture
def hulls(monkeypatch):
    """List that grows by one entry per row the hull kernel runs on."""
    calls = []
    build = convex._hull_vertices

    def counting(xs, ys):
        calls.append(ys)
        return build(xs, ys)

    monkeypatch.setattr(convex, "_hull_vertices", counting)
    return calls


class TestHullCounts:
    def test_autonomous_verify_and_decompose_build_one_envelope(self, hulls):
        # quadratic.json at its shipped 256 intervals: the DP's one envelope
        # serves DR and decompose, which built one each before the
        # trajectory carried it, and 768 and 256 before the sharing
        problem, cfg = load("quadratic")
        hulls.clear()
        traj = solve_relaxed(problem, cfg)
        assert len(hulls) == 1
        hulls.clear()
        dubois_reymond_residual(problem, traj, cfg)
        assert len(hulls) == 0
        decompose_velocities(problem, traj, cfg)
        assert len(hulls) == 0

    def test_read_trajectory_builds_one_envelope_for_autonomous_f(self, hulls, tmp_path):
        problem, cfg = load("doublewell")
        emit_trajectory(solve_relaxed(problem, cfg), tmp_path / "traj.csv")
        hulls.clear()
        read_trajectory(tmp_path / "traj.csv", problem, cfg)
        assert len(hulls) == 1

    def test_time_varying_dr_builds_one_envelope_per_distinct_time(self, hulls):
        problem, cfg = load("doublewell_timevarying")
        assert not problem.f.autonomous
        hulls.clear()
        traj = solve_relaxed(problem, cfg)
        # the DP's envelopes at the interval times only, which DR reads from
        # the trajectory: it built them again, and t -+ delta once added
        # 2 * n_t - 1 rows
        assert len(hulls) == cfg.n_t
        hulls.clear()
        dubois_reymond_residual(problem, traj, cfg)
        assert len(hulls) == 0

    def test_coercivity_builds_no_transition_band(self, hulls, monkeypatch):
        problem, cfg = load("quadratic")
        traj = solve_relaxed(problem, cfg)
        hypotheses = hypothesis_check(problem)

        def forbidden(*args):
            raise AssertionError("coercivity rebuilt the offset table")

        monkeypatch.setattr(discretize, "offset_table", forbidden)
        hulls.clear()
        report = coercivity_bound_check(problem, traj, hypotheses, cfg)
        # the reference path is costed from the DP's envelope, which it
        # built again before the trajectory carried it
        assert len(hulls) == 0
        assert report.reference_ok


@pytest.fixture
def tables(monkeypatch):
    """List that grows by each ``EnvelopeTable.of`` call's row count."""
    calls = []
    build = EnvelopeTable.of.__func__

    def counting(cls, grid, values):
        calls.append(len(values))
        return build(cls, grid, values)

    monkeypatch.setattr(EnvelopeTable, "of", classmethod(counting))
    return calls


@pytest.fixture
def discretizations(monkeypatch):
    """List that grows by one entry per ``Discretization.of`` call."""
    calls = []
    build = Discretization.of.__func__

    def counting(cls, problem, cfg):
        calls.append((problem, cfg))
        return build(cls, problem, cfg)

    monkeypatch.setattr(Discretization, "of", classmethod(counting))
    return calls


def bare(traj):
    """``traj`` without the ``Discretization`` that costed it."""
    return Trajectory(
        traj.times, traj.states, traj.velocities, traj.value, traj.f_cost, traj.g_cost,
        traj.theta_value, traj.warnings,
    )


def stages(problem, traj, cfg):
    """The arrays and numbers of DR, decompose and the coercivity check."""
    dr = dubois_reymond_residual(problem, traj, cfg)
    dec = decompose_velocities(problem, traj, cfg)
    coercivity = coercivity_bound_check(problem, traj, hypothesis_check(problem), cfg)
    return [to_jsonable(dr), dec.report(), to_jsonable(dec), to_jsonable(coercivity)]


class TestCarriedTable:
    """A trajectory carries the ``Discretization`` that costed it, and the
    stages after it reuse its tables only for the same problem, grid and
    interval times."""

    @pytest.fixture(scope="class")
    def solved(self):
        problem, cfg = load("doublewell_timevarying")
        cfg = replace(cfg, n_t=24, n_x=25)
        return problem, cfg, solve_relaxed(problem, cfg)

    @pytest.mark.parametrize("rule", ["starts", "midpoints"])
    def test_reuse_gives_the_bits_of_a_fresh_build(
        self, solved, hulls, monkeypatch, tmp_path, rule
    ):
        problem, cfg, traj = solved
        if rule == "midpoints":
            # another interval sample time moves the DP and every stage after it
            midpoints = staticmethod(lambda times: (times[:-1] + times[1:]) / 2.0)
            monkeypatch.setattr(Discretization, "interval_times", midpoints)
            traj = solve_relaxed(problem, cfg)
        fresh = stages(problem, bare(traj), cfg)
        hulls.clear()
        assert stages(problem, traj, cfg) == fresh
        # the certificates' own envelopes only
        hulls.clear()
        hypothesis_check(problem)
        certificates = len(hulls)
        hulls.clear()
        stages(problem, traj, cfg)
        assert len(hulls) == certificates
        if rule == "midpoints":
            track = decompose_velocities(problem, traj, cfg)
            assert compare_costs(problem, traj, rearrange(problem, traj, track)).f_gap == 0.0
            emit_trajectory(traj, tmp_path / "traj.csv")
            read = read_trajectory(tmp_path / "traj.csv", problem, cfg)
            assert (read.value, read.f_cost) == (traj.value, traj.f_cost)

    def test_one_fine_grid_pipeline_builds_one_discretization(self, discretizations, tmp_path):
        # fine-grid's doublewell op, then the coercivity check: the stages
        # after the DP reuse its discretization, as they do a CSV read's
        problem, cfg = load("doublewell")
        cfg = replace(cfg, n_t=256, n_x=512)
        traj = solve_relaxed(problem, cfg)
        dubois_reymond_residual(problem, traj, cfg)
        track = decompose_velocities(problem, traj, cfg)
        compare_costs(problem, traj, rearrange(problem, traj, track))
        coercivity_bound_check(problem, traj, hypothesis_check(problem), cfg)
        assert len(discretizations) == 1
        emit_trajectory(traj, tmp_path / "traj.csv")
        discretizations.clear()
        read = read_trajectory(tmp_path / "traj.csv", problem, cfg)
        dubois_reymond_residual(problem, read, cfg)
        decompose_velocities(problem, read, cfg)
        assert len(discretizations) == 1

    @pytest.mark.parametrize("change", ["n_x", "n_t", "f"])
    def test_not_reused_for_another_grid_or_f(self, solved, hulls, change):
        problem, cfg, traj = solved
        if change == "f":
            problem = replace(problem, f=replace(problem.f))  # equal, not the same
        else:
            cfg = replace(cfg, **{change: getattr(cfg, change) + 8})
        fresh = stages(problem, bare(traj), cfg)
        hulls.clear()
        assert stages(problem, traj, cfg) == fresh
        rebuilt = len(hulls)
        hulls.clear()
        stages(problem, bare(traj), cfg)
        assert rebuilt == len(hulls)

    def test_not_reused_for_other_times(self, solved, hulls, tmp_path):
        # a resting path on 16 intervals, read under the 24 of cfg: its
        # velocities are on cfg's grid, and the coercivity reference path
        # runs on cfg's times, not on the path's
        problem, cfg, _ = solved
        times = np.linspace(0.0, problem.horizon, 17)
        rest = Trajectory(times, np.zeros(17), np.zeros(16), 0.0, 0.0, 0.0)
        emit_trajectory(rest, tmp_path / "rest.csv")
        read = read_trajectory(tmp_path / "rest.csv", problem, cfg)
        hypotheses = hypothesis_check(problem)
        fresh = coercivity_bound_check(problem, bare(read), hypotheses, cfg)
        hulls.clear()
        got = coercivity_bound_check(problem, read, hypotheses, cfg)
        assert len(hulls) == cfg.n_t
        assert to_jsonable(got) == to_jsonable(fresh)

    def test_reports_repr_and_equality_do_not_see_it(self, solved, tmp_path):
        problem, cfg, traj = solved
        emit_trajectory(traj, tmp_path / "traj.csv")
        read = read_trajectory(tmp_path / "traj.csv", problem, cfg)
        for path in (traj, read):
            assert path.discretization is not None
            plain = bare(path)
            assert to_jsonable(path) == to_jsonable(plain)
            assert sorted(to_jsonable(path)) == sorted(f.name for f in fields(Trajectory))
            assert repr(path) == repr(plain)
            assert path != plain and path == path

    def test_read_trajectory_carries_its_table(self, solved, tables, tmp_path):
        # the DP's path, and one with off-grid velocities: DR and decompose
        # reuse the one extension of the read
        problem, cfg, traj = solved
        nudge = np.r_[0.0, 1e-3 * np.sin(np.arange(1, cfg.n_t)), 0.0]
        states = np.clip(traj.states + nudge, *problem.state_box)
        off_grid = Trajectory(traj.times, states, np.diff(states) / traj.step, 0.0, 0.0, 0.0)
        for path in (traj, off_grid):
            emit_trajectory(path, tmp_path / "traj.csv")
            tables.clear()
            read = read_trajectory(tmp_path / "traj.csv", problem, cfg)
            dubois_reymond_residual(problem, read, cfg)
            decompose_velocities(problem, read, cfg)
            assert tables == [cfg.n_t]


class TestKeptTables:
    """A ``Discretization`` keeps f's envelope table of each set of time bits
    and one extension of each extended grid."""

    def test_equal_time_bits_share_one_table(self, hulls):
        problem, cfg = load("doublewell_timevarying")
        disc = Discretization.of(problem, cfg)
        times = disc.interval_times(disc.times)
        table, rows = disc.envelope_table(times)
        hulls.clear()
        again = disc.envelope_table(times.copy())
        assert again[0] is table and again[1] is rows and hulls == []
        other = disc.envelope_table(times + 1e-3)
        assert other[0] is not table and len(hulls) == cfg.n_t

    def test_extensions(self):
        problem, cfg = load("doublewell")
        traj = solve_relaxed(problem, replace(cfg, n_t=24, n_x=25))
        disc = traj.discretization
        assert disc.extended(traj.velocities) is disc
        off_grid = traj.velocities + 1e-3
        extension = disc.extended(off_grid)
        assert extension is not disc and extension.grid.size > disc.grid.size
        assert disc.extended(off_grid.copy()) is extension
        assert disc.extended(traj.velocities - 1e-3) is not extension


class TestCliTableCounts:
    """Envelope tables and hull rows of one CLI command on
    doublewell_timevarying, certificates included."""

    @pytest.mark.parametrize(
        "command, count, rows",
        [("solve", 25, 328), ("relax", 3, 130), ("verify", 1, 128), ("decompose", 1, 128)],
    )
    def test_counts(self, tables, hulls, tmp_path, command, count, rows):
        # before the trajectory carried its table, 28 and 712, 4 and 258,
        # 2 and 256, and 2 and 256
        src = str(PROBLEMS / "doublewell_timevarying.json")
        csv = str(tmp_path / "relaxed.csv")
        assert cli.main(["relax", src, "--out", csv]) == 0
        argv = [command, src, "--out", str(tmp_path / "out.json")]
        if command == "relax":
            argv[-1] = str(tmp_path / "again.csv")
        if command in ("verify", "decompose"):
            argv += ["--traj", csv]
        tables.clear()
        hulls.clear()
        assert cli.main(argv) == 0
        assert (len(tables), len(hulls)) == (count, rows)


@pytest.fixture
def placements(monkeypatch):
    """Counts that grow by one per velocity location on a table, per checked
    splitting and per merge of velocities into a quotient grid."""
    counts = dict.fromkeys(("locations", "splittings", "merges"), 0)

    def counting(key, build):
        def call(*args):
            counts[key] += 1
            return build(*args)

        return call

    splitting = convex.CaratheodoryDecomposition
    monkeypatch.setattr(EnvelopeTable, "place", counting("locations", EnvelopeTable.place))
    check = counting("splittings", splitting.__post_init__)
    monkeypatch.setattr(splitting, "__post_init__", check)
    merge = counting("merges", discretize.merge_close_velocities)
    monkeypatch.setattr(discretize, "merge_close_velocities", merge)
    return counts


class TestPlacementCounts:
    """Each path is located on its table and split once: the stages after
    the DP read the placement that costed its path."""

    @pytest.mark.parametrize(
        "name, n_t, n_x",
        [
            ("doublewell", 256, 512),
            ("doublewell_timevarying", 384, 385),
            ("doublewell_concave", 512, 257),
        ],
    )
    def test_fine_grid_pipeline(self, placements, name, n_t, n_x):
        # the grid's costs and the path: 6 locations and 2 splittings
        # before the placement was kept, and 2 merges after the DP
        problem, cfg = load(name)
        cfg = replace(cfg, n_t=n_t, n_x=n_x)
        traj = solve_relaxed(problem, cfg)
        placements["merges"] = 0  # the quotient grid's own merge
        dubois_reymond_residual(problem, traj, cfg)
        decompose_velocities(problem, traj, cfg)
        assert placements == {"locations": 2, "splittings": 1, "merges": 1}

    def test_cli_solve(self, placements, tmp_path):
        # the certificates' queries, the DP's grid and path and the
        # coercivity reference path: 67 locations and 3 splittings before
        src = str(PROBLEMS / "doublewell_timevarying.json")
        assert cli.main(["solve", src, "--out", str(tmp_path / "out.json")]) == 0
        assert (placements["locations"], placements["splittings"]) == (63, 2)


def scalar_costs(disc, times, states, velocities):
    """``path_costs``' f** and g with the midpoint subgradients of its
    table, interval by interval, on the per-envelope reference."""
    xs = disc.grid
    values, midpoints, g = [], [], []
    for t, x, xi in zip(times, states, velocities):
        ys = disc.problem.f.value(float(t), xs)
        keep = ref.hull(xs, ys)
        lo, hi = ref.subgradients(xs, ys, keep, float(xi))
        values.append(ref.value(xs, ys, keep, float(xi)))
        midpoints.append(0.5 * (lo + hi))
        g.append(float(disc.problem.g.value(float(t), x)))
    return values, midpoints, g


def collinear_problem():
    """A time-varying f that is affine on each side of 0 at every time, so
    its samples come in collinear runs."""
    problem, _ = load("quadratic")
    f = IntegrandFamily(
        base=velocity_function("abs"),
        modulation=velocity_function("affine", {"slope": 0.5, "offset": 0.25}),
        factor=time_factor("affine_t", {"slope": 1.0, "offset": 0.0}),
    )
    return replace(problem, f=f)


@st.composite
def costing_cases(draw):
    """A discretization, possibly extended by off-grid velocities (some
    merge into a grid point, others are inserted), with intervals over a
    few repeated times.  Velocities are drawn at the grid points, between
    them, among the extra velocities, inside the domain tolerance and at
    -0.0, whose splitting target is the grid's 0.0."""
    name = draw(
        st.sampled_from(
            ["doublewell", "doublewell_timevarying", "linear_minus_sqrt", "quadratic", "collinear"]
        )
    )
    problem, cfg = load("quadratic" if name == "collinear" else name)
    if name == "collinear":
        problem = collinear_problem()
    n_x = draw(st.integers(5, 33))
    cfg = replace(cfg, n_t=draw(st.integers(2, n_x - 1)), n_x=n_x)
    disc = Discretization.of(problem, cfg)
    cap = problem.velocity_cap
    nudged = st.sampled_from(list(disc.grid)).map(lambda v: v * (1.0 + 3e-13) + 1e-14)
    extra = np.clip(draw(st.lists(st.one_of(nudged, st.floats(-cap, cap)), max_size=4)), -cap, cap)
    if extra.size:
        disc = disc.extended(extra)
    grid = disc.grid
    n = draw(st.integers(1, 24))
    # few distinct times, so that some envelopes serve several intervals
    pool = draw(st.lists(st.floats(0.0, problem.horizon), min_size=1, max_size=4))
    times = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    lo, hi = problem.state_box
    states = np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
    at_nodes = st.sampled_from(list(grid))
    between = st.floats(float(grid[0]), float(grid[-1]))
    first, last = float(grid[0]), float(grid[-1])
    tol = 1e-12 * max(1.0, abs(first), abs(last))
    ends = st.sampled_from([first - 0.5 * tol, last + 0.5 * tol])
    kinds = [at_nodes, between, ends, st.just(-0.0)]
    kinds += [st.sampled_from(list(extra))] if extra.size else []
    velocities = np.array(draw(st.lists(st.one_of(*kinds), min_size=n, max_size=n)))
    return disc, times, states, velocities


def narrow_edge_case():
    """The collinear f at n_t = 5, n_x = 22, its grid extended by -2e-12: an
    edge 2e-12 wide beside one of width 1.67, whose slopes the rounding of
    the samples at t = 0.75 sets 5.2e-8 apart, once taken for a fall."""
    disc = Discretization.of(collinear_problem(), DPConfig(n_t=5, n_x=22))
    xi = np.array([-2e-12])
    return disc.extended(xi), np.array([0.75]), np.array([0.5]), xi


class TestPathCosts:
    @settings(max_examples=80, deadline=None)
    @given(costing_cases())
    @example(narrow_edge_case())
    def test_matches_scalar_loop_bit_for_bit(self, case):
        disc, times, states, velocities = case
        want = scalar_costs(disc, times, states, velocities)
        table, rows, values, g = disc.path_costs(times, states, velocities)
        got = values, table.midpoints(rows, velocities), g
        for a, b in zip(got, want):
            assert a.tobytes() == np.array(b, dtype=float).tobytes()

    def test_slopes_that_fall_by_an_ulp_are_costed(self):
        # f is affine up to rounding on a run of quotients: the chain keeps
        # a vertex whose two edge slopes fall by an ulp, within the table's
        # rounding allowance; its subgradient interval used to be rejected
        xi = -0.4516129032258076
        disc = Discretization.of(collinear_problem(), DPConfig(n_t=4, n_x=10))
        assert disc.grid.size == 9
        disc = disc.extended(np.array([xi]))
        times, states, velocities = np.array([0.6289871980268343]), np.array([0.5]), np.array([xi])
        lo, hi = disc.envelope_table(times)[0].subgradients(0, xi)
        assert 0.0 < lo - hi <= 1e-12 * max(1.0, abs(lo))
        table, rows, values, g = disc.path_costs(times, states, velocities)
        got = values, table.midpoints(rows, velocities), g
        want = scalar_costs(disc, times, states, velocities)
        assert [a.tobytes() for a in got] == [np.array(b).tobytes() for b in want]

    def test_envelopes_once_per_distinct_time(self, hulls):
        problem, cfg = load("doublewell_timevarying")
        disc = Discretization.of(problem, cfg)
        times = np.array([0.5, 0.0, 0.5, 0.25, 0.0])
        disc.path_costs(times, np.zeros(5), np.zeros(5))
        assert len(hulls) == 3


# A path read from a CSV whose velocity -2e-12 lands beside the grid's 0,
# on the collinear f at n_t = 5, n_x = 22: the narrow edge of
# ``narrow_edge_case``.
NARROW_EDGE_CSV = (
    "t,x,xdot\n0,0,0.80000000000000004\n0.25,0.20000000000000001,-2e-12\n"
    "0.5,0.19999999999950002,1.600000000001\n0.75,0.59999999999975007,1.6000000000009997\n"
    "1,1,1.6000000000009997\n"
)


class TestKeptPlacements:
    """The placement a ``Discretization`` keeps for a path answers every
    query with the bits of fresh table queries, and is shared only by
    paths of the same bits."""

    @staticmethod
    def assert_reads_fresh_queries(disc, times, states, velocities):
        values = disc.path_costs(times, states, velocities)[2]
        placed = disc.placement(times, velocities)
        table, rows = disc.envelope_table(times)
        kept, fresh = placed.split, table.split(rows, velocities)
        got = [values, placed.values, *placed.subgradients, placed.midpoints]
        want = [table.at(rows, velocities)] * 2
        want += [*table.subgradients(rows, velocities), table.midpoints(rows, velocities)]
        for name in ("weights", "points", "point_values", "targets", "envelope_values"):
            got.append(getattr(kept, name))
            want.append(getattr(fresh, name))
        assert [bits(a) for a in got] == [bits(b) for b in want]
        assert kept.support.tolist() == fresh.support.tolist()
        assert placed.table is table
        assert disc.placement(times.copy(), velocities.copy()) is placed
        changed = velocities.copy()
        changed[-1] = disc.grid[0] if bits(changed[-1:]) != bits(disc.grid[:1]) else disc.grid[-1]
        assert disc.placement(times, changed) is not placed

    @settings(max_examples=80, deadline=None)
    @given(costing_cases())
    @example(narrow_edge_case())
    def test_kept_placement_reads_fresh_bits(self, case):
        self.assert_reads_fresh_queries(*case)

    def test_csv_read_beside_a_grid_point(self, tmp_path):
        (tmp_path / "traj.csv").write_text(NARROW_EDGE_CSV)
        problem, cfg = collinear_problem(), DPConfig(n_t=5, n_x=22)
        read = read_trajectory(tmp_path / "traj.csv", problem, cfg)
        disc = read.discretization.extended(read.velocities)
        assert np.any((disc.grid < 0.0) & (disc.grid > -1e-11))
        times = disc.interval_times(read.times)
        self.assert_reads_fresh_queries(disc, times, read.states[:-1], read.velocities)
        # DR and decompose read the placement that costed the read
        placed = disc.placement(times, read.velocities)
        assert decompose_velocities(problem, read, cfg) is placed.split

    def test_arrays_are_read_only(self):
        problem, cfg = load("doublewell_timevarying")
        traj = solve_relaxed(problem, cfg)
        disc = traj.discretization
        times = disc.interval_times(traj.times)
        dubois_reymond_residual(problem, traj, cfg)
        split = decompose_velocities(problem, traj, cfg)
        placed = disc.placement(times, traj.velocities)
        assert split is placed.split
        arrays = [getattr(placed, f.name) for f in fields(placed) if f.name != "table"]
        arrays += [placed.values, *placed.subgradients, placed.midpoints]
        arrays += [getattr(split, f.name) for f in fields(split)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]
        # the table's own row array stays the caller's to write
        assert disc.envelope_table(times)[1].flags.writeable


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def sampled_tables(draw):
    """One to three random rows over a random grid, some affine on a run of
    samples, and query points: random ones, every sample and both ends
    inside the domain tolerance."""
    coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    xs = np.sort(np.array(draw(st.lists(coord, min_size=2, max_size=16, unique=True))))
    assume(np.all(np.diff(xs) > 1e-9))
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        ys = np.array(draw(st.lists(value, min_size=xs.size, max_size=xs.size)))
        a, b = sorted(draw(st.lists(st.integers(0, xs.size), min_size=2, max_size=2)))
        ys[a:b] = draw(value) * 1e-2 * xs[a:b] + draw(value)
        rows.append(ys)
    lo, hi = float(xs[0]), float(xs[-1])
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    inner = draw(st.lists(st.floats(lo, hi), max_size=12))
    points = np.concatenate([inner, xs, [lo, hi, lo - 0.5 * tol, hi + 0.5 * tol]])
    return xs, np.array(rows), points


class TestEnvelopeTable:
    """The table's queries against the per-envelope reference on each row,
    bit for bit."""

    @staticmethod
    def assert_row_matches(table, r, ys, points):
        rows = np.full(points.size, r)
        xs = table.grid
        keep = ref.hull(xs, ys)
        assert bits(table.at(rows, points)) == bits([ref.value(xs, ys, keep, xi) for xi in points])
        lo, hi = np.array([ref.subgradients(xs, ys, keep, xi) for xi in points]).T
        assert [bits(a) for a in table.subgradients(rows, points)] == [bits(lo), bits(hi)]
        assert bits(table.midpoints(rows, points)) == bits(0.5 * (lo + hi))
        dec = table.split(rows, points)
        for i, xi in enumerate(points.tolist()):
            k = dec.support[i]
            got = (
                dec.weights[i, :k], dec.points[i, :k], dec.point_values[i, :k],
                [dec.targets[i]], [dec.envelope_values[i]],
            )
            want_weights, want_pts, want_values, target, value = ref.split(xs, ys, keep, xi)
            want = want_weights, want_pts, want_values, [target], [value]
            assert [bits(a) for a in got] == [bits(b) for b in want]

    @settings(max_examples=150, deadline=None)
    @given(sampled_tables())
    def test_random_rows(self, case):
        xs, ys, points = case
        try:
            table = EnvelopeTable.of(xs, ys)
        except DegenerateInputError as exc:
            # rounding on steep edges: the reference hull's slopes fall by
            # more than the allowance
            assert str(exc) == "edge slopes must be nondecreasing"

            def falls(row):
                keep = ref.hull(xs, row)
                s = np.diff(row[keep]) / np.diff(xs[keep])
                return np.any(s[1:] - s[:-1] < -1e-12 * np.maximum(1.0, np.abs(s[:-1])))

            assert any(falls(row) for row in ys)
            return
        for r, row in enumerate(ys):
            self.assert_row_matches(table, r, row, points)

    @settings(max_examples=80, deadline=None)
    @given(costing_cases())
    def test_costing_cases(self, case):
        disc, times, _, velocities = case
        table, rows = disc.envelope_table(times)
        for r in np.unique(rows):
            ys = disc.problem.f.value(float(times[rows == r][0]), disc.grid)
            self.assert_row_matches(table, r, ys, velocities[rows == r])

    def test_checks_match_the_envelope_checks(self, monkeypatch):
        xs = np.array([0.0, 1.0, 2.0])
        for ys, message in (
            ([0.0, np.inf, 1.0], "sample values must contain finite values only"),
            ([1.5e308, -1.5e308, 1.5e308], "edge slopes must contain finite values only"),
        ):
            with pytest.raises(DegenerateInputError, match=message):
                with np.errstate(over="ignore"):  # the rise of an edge overflows
                    EnvelopeTable.of(xs, np.array([ys]))
        # a kernel that kept every sample of a concave row: its slopes fall
        monkeypatch.setattr(convex, "_hull_vertices", lambda xs, ys: list(range(len(xs))))
        with pytest.raises(DegenerateInputError, match="edge slopes must be nondecreasing"):
            EnvelopeTable.of(xs, np.array([-(xs**2) + 1.0, -(xs**2)]))

    def test_one_row_per_distinct_time(self):
        problem, cfg = load("doublewell_timevarying")
        disc = Discretization.of(problem, cfg)
        table, rows = disc.envelope_table(np.array([0.5, 0.0, 0.5, 0.25, 0.0]))
        assert table.values.shape == (3, disc.grid.size)
        assert rows.tolist() == [2, 0, 2, 1, 0]
        autonomous, _ = load("doublewell")
        # a replaced discretization keeps none of the tables built before
        for times in (np.linspace(0, 1, 4), np.array([0.5, 0.0, 0.5, 0.25, 0.0])):
            table, rows = replace(disc, problem=autonomous).envelope_table(times)
            assert table.values.shape[0] == 1 and rows.tolist() == [0] * times.size

    def test_out_of_domain_message_names_the_velocity(self):
        problem, cfg = load("quadratic")
        disc = Discretization.of(problem, cfg)
        table, rows = disc.envelope_table(np.zeros(3))
        lo, hi = disc.grid[[0, -1]].tolist()
        want = f"velocity 9.5 outside envelope domain [{lo!r}, {hi!r}]"
        for query in (table.at, table.subgradients, table.midpoints, table.split):
            with pytest.raises(OutOfDomainError, match=re.escape(want)):
                query(rows, np.array([0.0, 9.5, -9.5]))


class TestTransitionTableMemory:
    def test_peak_stays_near_the_band(self):
        # the double well's 2049-node grid at n_t = 64 has 129 quotients and
        # 129 offsets; the band as index arrays held 4.2 MB, and keeping every
        # per-offset piece and per-pair temporary of it peaked at 25 MB.  The
        # quotient array, the grid and the offset table are traced together:
        # the table places the array's entries on the grid.
        problem, _ = load("doublewell")
        tracemalloc.start()
        try:
            Discretization.of(problem, DPConfig(n_t=64, n_x=2049)).transitions
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
    difference matrix rather than the array of pair quotients."""
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


def table_pairs(top, table, q):
    """The (predecessor, target) arrays of the offset table's entries equal
    to ``q``, ordered by target: row r holds offset top - r."""
    k, r = np.nonzero(table.T == q)
    return k - (top - r), k


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDiscretizationOwnsTheGrid:
    """``_dp`` reads quotient positions from the offset table, and
    verification costs trajectories on the grid extended by their
    velocities; both must see the admissible pairs' quotients, from which
    the grid and the table were built."""

    @settings(max_examples=150, deadline=None)
    @given(discretization_cases())
    # the end is inserted 1.47e-14 from the start, and the quotients merge into one
    @example(
        (
            Problem(
                horizon=1.0,
                start=0.0,
                end=1.4726406000312254e-14,
                f=IntegrandFamily(base=velocity_function("power_p", {"p": 2.0})),
                g=IntegrandFamily(base=state_function("zero")),
                state_box=(0.0, 1.0),
                velocity_cap=0.5,
            ),
            DPConfig(n_t=2, n_x=3),
        )
    )
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
        assert same_bits(disc.grid, points)
        assert same_bits(disc.xs, xs)
        assert disc.step == step
        assert same_bits(disc.times, np.linspace(0.0, problem.horizon, cfg.n_t + 1))
        # every admissible pair appears once, at its nearest grid point (the
        # lower one on a tie); every other entry is the sentinel
        want = brute_force_band(problem, cfg, points)
        if any(np.unique(k).size < k.size for _, k in want):
            with pytest.raises(InfeasibleError):
                disc.transitions
            return
        top, table = disc.transitions
        assert np.count_nonzero(table != points.size) == sum(k.size for _, k in want)
        assert table.max() <= points.size
        for q, (want_j, want_k) in enumerate(want):
            j, k = table_pairs(top, table, q)
            assert np.array_equal(j, want_j)
            assert np.array_equal(k, want_k)

    @settings(max_examples=150, deadline=None)
    @given(discretization_cases())
    def test_band_entries_are_maximal_runs(self, case):
        problem, cfg = case
        try:
            disc = Discretization.of(problem, cfg)
            top, table = disc.transitions
        except (InfeasibleError, DegenerateInputError):
            assume(False)
        want = brute_force_band(problem, cfg, disc.grid)
        # one row per admissible offset, from the largest down, one column per
        # target node, in the narrowest type that holds the sentinel
        offsets = np.concatenate([k - j for j, k in want])
        assert top == offsets.max()
        assert table.shape == (top - offsets.min() + 1, disc.xs.size)
        assert table.dtype == np.min_scalar_type(disc.grid.size)
        for q, (want_j, want_k) in enumerate(want):
            j, k = table_pairs(top, table, q)
            assert np.array_equal(j, want_j) and np.array_equal(k, want_k)

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
        assert same_bits(disc.extended(relaxed).grid, disc.grid)
        assert same_bits(
            disc.grid, merge_close_velocities(np.unique(np.concatenate([brute, relaxed])))
        )
        # perturbed velocities, some within the merge tolerance of a point
        points = list(disc.grid)
        nudged = st.sampled_from(points).map(lambda v: v * (1.0 + 3e-13) + 1e-14)
        free = st.floats(-cap, cap)
        extra = np.clip(
            data.draw(st.lists(st.one_of(free, nudged), min_size=1, max_size=12)), -cap, cap
        )
        # -0.0 counts as 0.0, as in Discretization.extended
        want = merge_close_velocities(np.unique(np.concatenate([brute, extra]) + 0.0))
        assert same_bits(disc.extended(extra).grid, want)


class TestOffsetTableInRowBlocks:
    """``offset_table`` places a block of rows per ``nearest_index`` call;
    it must give the bits and the errors of the row-by-row loop."""

    @staticmethod
    def assert_matches_the_row_loop(quotients, points):
        try:
            want_top, want = offset_table_reference(quotients, points)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                discretize.offset_table(quotients, points)
            return
        top, table = discretize.offset_table(quotients, points)
        assert top == want_top and same_bits(table, want)

    @settings(max_examples=150, deadline=None)
    @given(discretization_cases(), st.integers(1, 400))
    def test_drawn_grids_and_block_budgets(self, case, entries):
        # a budget below one row still places one row per block
        problem, cfg = case
        try:
            disc = Discretization.of(problem, cfg)
        except (InfeasibleError, DegenerateInputError):
            assume(False)
        with mock.patch.object(discretize, "BLOCK_ENTRIES", entries):
            self.assert_matches_the_row_loop(disc.quotients, disc.grid)

    def test_the_memory_case_spans_several_blocks(self):
        problem, _ = load("doublewell")
        disc = Discretization.of(problem, DPConfig(n_t=64, n_x=2049))
        rows, n = disc.quotients.shape
        assert rows > discretize.BLOCK_ENTRIES // n > 0
        self.assert_matches_the_row_loop(disc.quotients, disc.grid)


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
