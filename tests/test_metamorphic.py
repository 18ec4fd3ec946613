"""Metamorphic relations of the relaxed solve: how its outputs must move
when its input moves, checked at any grid size without a second solver.

Scaling f and g by 2**k scales every sample, hull slope, interval cost and
partial sum by 2**k exactly, barring overflow and subnormals: a power of
two commutes with each rounding, so every comparison of the DP and every
hull test keeps its outcome.  The path is the same, and the value and the
Du Bois-Reymond energies and drift scale by 2**k, bit for bit.

Scaling theta by 2**k and the speed budgets by 2**k scales h*theta(q) and
each quantum budget/levels by 2**k exactly, so every budget unit count,
ceil of their quotient, is unchanged: a budget sweep's values, its None
entries and its settle index do not move, bit for bit.

Adding c*xi to f, a null Lagrangian, adds c*(b - a) to every path's cost
and c to every slope, so the value moves by c*(b - a) and the energies
f**(xi) - p*xi + g do not move; in floats both hold within a bound (see
``assert_null_lagrangian``).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varelax import solve
from varelax.catalog import NagumoFunction, state_function, time_factor, velocity_function
from varelax.conditions import dubois_reymond_residual
from varelax.families import IntegrandFamily
from varelax.problem import DPConfig, Problem, running_sum
from varelax.solve import solve_relaxed, value_sweep

CAP, BOX = 2.0, (-0.5, 0.5)
VELOCITIES = np.linspace(-CAP, CAP, 9)
STATES = np.linspace(*BOX, 5)


def scaled(case, k):
    """The problem of ``case`` with f's base and modulation tables and g's
    table scaled by 2**k: f = base + sine * mod, the sine changing sign
    on [0, 1]."""
    base, mod, g, (amplitude, frequency), (start, end) = case
    scale = 2.0**k

    def table(shape, grid, values):
        return shape("table", {"grid": grid, "values": scale * np.asarray(values, dtype=float)})

    f = IntegrandFamily(
        base=table(velocity_function, VELOCITIES, base),
        modulation=table(velocity_function, VELOCITIES, mod),
        factor=time_factor("sine", {"amplitude": amplitude, "frequency": frequency}),
    )
    g = IntegrandFamily(base=table(state_function, STATES, g))
    return Problem(1.0, start, end, f, g, BOX, CAP)


U = 2.0**-53  # the unit roundoff
# the case that each relation also runs at 1024 x 1025
LARGE_CASE = (
    [4.0, 1.0, 0.0, 0.5, 0.25, 0.5, 0.0, 1.0, 4.0],
    [-2.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -2.0],
    [0.0, -0.5, -1.0, 0.25, 0.5],
    (1.0, 7.0),
    (0.0, 0.25),
)


def assert_null_lagrangian(case, cfg, c):
    """solve_relaxed and DR on the case and with c*xi added to f's base
    samples, c a multiple of 1/4, so the samples stay exact dyadics.

    Let K = max|base| + |c|*CAP + amplitude*max|mod| + max|g|, which bounds
    |f|, |f + c*xi| and |g|, and u = 2**-53.  A sample of f, f + c*xi or g
    at a quotient q rounds within 4u*K (table interpolation, product and
    sum), and the hull kernel keeps a vertex only on a positive rounded
    cross product, so f** adds at most 20u*K: each interval value is within
    24u*K of its exact value, and the exact shifted value is the unshifted
    one plus c*q.  ``running_sum`` adds n products h*v of at most h*K left
    to right, within (n + 1)u*T*K.  So a path's computed cost, the DP's own
    sums alike, is within e = (n + 25)u*T*K of its exact cost, whose shift
    is c*h*sum(q).  Each run's DP path is within 2e of the other run's on
    that run's costs, so |V' - V - c*(b - a)| <= 4e + |c|*d, where d bounds
    |h*sum(q) - (b - a)| on both paths: a merged quotient is a few ulps off
    its pair's, and computing that sum rounds within (n + 2)u*T*CAP.

    An energy f**(xi) - p*xi + g reads p, the midpoint of two slopes, each
    a rise of at most 2K within 48u*K + 2u*K over a width of at least w,
    the smallest quotient gap: p is within 56u*K/w.  With the energy's three
    roundings, each energy is within u*K*(27 + 62*CAP/w) of its exact value,
    which the shift does not move, as the exact slopes move by c.  So two
    runs' energies of one interval at the same state and velocity differ by
    at most twice that.  The bounds are to first order in u: n*u is below
    1e-12 here, and T = 1.
    """
    base, mod, g, (amplitude, _), (start, end) = case
    shifted = (np.asarray(base) + c * VELOCITIES, *case[1:])
    runs = []
    for problem in (scaled(case, 0), scaled(shifted, 0)):
        traj = solve_relaxed(problem, cfg)
        runs.append((traj, dubois_reymond_residual(problem, traj, cfg)))
    (traj, dr), (traj_c, dr_c) = runs
    size = max(map(abs, base)) + abs(c) * CAP + amplitude * max(map(abs, mod)) + max(map(abs, g))
    n, w = cfg.n_t, np.min(np.diff(traj.discretization.grid))
    rises = [abs(running_sum(t.step * t.velocities) - (end - start)) for t in (traj, traj_c)]
    d = max(rises) + (n + 2) * U * CAP
    bound = 4 * (n + 25) * U * size + abs(c) * d
    assert abs(traj_c.value - traj.value - c * (end - start)) <= bound
    same = (traj_c.states[:-1] == traj.states[:-1]) & (traj_c.velocities == traj.velocities)
    moved = np.abs(dr_c.energy - dr.energy)[same]
    assert np.all(moved <= 2 * U * size * (27 + 62 * CAP / w))


def samples(size):
    return st.lists(st.integers(-16, 16).map(lambda v: v / 4.0), min_size=size, max_size=size)


@st.composite
def cases(draw):
    ends = st.sampled_from([0.0, -0.25, 0.25, 0.5])
    return (
        draw(samples(VELOCITIES.size)),
        draw(samples(VELOCITIES.size)),
        draw(samples(STATES.size)),
        (draw(st.sampled_from([0.5, 1.0, 3.0])), draw(st.sampled_from([4.0, 7.0, 10.0]))),
        (draw(ends), draw(ends)),
    )


def assert_scales(case, cfg, k):
    """solve_relaxed and DR on the case and on its 2**k scaling."""
    scale = 2.0**k
    runs = []
    for problem in (scaled(case, 0), scaled(case, k)):
        traj = solve_relaxed(problem, cfg)
        runs.append((traj, dubois_reymond_residual(problem, traj, cfg)))
    (traj, dr), (traj_k, dr_k) = runs
    for name in ("times", "states", "velocities"):
        assert getattr(traj_k, name).tobytes() == getattr(traj, name).tobytes(), name
    for name in ("value", "f_cost", "g_cost"):
        assert getattr(traj_k, name) == scale * getattr(traj, name), name
    for name in ("energy", "drift"):
        assert getattr(dr_k, name).tobytes() == (scale * getattr(dr, name)).tobytes(), name


class TestScaling:
    @settings(max_examples=12, deadline=None)
    @given(
        case=cases(),
        sizes=st.sampled_from([(64, 65), (128, 129), (96, 193)]),
        k=st.sampled_from([-3, 5]),
    )
    def test_path_and_value_scale_by_a_power_of_two(self, case, sizes, k):
        assert_scales(case, DPConfig(*sizes), k)

    @pytest.mark.parametrize("k", [-3, 5])
    def test_large_grid(self, k):
        assert_scales(LARGE_CASE, DPConfig(1024, 1025), k)


class TestNullLagrangian:
    @settings(max_examples=12, deadline=None)
    @given(
        case=cases(),
        sizes=st.sampled_from([(64, 65), (128, 129), (96, 193)]),
        c=st.integers(-16, 16).map(lambda v: v / 4.0),
    )
    def test_value_moves_by_c_times_the_rise(self, case, sizes, c):
        assert_null_lagrangian(case, DPConfig(*sizes), c)

    @pytest.mark.parametrize("c", [-1.75, 3.0])
    def test_large_grid(self, c):
        assert_null_lagrangian(LARGE_CASE, DPConfig(1024, 1025), c)


# the catalog's Nagumo entries, to be scaled by a power of two
NAGUMO = {"power_p": lambda r: r**2, "exp_minus_linear": lambda r: np.expm1(r) - r}


def assert_budget_scaling(case, cfg, name, k, schedule):
    """value_sweep on the case with theta over the schedule, and with
    theta*2**k over the schedule*2**k: the same units, values, None
    entries and settle index."""
    problem, runs = scaled(case, 0), []
    for scale in (1.0, 2.0**k):
        theta = NagumoFunction(name, lambda r, fn=NAGUMO[name], scale=scale: scale * fn(r))
        run, budgets = replace(cfg, theta=theta), scale * schedule
        report = value_sweep(problem, run, budgets)
        units = solve._units(solve._tables(problem, run), run, budgets)
        values = [None if v is None else float(v).hex() for v in report.values]
        runs.append((units.tobytes(), values, report.settle_index))
    assert runs[1] == runs[0]


class TestBudgetScaling:
    @settings(max_examples=12, deadline=None)
    @given(
        case=cases(),
        sizes=st.sampled_from([(16, 17, 16), (32, 33, 64), (24, 40, 32)]),
        name=st.sampled_from(sorted(NAGUMO)),
        k=st.sampled_from([-3, 5]),
        exponents=st.lists(st.integers(-10, 6), min_size=2, max_size=8, unique=True),
    )
    def test_sweep_keeps_its_values_when_theta_and_budgets_scale(
        self, case, sizes, name, k, exponents
    ):
        schedule = np.array(sorted(2.0 ** (j / 2) for j in exponents))
        assert_budget_scaling(case, DPConfig(*sizes[:2], budget_levels=sizes[2]), name, k, schedule)

    @pytest.mark.parametrize("name", sorted(NAGUMO))
    def test_large_grid(self, name):
        cfg = DPConfig(128, 129, budget_levels=128)
        assert_budget_scaling(LARGE_CASE, cfg, name, 5, np.geomspace(2.0**-5, 2.0**-1, 17))
