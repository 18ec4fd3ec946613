"""Metamorphic relations of the relaxed solve: how its outputs must move
when its input moves, checked at any grid size without a second solver.

Scaling f and g by 2**k scales every sample, hull slope, interval cost and
partial sum by 2**k exactly, barring overflow and subnormals: a power of
two commutes with each rounding, so every comparison of the DP and every
hull test keeps its outcome.  The path is the same, and the value and the
Du Bois-Reymond energies and drift scale by 2**k, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varelax.catalog import state_function, time_factor, velocity_function
from varelax.conditions import dubois_reymond_residual
from varelax.families import IntegrandFamily
from varelax.problem import DPConfig, Problem
from varelax.solve import solve_relaxed

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
        case = (
            [4.0, 1.0, 0.0, 0.5, 0.25, 0.5, 0.0, 1.0, 4.0],
            [-2.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -2.0],
            [0.0, -0.5, -1.0, 0.25, 0.5],
            (1.0, 7.0),
            (0.0, 0.25),
        )
        assert_scales(case, DPConfig(1024, 1025), k)
