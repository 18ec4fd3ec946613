"""The certify stage's array passes against their loops, its g evaluations
and probe times, and a g too large for a chord sum."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certify_reference import (
    fit_bound_line_reference,
    midpoint_concave_reference,
    pooled_radial_profile_reference,
)
from varelax import cli
from varelax.catalog import ShapeFunction, state_function, time_factor, velocity_function
from varelax.classify import (
    PROBE_STATES,
    _fit_bound_line,
    _midpoint_concave,
    _pooled_radial_profile,
    default_probe,
    hypothesis_check,
)
from varelax.families import IntegrandFamily
from varelax.io import parse_problem
from varelax.problem import Problem

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"
TIE_KEYS = (lambda s, b: (s, -b), lambda s, b: (-s, -b))
FACTORS = (
    ("const", {"value": -0.5}),
    ("affine_t", {"slope": 2.0, "offset": -0.5}),
    ("sine", {"amplitude": 1.5, "frequency": 3.0}),
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def state_shapes(draw, box):
    """Every catalog state shape; a table spans the box, and is concave or
    drawn freely."""
    name = draw(st.sampled_from(["zero", "affine", "concave_quadratic", "table"]))
    if name == "zero":
        return state_function("zero")
    if name == "affine":
        slope, offset = draw(st.tuples(*[st.sampled_from([-2.0, -0.7, 0.0, 0.1, 3.0])] * 2))
        return state_function("affine", {"slope": slope, "offset": offset})
    if name == "concave_quadratic":
        return state_function("concave_quadratic", {"kappa": draw(st.sampled_from([0, 0.5, 4]))})
    size = draw(st.integers(2, 6))
    grid = np.linspace(box[0], box[1], size)
    values = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    if draw(st.booleans()):
        values = -np.cumsum(np.cumsum(np.abs(values)))  # nonincreasing, concave
    return state_function("table", {"grid": grid.tolist(), "values": list(map(float, values))})


@st.composite
def g_problems(draw):
    box = draw(st.sampled_from([(-1.0, 1.0), (0.0, 2.0), (-0.5, 0.25)]))
    g = IntegrandFamily(base=draw(state_shapes(box)))
    if draw(st.booleans()):
        name, params = draw(st.sampled_from(FACTORS))
        g = IntegrandFamily(
            base=g.base, modulation=draw(state_shapes(box)), factor=time_factor(name, params)
        )
    return Problem(
        horizon=draw(st.sampled_from([0.5, 1.0, 2.0])),
        start=box[0],
        end=box[0],
        f=IntegrandFamily(base=velocity_function("double_well")),
        g=g,
        state_box=box,
        velocity_cap=2.0,
    )


class TestArrayPassesKeepTheLoopsBits:
    @settings(max_examples=60, deadline=None)
    @given(g_problems())
    def test_midpoint_concave(self, problem):
        probe = default_probe(problem)
        want = midpoint_concave_reference(problem, probe)
        assert same_bits(_midpoint_concave(problem, probe), want)

    # -0.0 is drawn as 0.0: a radius block holding both zeros has either as
    # its minimum, in the loop's np.min as in the array pass
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda rows: st.lists(
                st.tuples(
                    st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]),
                    st.lists(
                        st.floats(-1e6, 1e6).map(lambda v: v + 0.0), min_size=rows, max_size=rows
                    ),
                ),
                min_size=1,
                max_size=24,
            )
        )
    )
    def test_pooled_radial_profile(self, columns):
        radii = np.array([r for r, _ in columns])
        values = np.array([v for _, v in columns]).T
        got = _pooled_radial_profile(radii, values)
        want = pooled_radial_profile_reference(radii, values)
        assert all(same_bits(a, b) for a, b in zip(got, want))

    # few values per entry, so tied slacks and tied intercepts are common
    @settings(max_examples=150, deadline=None)
    @given(
        tie=st.sampled_from(TIE_KEYS),
        profile=st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2)), min_size=1, max_size=8),
        slopes=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5]), min_size=1, max_size=8),
    )
    def test_fit_bound_line(self, tie, profile, slopes):
        r = np.arange(len(profile)) / 2.0
        vmin = np.array([lo for lo, _ in profile], dtype=float)
        vmax = vmin + np.array([gap for _, gap in profile])
        got = _fit_bound_line(r, vmin, vmax, slopes, tie_key=tie)
        want = fit_bound_line_reference(r, vmin, vmax, slopes, tie_key=tie)
        assert all(same_bits(np.float64(a), np.float64(b)) for a, b in zip(got, want))

    @pytest.mark.parametrize("tie", TIE_KEYS)
    def test_an_overflowed_slack_ranks_last(self, tie):
        # g = 1e308 * x + 1e308 on [-0.5, 0.5]: the steep line's slack
        # overflows to inf, and the flat line wins in both
        r = np.array([0.0, 0.5])
        vmin, vmax = np.array([1e308, 0.5e308]), np.array([1e308, 1.5e308])
        with np.errstate(over="raise"):
            got = _fit_bound_line(r, vmin, vmax, [-1e308, 0.0], tie_key=tie)
        with np.errstate(over="ignore"):
            want = fit_bound_line_reference(r, vmin, vmax, [-1e308, 0.0], tie_key=tie)
        assert got == want == (0.0, 0.5e308, 1e308)


class TestOneGTableAndOneTimeGrid:
    def test_autonomous_g_evaluates_the_midpoint_grid_once(self, monkeypatch):
        # the probe box's 33 states and the 33 x 33 midpoints, once each; a
        # g.value call per probe time read the midpoints 9 times
        problem = parse_problem(PROBLEMS / "doublewell.json").problem
        sizes = []
        call = ShapeFunction.__call__

        def counted(shape, y):
            if shape is problem.g.base:
                sizes.append(np.size(y))
            return call(shape, y)

        monkeypatch.setattr(ShapeFunction, "__call__", counted)
        hypothesis_check(problem)
        assert sizes == [PROBE_STATES, PROBE_STATES**2]

    @pytest.mark.parametrize("name", ["doublewell", "doublewell_timevarying"])
    def test_classify_certifies_the_probe_times(self, monkeypatch, tmp_path, name):
        problem = parse_problem(PROBLEMS / f"{name}.json").problem
        grids = []
        for attr in ("class_e_certificate", "sci_certificate"):
            certificate = getattr(cli, attr)

            def recorded(family, t_grid, schedule, certificate=certificate):
                grids.append(t_grid)
                return certificate(family, t_grid, schedule)

            monkeypatch.setattr(cli, attr, recorded)
        argv = ["classify", str(PROBLEMS / f"{name}.json"), "--out", str(tmp_path / "c.json")]
        assert cli.main(argv) == 0
        want = default_probe(problem).times
        assert len(grids) == 2 and all(same_bits(grid, want) for grid in grids)


def test_a_large_finite_g_is_concave(tmp_path):
    """An affine g between 0.5e308 and 1.5e308 on the box is concave: its
    chord sums overflow, its chords and midpoints do not."""
    doc = json.loads((PROBLEMS / "doublewell.json").read_text())
    doc["g"] = {"base": {"name": "affine", "params": {"slope": 1e308, "offset": 1e308}}}
    path = tmp_path / "large_g.json"
    path.write_text(json.dumps(doc))
    path_var = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path_var}
    for command in ("classify", "relax", "solve"):
        out = tmp_path / f"{command}.json"
        run = subprocess.run(
            [sys.executable, "-m", "varelax.cli", command, str(path), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (run.returncode, run.stderr) == (0, ""), command
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["required"]["convex_or_concave"] is True
