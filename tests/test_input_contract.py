"""The input contract, check by check: every malformed problem file or
trajectory CSV ends ``cli.main`` with its documented exit code and exactly
one ``error:`` line, with no traceback and no warning."""

import copy
import json

import numpy as np
import pytest

from varelax.catalog import NagumoFunction
from varelax.cli import main
from varelax.classify import hypothesis_check
from varelax.errors import CertificateError, SchemaError
from varelax.io import parse_problem
from varelax.problem import DPConfig, Trajectory

BASE = {
    "horizon": {"T": 1.0, "a": 0.0, "b": 1.0},
    "f": {"base": {"name": "power_p", "params": {"p": 2.0}}},
    "g": {"base": {"name": "zero"}},
    "numerics": {"n_t": 8, "n_x": 9, "state_box": [0.0, 1.0], "velocity_cap": 2.0},
}
THETA = {"name": "power_p", "params": {"p": 2.0}}
NOT_UTF8 = b"\xff\xfe\x00"
DELETE = object()


def edit(path, value):
    """A problem-file edit that sets the key at ``path`` (dots between
    keys) to ``value``, or deletes it when ``value`` is ``DELETE``."""

    def apply(doc):
        *parents, key = path.split(".")
        for k in parents:
            doc = doc[k]
        if value is DELETE:
            del doc[key]
        else:
            doc[key] = copy.deepcopy(value)

    return apply


def edits(*changes):
    """One problem-file edit that applies each of ``changes`` in turn."""

    def apply(doc):
        for change in changes:
            change(doc)

    return apply


def g_table(grid, values):
    return edit("g", {"base": {"name": "table", "params": {"grid": grid, "values": values}}})


def g_factor(name, params):
    g = {"base": {"name": "zero"}, "modulation": {"name": "zero"}}
    return edit("g", dict(g, time_factor={"name": name, "params": params}))


def theta(**fields):
    return edit("numerics.theta", dict(THETA, **fields))


def csv_rows(rows):
    """CSV text of ``rows`` under the ``t,x,xdot`` header."""
    return "t,x,xdot\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)


# BASE's straight path from 0 to 1 at unit speed, a valid trajectory
STRAIGHT = [(k / 8, k / 8, 1.0) for k in range(9)]


def straight(**changes):
    """STRAIGHT with row k replaced by ``changes["r<k>"]``."""
    rows = list(STRAIGHT)
    for key, row in changes.items():
        rows[int(key[1:])] = row
    return csv_rows(rows)


# name: (a problem-file edit of BASE, the bytes of the whole file, or None
# for a file that does not exist; the exit code; text of the error line)
BAD_PROBLEMS = {
    # catalog: names, params and the table
    "unknown-velocity-name": (edit("f.base.name", "septic"), 2, "unknown velocity function"),
    "unknown-state-name": (edit("g.base.name", "septic"), 2, "unknown state function"),
    "unknown-time-factor": (g_factor("septic", {}), 2, "unknown time factor 'septic'"),
    "unknown-nagumo-name": (theta(name="septic"), 2, "unknown Nagumo function 'septic'"),
    "missing-params": (edit("f.base.params", {}), 2, "missing params ['p']"),
    "unknown-params": (edit("g.base.params", {"scale": 1}), 2, "unknown params ['scale']"),
    "table-shape": (g_table([0.0, 1.0], [0.0]), 2, "table needs matching grid/values"),
    "table-order": (g_table([1.0, 0.0], [0.0, 1.0]), 2, "table grid must be increasing"),
    "table-finite": (g_table([0.0, 1.0], [0.0, float("inf")]), 2, "values[1]: must be finite"),
    "table-grid-strings": (g_table(["a", "b"], [0.0, 1.0]), 2, "grid[0]: expected a number"),
    "table-grid-not-a-list": (g_table(3.0, [0.0, 1.0]), 2, "grid: expected a list of numbers"),
    "nagumo-not-finite": (theta(params={"p": 1000.0}), 2, "not finite on the probe schedule"),
    "nagumo-superlinear": (theta(params={"p": 1.0000000000000002}), 2, "superlinearity probe"),
    # finite on the probe box, up to 2^1000, but not on the class-E box
    "f-overflows-class-e-box": (
        edit("f.base.params.p", 1000.0),
        2,
        "velocity cost f must be finite on the class-E box",
    ),
    # a supporting line overflows at a smaller radius than f itself
    "f-overflows-class-e-box-after-a-line": (
        edit("f.base.params.p", 60.0),
        2,
        "velocity cost f must be finite on the class-E box",
    ),
    # the number rule, for every catalog parameter as for numerics
    "p-string": (edit("f.base.params.p", "x"), 2, "'power_p': p: expected a number"),
    "p-null": (edit("f.base.params.p", None), 2, "'power_p': p: expected a number"),
    "p-numeric-string": (edit("f.base.params.p", "2"), 2, "'power_p': p: expected a number"),
    "kappa-string": (
        edit("g.base", {"name": "concave_quadratic", "params": {"kappa": "a"}}),
        2,
        "kappa: expected a number",
    ),
    "affine-t-slope-string": (
        g_factor("affine_t", {"slope": "a", "offset": 0.0}),
        2,
        "slope: expected a number",
    ),
    "theta-p-numeric-string": (
        theta(params={"p": "2"}),
        2,
        "numerics.theta: catalog entry 'power_p': p: expected a number",
    ),
    "T-numeric-string": (edit("horizon.T", "1"), 2, "horizon.T: expected a number"),
    "T-int-beyond-float": (edit("horizon.T", 10**400), 2, "horizon.T: must be finite"),
    "cap-bool": (edit("numerics.velocity_cap", True), 2, "velocity_cap: expected a number"),
    # io: sections, keys, integers, names, params
    "section-not-an-object": (edit("horizon", [1.0, 0.0, 1.0]), 2, "horizon: expected an object"),
    "missing-keys": (edit("numerics.velocity_cap", DELETE), 2, "missing keys ['velocity_cap']"),
    "n-t-not-an-integer": (edit("numerics.n_t", 8.0), 2, "numerics.n_t: expected an integer"),
    "levels-not-an-integer": (theta(levels=64.0), 2, "levels: expected an integer"),
    "name-not-a-string": (edit("f.base.name", 3), 2, "f.base.name: expected a string"),
    "params-not-an-object": (edit("f.base.params", [2.0]), 2, "params: expected an object"),
    "time-factor-without-modulation": (
        edit("f.time_factor", {"name": "const", "params": {"value": 1.0}}),
        2,
        "time_factor given without modulation",
    ),
    "state-box-not-a-pair": (edit("numerics.state_box", [0.0]), 2, "expected [lo, hi]"),
    # the file itself
    "missing": (None, 2, "cannot read problem file"),
    "not-utf8": (NOT_UTF8 + b"{}", 2, "cannot read problem file"),
    "invalid-json": (b"{", 2, "invalid JSON"),
    # Problem and DPConfig
    "horizon-nonpositive": (edit("horizon.T", 0.0), 2, "horizon must be positive"),
    "state-box-empty": (edit("numerics.state_box", [1.0, 0.0]), 2, "nonempty finite interval"),
    "state-box-too-wide": (
        edit("numerics.state_box", [-1e308, 1e308]),
        2,
        "nonempty finite interval",
    ),
    "endpoint-outside-box": (edit("horizon.b", 2.0), 2, "end endpoint must lie inside"),
    "cap-nonpositive": (edit("numerics.velocity_cap", 0.0), 2, "velocity cap must be positive"),
    "endpoints-unreachable": (edit("numerics.velocity_cap", 0.5), 3, "endpoints are unreachable"),
    "n-t-too-small": (edit("numerics.n_t", 1), 2, "at least 2 time intervals"),
    "n-x-too-small": (edit("numerics.n_x", 2), 2, "at least 3 state grid points"),
    "penalty-negative": (theta(penalty=-1.0), 2, "penalty weight must be nonnegative"),
    "budget-nonpositive": (theta(budget=0.0), 2, "speed budget must be positive"),
    "levels-too-few": (theta(levels=1), 2, "at least 2 budget levels"),
    # the radius schedule: io reads the numbers, classify._radii checks the shape
    "radius-schedule-not-a-list": (
        edit("numerics.radius_schedule", 16.0),
        2,
        "numerics.radius_schedule: expected a list of radii",
    ),
    "radius-schedule-three-radii": (
        edit("numerics.radius_schedule", [16.0, 32.0, 64.0]),
        2,
        "numerics.radius_schedule: radius schedule must be increasing with at least 4 entries",
    ),
    "radius-schedule-string": (
        edit("numerics.radius_schedule", [16.0, "32", 64.0, 128.0]),
        2,
        "numerics.radius_schedule: expected a number",
    ),
    "radius-schedule-not-increasing": (
        edit("numerics.radius_schedule", [16.0, 64.0, 32.0, 128.0]),
        2,
        "numerics.radius_schedule: radius schedule must be increasing with at least 4 entries",
    ),
    "radius-schedule-zero": (
        edit("numerics.radius_schedule", [0.0, 16.0, 32.0, 64.0]),
        2,
        "numerics.radius_schedule: radius schedule entries must be positive",
    ),
}

# name: (the CSV's text or bytes, or None for a file that does not exist;
# text of the error line); ``verify`` exits 2 on each
BAD_TRAJECTORIES = {
    "missing": (None, "cannot read trajectory"),
    "not-utf8": (NOT_UTF8 + b"t,x,xdot\n", "cannot read trajectory"),
    "header": ("a,b,c\n0,0,1\n1,1,1\n", "expected a 't,x,xdot' header"),
    "columns": (straight(r3=(0.375, 0.375)), "traj.csv:5: expected at least 3 columns"),
    "cell": (straight(r3=(0.375, "zz", 1.0)), "traj.csv:5: could not convert string to float"),
    "one-row": (csv_rows(STRAIGHT[:1]), "need at least two rows"),
    "not-finite": (straight(r3=(0.375, "nan", 1.0)), "trajectory values must be finite"),
    "times-range": (csv_rows(STRAIGHT[:5]), "times must run from 0 to T"),
    "outside-box": (straight(r4=(0.5, 1.5, 1.0)), "states leave the state box"),
    "endpoints": (straight(r0=(0.0, 0.125, 1.0)), "endpoint states do not match"),
    "over-cap": (straight(r3=(0.375, 0.375, 3.0)), "traj.csv: trajectory velocity exceeds"),
    # Trajectory's checks on what was read
    "times-not-increasing": (straight(r4=(0.25, 0.5, 1.0)), "times must be strictly increasing"),
    "times-not-uniform": (straight(r4=(0.55, 0.5, 1.0)), "time grid must be uniform"),
    "velocity-inconsistent": (
        straight(r3=(0.375, 0.375, 1.5)),
        "inconsistent with the state increments",
    ),
}


def write(path, content):
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    elif content is not None:
        path.write_bytes(content)
    return str(path)


def assert_one_error_line(argv, code, message, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert message in lines[0]
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(BAD_PROBLEMS))
def test_bad_problem_file_ends_with_one_error_line(name, tmp_path, capsys):
    problem, code, message = BAD_PROBLEMS[name]
    if callable(problem):
        doc = copy.deepcopy(BASE)
        problem(doc)
        problem = json.dumps(doc)
    argv = ["classify", write(tmp_path / "case.json", problem), "--out", str(tmp_path / "out")]
    assert_one_error_line(argv, code, message, capsys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["verify", "decompose"])
@pytest.mark.parametrize("name", sorted(BAD_TRAJECTORIES))
def test_bad_trajectory_ends_with_one_error_line(name, command, tmp_path, capsys):
    csv, message = BAD_TRAJECTORIES[name]
    problem = write(tmp_path / "case.json", json.dumps(BASE))
    traj = write(tmp_path / "traj.csv", csv)
    argv = [command, problem, "--traj", traj, "--out", str(tmp_path / "out")]
    assert_one_error_line(argv, 2, message, capsys)


# --l-schedule values that cli._parse_schedule refuses, with their errors
BAD_SCHEDULES = {
    "0.25:4": "--l-schedule must be start:stop:count",
    "a:4:16": "--l-schedule: could not convert string to float: 'a'",
    "0.25:4:2.5": "--l-schedule: invalid literal for int() with base 10: '2.5'",
    "4:0.25:16": "--l-schedule needs 0 < start < stop and count >= 2",
    "0.25:4:1": "--l-schedule needs 0 < start < stop and count >= 2",
    "nan:4:16": "--l-schedule needs 0 < start < stop and count >= 2",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("schedule", sorted(BAD_SCHEDULES))
def test_bad_l_schedule_ends_with_one_error_line(schedule, tmp_path, capsys):
    doc = copy.deepcopy(BASE)
    doc["numerics"]["theta"] = THETA
    problem = write(tmp_path / "case.json", json.dumps(doc))
    argv = ["sweep", problem, "--l-schedule", schedule, "--out", str(tmp_path / "out")]
    assert_one_error_line(argv, 2, f"error: {BAD_SCHEDULES[schedule]}", capsys)


# (a problem-file edit of BASE, the CSV's text, text of the error line) of
# an integrand that overflows where ``verify`` and ``decompose`` sample it;
# neither command runs the certificates, so the sampling itself must check
OVERFLOWS = {
    # the envelope table checks f on the quotient grid
    "f": (
        edit("f.base.params.p", 1100.0),
        csv_rows(STRAIGHT),
        "velocity cost f must be finite on the quotient grid",
    ),
    # the path costs check g at the trajectory's states
    "g": (
        edits(
            edit("g.base", {"name": "concave_quadratic", "params": {"kappa": 1e307}}),
            edit("horizon", {"T": 10.0, "a": 0.0, "b": 10.0}),
            edit("numerics", dict(BASE["numerics"], n_t=10, n_x=11, state_box=[0.0, 10.0])),
        ),
        # the straight path at unit speed, over T = 10
        csv_rows([(k, k, 1.0) for k in range(11)]),
        "state cost g must be finite on the trajectory's states",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("command", "case"),
    # the f cases keep the ids they had before the g case joined them
    [
        pytest.param(command, case, id=command if case == "f" else f"{case}-{command}")
        for case in OVERFLOWS
        for command in ("verify", "decompose")
    ],
)
def test_f_overflow_on_the_quotient_grid_ends_with_one_error_line(command, case, tmp_path, capsys):
    change, csv, message = OVERFLOWS[case]
    doc = copy.deepcopy(BASE)
    change(doc)
    problem = write(tmp_path / "case.json", json.dumps(doc))
    traj = write(tmp_path / "traj.csv", csv)
    argv = [command, problem, "--traj", traj, "--out", str(tmp_path / "out")]
    assert_one_error_line(argv, 2, message, capsys)


@pytest.mark.filterwarnings("error")
def test_class_e_lines_beyond_float_range_pass_silently(tmp_path, capsys):
    # at p = 42.5 the outer supporting lines of the largest radii overflow, f does not
    doc = copy.deepcopy(BASE)
    edit("f.base.params.p", 42.5)(doc)
    problem = write(tmp_path / "case.json", json.dumps(doc))
    assert main(["classify", problem, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


# An f affine on each side of 0 at every time, so convex at every t, and a
# path whose velocities add -2e-12 to the quotient grid: an edge 2e-12 wide
# beside one of width 1.67.  Rounding the samples moves that edge's slope
# by 5.2e-8, which the slope check once took for a fall.
NARROW_EDGE = (
    edits(
        edit("f", {
            "base": {"name": "abs"},
            "modulation": {"name": "affine", "params": {"slope": 0.5, "offset": 0.25}},
            "time_factor": {"name": "affine_t", "params": {"slope": 1.0, "offset": 0.0}},
        }),
        edit("numerics", dict(BASE["numerics"], n_t=5, n_x=22)),
    ),
    "t,x,xdot\n0,0,0.80000000000000004\n0.25,0.20000000000000001,-2e-12\n"
    "0.5,0.19999999999950002,1.600000000001\n0.75,0.59999999999975007,1.6000000000009997\n"
    "1,1,1.6000000000009997\n",
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_a_narrow_edge_beside_a_wide_one_is_costed(command, tmp_path, capsys):
    change, csv = NARROW_EDGE
    doc = copy.deepcopy(BASE)
    change(doc)
    problem = write(tmp_path / "case.json", json.dumps(doc))
    traj = write(tmp_path / "traj.csv", csv)
    assert main([command, problem, "--traj", traj, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["relax", "solve"])
def test_a_quotient_grid_merged_to_one_point_ends_with_one_error_line(command, tmp_path, capsys):
    # the end, 1.47e-14 from the start, is inserted beside it, and every
    # quotient merges into one velocity
    doc = copy.deepcopy(BASE)
    edits(
        edit("horizon.b", 1.4726406000312254e-14),
        edit("numerics", dict(BASE["numerics"], n_t=2, n_x=3, velocity_cap=0.5)),
    )(doc)
    problem = write(tmp_path / "case.json", json.dumps(doc))
    message = (
        "error: difference quotients merge into one velocity within the relative 1e-12 "
        "merge tolerance; the velocity grid needs two"
    )
    assert main([command, problem, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", message + "\n")


# f's time rate overflows at every interval: the sine's amplitude times its
# frequency is 1e612, and a splitting's zero weight times it is NaN
DR_NOT_FINITE = {
    "horizon": {"T": 2.0, "a": 0.0, "b": -0.5},
    "f": {
        "base": {"name": "sqrt_one_plus"},
        "modulation": {"name": "sqrt_one_plus"},
        "time_factor": {"name": "sine", "params": {"amplitude": 1e306, "frequency": 1e306}},
    },
    "g": {"base": {"name": "table", "params": {
        "grid": [-1.0, 0.0, 1.0], "values": [0.0, 1.0, -1e306],
    }}},
    "numerics": {
        "n_t": 33, "n_x": 65, "state_box": [-0.5, 1.0], "velocity_cap": 1.0,
        "theta": {"name": "power_p", "params": {"p": 2.0}, "budget": 0.5, "levels": 200},
    },
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["relax", "verify"])
def test_a_dr_energy_or_drift_beyond_float_range_ends_with_one_error_line(
    command, tmp_path, capsys
):
    problem = write(tmp_path / "case.json", json.dumps(DR_NOT_FINITE))
    argv = [command, problem, "--out", str(tmp_path / "out.csv")]
    lines = ["warning: hypothesis constants failed on the probe box; solving anyway"]
    if command == "verify":
        # the straight path from 0 to -0.5 over T = 2
        path = csv_rows([(2.0 * k / 33, -0.5 * k / 33, -0.25) for k in range(34)])
        argv += ["--traj", write(tmp_path / "traj.csv", path)]
        lines = []
    message = (
        "error: the Du Bois-Reymond energy and drift of velocity cost f and state cost g "
        "must be finite on the trajectory"
    )
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "\n".join(lines + [message]) + "\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.filterwarnings("error")
def test_probe_drift_samples_beyond_float_range_are_a_certificate_failure(tmp_path):
    # the probe box's splittings meet the same rates: no warning, and the
    # drift fit's check refuses them
    problem = parse_problem(write(tmp_path / "case.json", json.dumps(DR_NOT_FINITE))).problem
    with pytest.raises(CertificateError, match="drift samples are not all finite"):
        hypothesis_check(problem)


# name: (a problem-file edit of BASE, the commands that meet it, text of
# the error line) of a derived quantity beyond float range on the grid
DERIVED_OVERFLOWS = {
    # expm1(1000): theta at the quotients, which prices the penalty
    "theta-at-the-quotients": (
        edits(
            edit("horizon.b", 0.0),
            edit("numerics", dict(
                BASE["numerics"], n_t=16, n_x=17, state_box=[-100.0, 100.0],
                velocity_cap=1000.0, theta={"name": "exp_minus_linear", "penalty": 1.0},
            )),
        ),
        ("relax", "solve"),
        "Nagumo penalty theta must be finite on the quotient grid",
    ),
    # g reaches 1e306 at t = 1e6, and h = 62500 times it overflows
    "step-cost": (
        edits(
            edit("horizon", {"T": 1e6, "a": 0.0, "b": 0.0}),
            edit("g", {
                "base": {"name": "affine", "params": {"slope": 1.0, "offset": 0.0}},
                "modulation": {"name": "affine", "params": {"slope": 0.0, "offset": 1.0}},
                "time_factor": {"name": "affine_t", "params": {"slope": 1e300, "offset": 0.0}},
            }),
            edit("numerics", dict(BASE["numerics"], n_t=16, n_x=17, state_box=[-1.0, 1.0],
                                  velocity_cap=1.0)),
        ),
        ("relax",),
        "velocity cost f plus state cost g, times the time step, must be finite on the grid",
    ),
    # the class-E line fit's hull of g's radial profile has an edge slope
    # beyond float range
    "g-edge-slope": (
        edits(
            edit("horizon", {"T": 1e-6, "a": 0.0, "b": 0.0}),
            edit("g.base", {"name": "affine", "params": {"slope": -1.7e308, "offset": 0.0}}),
            edit("numerics", dict(BASE["numerics"], n_t=16, n_x=17, state_box=[-0.5, 0.25],
                                  velocity_cap=1.0)),
        ),
        ("classify", "relax", "solve"),
        "state cost g on the probe box: edge slopes must contain finite values only",
    ),
    # theta(16) = 2^240 at the cap, and 1e250 times it overflows
    "penalty-column": (
        edits(
            edit("horizon.b", 0.0),
            edit("numerics", dict(
                BASE["numerics"], n_t=16, n_x=17, state_box=[-1.0, 1.0], velocity_cap=16.0,
                theta={"name": "power_p", "params": {"p": 60.0}, "penalty": 1e250},
            )),
        ),
        ("relax",),
        "velocity cost f plus the penalty times Nagumo theta plus state cost g, "
        "times the time step, must be finite on the grid",
    ),
    # every step costs about 1e307, and 32 of them overflow
    "path-sum": (
        edits(
            edit("horizon", {"T": 32.0, "a": 0.0, "b": 0.0}),
            edit("g.base", {"name": "affine", "params": {"slope": 0.0, "offset": 1e307}}),
            edit("numerics", dict(BASE["numerics"], n_t=32, n_x=17, state_box=[-1.0, 1.0],
                                  velocity_cap=1.0)),
        ),
        ("relax", "solve"),
        "velocity cost f plus state cost g, summed along a grid path, overflows",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("case", "command"),
    [(case, command) for case, (_, commands, _) in DERIVED_OVERFLOWS.items() for command in commands],
)
def test_a_derived_quantity_beyond_float_range_ends_with_one_error_line(
    case, command, tmp_path, capsys
):
    change, _, message = DERIVED_OVERFLOWS[case]
    doc = copy.deepcopy(BASE)
    change(doc)
    problem = write(tmp_path / "case.json", json.dumps(doc))
    assert_one_error_line([command, problem, "--out", str(tmp_path / "out")], 2, message, capsys)


def test_the_straight_path_is_a_valid_trajectory(tmp_path):
    """The CSV cases above break one check each of this valid file."""
    problem = write(tmp_path / "case.json", json.dumps(BASE))
    traj = write(tmp_path / "traj.csv", csv_rows(STRAIGHT))
    assert main(["verify", problem, "--traj", traj, "--out", str(tmp_path / "out")]) == 0


def test_blank_lines_of_a_trajectory_csv_are_skipped(tmp_path):
    problem = write(tmp_path / "case.json", json.dumps(BASE))
    lines = csv_rows(STRAIGHT).splitlines(keepends=True)
    spaced = "".join(lines[:1] + ["\n"] + lines[1:5] + ["  \n"] + lines[5:] + ["\n"])
    reports = []
    for name, text in (("plain", csv_rows(STRAIGHT)), ("spaced", spaced)):
        out = tmp_path / name / "verify.json"
        out.parent.mkdir()
        traj = write(tmp_path / f"{name}.csv", text)
        assert main(["verify", problem, "--traj", traj, "--out", str(out)]) == 0
        reports.append([p.read_bytes() for p in sorted(out.parent.iterdir())])
    assert len(reports[0]) == 2 and reports[0] == reports[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_a_bad_tol_ends_with_one_error_line(tol, tmp_path, capsys):
    problem = write(tmp_path / "case.json", json.dumps(BASE))
    argv = ["classify", problem, f"--tol={tol}", "--out", str(tmp_path / "out")]
    assert_one_error_line(argv, 2, "--tol must be finite and >= 0", capsys)


def test_a_radius_schedule_is_read_into_the_class_e_report(tmp_path):
    doc = copy.deepcopy(BASE)
    doc["numerics"]["radius_schedule"] = [16.0, 32.0, 64.0, 128.0]
    problem = write(tmp_path / "case.json", json.dumps(doc))
    out = tmp_path / "certificates.json"
    assert main(["classify", problem, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["class_e"]["radii"] == [16.0, 32.0, 64.0, 128.0]


def test_theta_levels_are_read(tmp_path):
    doc = copy.deepcopy(BASE)
    doc["numerics"]["theta"] = dict(THETA, levels=128)
    assert parse_problem(write(tmp_path / "case.json", json.dumps(doc))).config.budget_levels == 128


def probe_schedule_fails(fn):
    with pytest.raises(SchemaError) as info:
        NagumoFunction("probe", fn)
    return str(info.value)


@pytest.mark.parametrize(
    "fn, message",
    [
        (lambda r: np.where(r > 8.0, np.inf, r * r), "not finite on the probe schedule"),
        (lambda r: -r * r, "is not increasing"),
        (lambda r: np.sqrt(r), "fails the convexity probe"),
        (lambda r: 2.0 * r, "fails the superlinearity probe"),
    ],
)
def test_nagumo_probes(fn, message):
    assert message in probe_schedule_fails(fn)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"penalty": 1.0}, "require a Nagumo entry"),
        ({"theta_budget": 1.0}, "require a Nagumo entry"),
        ({"theta_budget": float("nan")}, "speed budget must be positive"),
        ({"penalty": float("inf")}, "penalty weight must be nonnegative and finite"),
    ],
)
def test_dp_config_checks(fields, message):
    with pytest.raises(SchemaError, match=message):
        DPConfig(**fields)


@pytest.mark.parametrize(
    "times, states, vels, value, message",
    [
        ([0.0], [0.0], [], 0.0, "at least two time nodes"),
        ([[0.0, 1.0]], [[0.0, 1.0]], [1.0], 0.0, "at least two time nodes"),
        ([0.0, 1.0], [0.0, 1.0, 2.0], [1.0], 0.0, "inconsistent lengths"),
        ([0.0, 1.0], [0.0, 1.0], [1.0, 1.0], 0.0, "inconsistent lengths"),
        ([0.0, 1.0], [0.0, np.inf], [1.0], 0.0, "data must be finite"),
        ([0.0, 1.0], [0.0, 1.0], [1.0], np.nan, "value must be finite"),
    ],
)
def test_trajectory_checks(times, states, vels, value, message):
    with pytest.raises(SchemaError, match=message):
        Trajectory(times, states, vels, value, 0.0, 0.0)
