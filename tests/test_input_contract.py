"""The input contract, check by check: every malformed problem file or
trajectory CSV ends ``cli.main`` with its documented exit code and exactly
one ``error:`` line, with no traceback and no warning."""

import copy
import json

import numpy as np
import pytest

from varelax.catalog import NagumoFunction
from varelax.cli import main
from varelax.errors import SchemaError
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


def test_the_straight_path_is_a_valid_trajectory(tmp_path):
    """The CSV cases above break one check each of this valid file."""
    problem = write(tmp_path / "case.json", json.dumps(BASE))
    traj = write(tmp_path / "traj.csv", csv_rows(STRAIGHT))
    assert main(["verify", problem, "--traj", traj, "--out", str(tmp_path / "out")]) == 0


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
