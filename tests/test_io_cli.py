"""Problem-file schema, serialization contracts, and CLI exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varelax import classify, cli
from varelax.cli import main
from varelax.errors import (
    CertificateError,
    DegenerateInputError,
    InfeasibleError,
    NotAutonomousError,
    OutOfDomainError,
    SchemaError,
    VarelaxError,
)
from varelax.io import emit_trajectory, parse_problem, read_trajectory
from varelax.problem import DPConfig
from varelax.solve import solve_relaxed

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


def write_problem(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


MINIMAL = {
    "horizon": {"T": 1.0, "a": 0.0, "b": 1.0},
    "f": {"base": {"name": "power_p", "params": {"p": 2.0}}},
    "g": {"base": {"name": "zero"}},
    "numerics": {"n_t": 8, "n_x": 9, "state_box": [0.0, 1.0], "velocity_cap": 2.0},
}


class TestParseProblem:
    def test_minimal_file(self, tmp_path):
        loaded = parse_problem(write_problem(tmp_path, MINIMAL))
        assert loaded.problem.horizon == 1.0
        assert loaded.config.n_t == 8
        assert loaded.radius_schedule is None

    def test_nonpositive_horizon_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["horizon"]["T"] = -1.0
        with pytest.raises(SchemaError):
            parse_problem(write_problem(tmp_path, doc))

    def test_unknown_keys_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="unknown keys"):
            parse_problem(write_problem(tmp_path, doc))

    def test_unknown_catalog_name(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["f"]["base"]["name"] = "septic_spline"
        with pytest.raises(SchemaError, match="septic_spline"):
            parse_problem(write_problem(tmp_path, doc))

    def test_nonfinite_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["numerics"]["velocity_cap"] = 1e999  # becomes inf in JSON parsing
        with pytest.raises(SchemaError):
            parse_problem(write_problem(tmp_path, doc))

    def test_bundled_problems_parse(self):
        for path in sorted(PROBLEMS.glob("*.json")):
            loaded = parse_problem(path)
            assert loaded.problem.horizon > 0

    def test_weak_margin_parses_but_fails_hypotheses(self, tmp_path):
        # a declared state slope beyond the velocity bound is a certificate
        # failure, not a parse failure
        from varelax.classify import hypothesis_check

        doc = json.loads(json.dumps(MINIMAL))
        doc["f"] = {"base": {"name": "linear_minus_sqrt"}}
        doc["g"] = {"base": {"name": "concave_quadratic", "params": {"kappa": 2.0}}}
        doc["numerics"]["state_box"] = [-1.0, 1.0]
        loaded = parse_problem(write_problem(tmp_path, doc))
        report = hypothesis_check(loaded.problem)
        assert not report.h2_pass


class TestTrajectoryRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        # every shipped file at its own numerics: the arrays and the costs
        # read back from the CSV equal the solver's bit for bit
        for problem_path in sorted(PROBLEMS.glob("*.json")):
            loaded = parse_problem(problem_path)
            cfg = loaded.config
            traj = solve_relaxed(loaded.problem, cfg)
            path = tmp_path / f"{problem_path.stem}.csv"
            emit_trajectory(traj, path)
            back = read_trajectory(path, loaded.problem, cfg)
            np.testing.assert_array_equal(back.times, traj.times)
            np.testing.assert_array_equal(back.states, traj.states)
            np.testing.assert_array_equal(back.velocities, traj.velocities)
            for cost in ("value", "f_cost", "g_cost", "theta_value"):
                assert getattr(back, cost) == getattr(traj, cost), (problem_path.name, cost)

    def test_row_count_and_header(self, tmp_path):
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        traj = solve_relaxed(loaded.problem, DPConfig(n_t=4, n_x=5))
        path = tmp_path / "traj.csv"
        emit_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,xdot"
        assert len(lines) == 6  # header + 5 node rows

    def test_lf_line_endings(self, tmp_path):
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        traj = solve_relaxed(loaded.problem, DPConfig(n_t=4, n_x=5))
        path = tmp_path / "traj.csv"
        emit_trajectory(traj, path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_mismatched_endpoints_rejected(self, tmp_path):
        loaded = parse_problem(PROBLEMS / "quadratic.json")
        path = tmp_path / "bad.csv"
        path.write_text("t,x,xdot\n0,0.5,1\n1,1.5,1\n")
        with pytest.raises(SchemaError, match="endpoint"):
            read_trajectory(path, loaded.problem, DPConfig(n_t=8, n_x=9))


class TestTrajectoryContract:
    """``verify`` rejects a malformed trajectory CSV with exit 2 and a
    one-line message before any costing."""

    def verify(self, tmp_path, capsys, rows):
        path = tmp_path / "traj.csv"
        path.write_text("t,x,xdot\n" + "".join(f"{r}\n" for r in rows))
        code = main(
            [
                "verify",
                str(PROBLEMS / "doublewell.json"),
                "--traj", str(path),
                "--out", str(tmp_path / "verify.json"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "verify.json").exists()
        return err

    def test_nan_velocity_rejected(self, tmp_path, capsys):
        err = self.verify(tmp_path, capsys, ["0,0,0", "0.5,0,nan", "1,0,0"])
        assert "finite" in err

    def test_partial_horizon_rejected(self, tmp_path, capsys):
        # covers t in [0, 0.5] of T = 1 with zero cost so far
        rows = [f"{t},0,0" for t in np.linspace(0.0, 0.5, 9).tolist()]
        err = self.verify(tmp_path, capsys, rows)
        assert "from 0 to T" in err

    def test_state_outside_box_rejected(self, tmp_path, capsys):
        err = self.verify(tmp_path, capsys, ["0,0,1.5", "0.5,0.75,-1.5", "1,0,-1.5"])
        assert "state box" in err


class TestCliExitCodes:
    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["relax", str(bad)]) == 2
        capsys.readouterr()

    def test_infeasible_cap(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(
            ["relax", str(PROBLEMS / "quadratic.json"), "--xi-max", "0.5", "--out", str(out)]
        )
        assert code == 3
        capsys.readouterr()

    def test_classify_bounded_family_fails_certificates(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["classify", str(PROBLEMS / "sqrt_one_plus.json"), "--out", str(out)])
        assert code == 4
        doc = json.loads(out.read_text())
        assert doc["class_e"]["verdict"] == "bounded"
        assert doc["required"]["class_e_diverges"] is False
        capsys.readouterr()

    def test_classify_quadratic_passes(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(
            ["classify", str(PROBLEMS / "quadratic.json"), "--out", str(out), "--plot-data"]
        )
        assert code == 0
        assert (tmp_path / "cert_chi.csv").exists()

    def test_relax_writes_trajectory_and_report(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "relax",
                str(PROBLEMS / "quadratic.json"),
                "--n-t", "16", "--n-x", "17",
                "--out", str(out),
                "--plot-data",
            ]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "traj_dr.json").exists()
        assert (tmp_path / "traj_energy.csv").exists()

    def test_sweep_settles(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                str(PROBLEMS / "quadratic.json"),
                "--n-t", "32", "--n-x", "32",
                "--l-schedule", "0.25:4:16",
                "--out", str(out),
                "--plot-data",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["settle_index"] is not None
        assert (tmp_path / "sweep_vl.csv").exists()

    def test_sweep_without_settle_fails_acceptance(self, tmp_path):
        # every entry sits below the minimal speed budget of any path,
        # so no settle index exists
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                str(PROBLEMS / "quadratic.json"),
                "--n-t", "32", "--n-x", "32",
                "--l-schedule", "0.1:0.5:8",
                "--out", str(out),
            ]
        )
        assert code == 5
        doc = json.loads(out.read_text())
        assert doc["settle_index"] is None
        assert all(v is None for v in doc["values"])

    def test_sweep_without_theta_is_schema_error(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                str(PROBLEMS / "doublewell.json"),
                "--l-schedule", "0.5:2:8",
                "--out", str(tmp_path / "s.json"),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_solve_doublewell_pipeline(self, tmp_path):
        out = tmp_path / "solution.json"
        code = main(["solve", str(PROBLEMS / "doublewell.json"), "--out", str(out)])
        assert code == 0
        assert (tmp_path / "solution_relaxed.csv").exists()
        rec_csv = tmp_path / "solution_reconstructed.csv"
        assert rec_csv.exists()
        rows = rec_csv.read_text().splitlines()[1:]
        speeds = {float(r.split(",")[2]) for r in rows}
        assert speeds <= {-1.0, 1.0}
        doc = json.loads(out.read_text())
        assert doc["comparison"]["passed"] is True
        assert doc["relaxed_value"] <= 1e-9

    def test_verify_and_decompose_on_emitted_trajectory(self, tmp_path):
        traj_csv = tmp_path / "traj.csv"
        assert (
            main(
                [
                    "relax",
                    str(PROBLEMS / "doublewell.json"),
                    "--n-t", "16", "--n-x", "17",
                    "--out", str(traj_csv),
                ]
            )
            == 0
        )
        code = main(
            [
                "verify",
                str(PROBLEMS / "doublewell.json"),
                "--n-t", "16", "--n-x", "17",
                "--traj", str(traj_csv),
                "--out", str(tmp_path / "verify.json"),
            ]
        )
        assert code == 0
        code = main(
            [
                "decompose",
                str(PROBLEMS / "doublewell.json"),
                "--n-t", "16", "--n-x", "17",
                "--traj", str(traj_csv),
                "--out", str(tmp_path / "track.json"),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "track.json").read_text())
        assert doc["support_radius"] <= 1.0 + 1e-12

    def test_solve_time_varying_pipeline(self, tmp_path):
        out = tmp_path / "tv.json"
        code = main(["solve", str(PROBLEMS / "doublewell_timevarying.json"), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        # relaxed cost is the mixed well depth, about 0.5*(1 - cos 1)
        assert doc["relaxed_value"] == pytest.approx(0.5 * (1 - np.cos(1.0)), abs=5e-3)
        assert doc["comparison"]["passed"] is True
        assert doc["decomposition"]["support_radius"] <= 1.0 + 1e-12

    def test_sweep_tol_override_loosens_settle(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                str(PROBLEMS / "quadratic.json"),
                "--n-t", "32", "--n-x", "32",
                "--l-schedule", "1.2:4:8",
                "--tol", "10.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["settle_index"] == 0  # everything within the loose tolerance

    def test_reconstructed_piece_labels_alternate(self, tmp_path):
        out = tmp_path / "run.json"
        code = main(
            [
                "solve",
                str(PROBLEMS / "doublewell_concave.json"),
                "--n-t", "64", "--n-x", "33",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = (tmp_path / "run_reconstructed.csv").read_text().splitlines()
        assert rows[0] == "t,x,xdot,piece"
        labels = {int(r.split(",")[3]) for r in rows[1:]}
        assert labels == {0, 1}

    def test_verify_emits_energy_csv(self, tmp_path):
        traj_csv = tmp_path / "traj.csv"
        assert (
            main(
                [
                    "relax",
                    str(PROBLEMS / "quadratic.json"),
                    "--n-t", "16", "--n-x", "17",
                    "--out", str(traj_csv),
                ]
            )
            == 0
        )
        out = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                str(PROBLEMS / "quadratic.json"),
                "--n-t", "16", "--n-x", "17",
                "--traj", str(traj_csv),
                "--out", str(out),
            ]
        )
        assert code == 0
        energy = (tmp_path / "verify_energy.csv").read_text().splitlines()
        assert energy[0] == "t,E,drift,residual"
        assert len(energy) == 17  # header + one row per interval

    def test_byte_identical_reruns(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        for d in (a_dir, b_dir):
            code = main(
                [
                    "solve",
                    str(PROBLEMS / "doublewell.json"),
                    "--n-t", "32", "--n-x", "33",
                    "--out", str(d / "run.json"),
                ]
            )
            assert code == 0
        for name in ("run.json", "run_relaxed.csv", "run_reconstructed.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_relax_warns_when_the_hypotheses_fail(self, tmp_path, capsys):
        # kappa = 100 gives g slope beta = 25 > B = 4.34, so H2 fails
        doc = json.loads((PROBLEMS / "doublewell_concave.json").read_text())
        doc["g"]["base"]["params"]["kappa"] = 100.0
        problem = write_problem(tmp_path, doc)
        out = tmp_path / "traj.csv"
        argv = ["relax", str(problem), "--n-t", "32", "--n-x", "33", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "warning: hypothesis constants failed on the probe box; solving anyway\n"
        )
        assert json.loads((tmp_path / "traj_dr.json").read_text())["hypotheses_pass"] is False

    @staticmethod
    def assert_signed_zeros_give_one_report(tmp_path, problem):
        """A resting 128-step CSV written with -0 and with 0 gives the same
        verify and decompose reports on ``problem`` at 128 x 129."""
        grid = ["--n-t", "128", "--n-x", "129"]
        for command in ("verify", "decompose"):
            reports = []
            for zero in ("-0", "0"):
                traj = tmp_path / f"rest{zero}.csv"
                rows = "".join(f"{k / 128!r},0.0,{zero}\n" for k in range(129))
                traj.write_text("t,x,xdot\n" + rows, encoding="utf-8")
                out = tmp_path / f"{command}{zero}.json"
                assert main([command, problem, *grid, "--traj", str(traj), "--out", str(out)]) == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1]

    def test_signed_zero_velocities_give_one_report(self, tmp_path):
        # 0 is a hull vertex of v^2 on this grid, so decompose lists it
        doc = json.loads((PROBLEMS / "quadratic.json").read_text())
        doc["horizon"].update(a=0.0, b=0.0)
        self.assert_signed_zeros_give_one_report(tmp_path, str(write_problem(tmp_path, doc)))

    def test_signed_zero_velocities_give_one_target(self, tmp_path):
        # 0 is not a hull vertex of the double well: each interval's target
        # is the CSV's own velocity, which was -0.0 in the -0 file's report
        self.assert_signed_zeros_give_one_report(tmp_path, str(PROBLEMS / "doublewell.json"))


class TestExitCodeTable:
    """``main`` turns every library error into one ``error:`` line and the
    exit code of its class."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (SchemaError, 2),
            (OutOfDomainError, 2),
            (DegenerateInputError, 2),
            (NotAutonomousError, 2),
            (InfeasibleError, 3),
            (CertificateError, 4),
            (VarelaxError, 2),
        ],
    )
    def test_each_error_class(self, error, code, monkeypatch, capsys):
        def fail(path):
            raise error("the message")

        monkeypatch.setattr(cli.vio, "parse_problem", fail)
        assert main(["classify", str(PROBLEMS / "quadratic.json")]) == code
        assert capsys.readouterr().err.splitlines() == ["error: the message"]

    def test_unwritable_out_is_a_bare_varelax_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "cert.json"
        assert main(["classify", str(PROBLEMS / "quadratic.json"), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}")


class TestDriftFitFailure:
    """A drift LP that cannot be solved ends ``classify`` with exit 4 and one line."""

    def run(self, tmp_path, capsys):
        tv = str(PROBLEMS / "doublewell_timevarying.json")
        code = main(["classify", tv, "--out", str(tmp_path / "cert.json")])
        err = capsys.readouterr().err
        assert code == 4
        assert err.count("\n") == 1 and err.startswith("error: drift-bound fit failed")
        return err

    def test_pivot_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(classify, "LP_PIVOTS_PER_ROW", 0)
        assert "pivots" in self.run(tmp_path, capsys)

    def test_non_finite_samples(self, tmp_path, capsys, monkeypatch):
        samples = classify._drift_samples

        def with_nan(problem, probe):
            abs_phi, abs_x, abs_v = samples(problem, probe)
            return abs_phi, abs_x, np.where(abs_v == abs_v.max(), np.nan, abs_v)

        monkeypatch.setattr(classify, "_drift_samples", with_nan)
        assert "not all finite" in self.run(tmp_path, capsys)

class TestSolveTolerance:
    def test_tol_replaces_only_the_state_cost_slack(self, tmp_path):
        # at 37x41 the reconstruction's velocity cost exceeds the relaxed one
        # by a few ulps, inside f_tolerance, and the state costs agree
        out = tmp_path / "solution.json"
        argv = ["solve", str(PROBLEMS / "doublewell.json"), "--n-t", "37", "--n-x", "41"]
        assert main(argv + ["--tol", "0", "--out", str(out)]) == 0
        comparison = json.loads(out.read_text())["comparison"]
        assert comparison["tolerance"] == 0.0
        assert 0.0 < comparison["total_gap"] <= comparison["f_tolerance"]
        assert comparison["passed"] is True


class TestSweepExplainsExit:
    def test_readme_sweep_names_the_infeasible_budgets(self, tmp_path, capsys):
        # at the shipped 256x256 every budget up to l = 4 needs more than
        # its 64 levels; the report itself stays all null
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                str(PROBLEMS / "quadratic.json"),
                "--l-schedule", "0.25:4:16",
                "--out", str(out),
            ]
        )
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "sweep did not settle: 16 of 16 budgets admit no grid path; at l=4 "
            "the fewest budget units of any path are 255 > budget_levels 64\n"
        )
        doc = json.loads(out.read_text())
        assert doc["values"] == [None] * 16

    def test_settled_sweep_is_silent(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                str(PROBLEMS / "quadratic.json"),
                "--n-t", "32", "--n-x", "32",
                "--l-schedule", "0.25:4:16",
                "--out", str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == ""


class TestRelaxBudgetUnderPenalty:
    """``relax`` takes the penalized solver when the file sets a penalty;
    the speed budget must bind there as it does in the plain solve."""

    def relax(self, tmp_path, capsys, theta):
        doc = json.loads((PROBLEMS / "quadratic.json").read_text())
        doc["numerics"].update(n_t=16, n_x=17, theta=theta)
        path = write_problem(tmp_path, doc)
        code = main(["relax", str(path), "--out", str(tmp_path / "traj.csv")])
        return code, capsys.readouterr().err

    def test_budget_below_every_path_is_infeasible_with_or_without_penalty(
        self, tmp_path, capsys
    ):
        # every path from 0 to 1 needs a budget of at least 1.0 (Jensen)
        theta = {"name": "power_p", "params": {"p": 2.0}, "budget": 0.5}
        want = (3, "error: speed budget excludes every admissible path\n")
        assert self.relax(tmp_path, capsys, theta) == want
        assert self.relax(tmp_path, capsys, dict(theta, penalty=0.5)) == want
        assert not (tmp_path / "traj.csv").exists()


# g = -1e308 x^2 overflows on the probe box [-2, 2]
OVERFLOWING_G = {
    "horizon": {"T": 1.0, "a": 0.0, "b": 0.0},
    "f": {"base": {"name": "double_well"}},
    "g": {"base": {"name": "concave_quadratic", "params": {"kappa": 1e308}}},
    "numerics": {"n_t": 8, "n_x": 9, "state_box": [-2.0, 2.0], "velocity_cap": 8.0},
}
# (command, extra flags, numerics.radius_schedule or a whole problem
# document or None, documented exit code)
BAD_INPUTS = [
    *[(cmd, ["--tol", tol], None, 2) for cmd in ("sweep", "solve") for tol in ("nan", "-1", "inf")],
    ("classify", [], [-4, 1, 2, 3], 2),
    ("classify", [], [0, 1, 2, 3], 2),
    ("classify", [], [1e-300, 2e-300, 3e-300, 4e-300], 4),
    *[
        pytest.param(cmd, [], OVERFLOWING_G, 2, id=f"{cmd}-overflowing-g")
        for cmd in ("relax", "classify")
    ],
]


@pytest.mark.parametrize("command, flags, radii, code", BAD_INPUTS)
def test_bad_input_ends_with_one_error_line(tmp_path, command, flags, radii, code):
    """A bad input ends with its documented exit code and exactly one
    ``error:`` line on stderr, never a traceback, from a fresh process."""
    if isinstance(radii, dict):
        doc = radii
    else:
        doc = json.loads((PROBLEMS / "quadratic.json").read_text())
        if radii is not None:
            doc["numerics"]["radius_schedule"] = radii
    argv = [command, str(write_problem(tmp_path, doc)), "--out", str(tmp_path / "out"), *flags]
    if command == "sweep":
        argv += ["--l-schedule", "0.5:4:4"]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "varelax.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    lines = run.stderr.splitlines()
    assert run.returncode == code, run.stderr
    assert len(lines) == 1 and lines[0].startswith("error: "), run.stderr
    if isinstance(radii, dict):
        assert "state cost g" in lines[0]
    elif radii is not None and code == 2:
        assert "numerics.radius_schedule" in lines[0]
    assert "Traceback" not in run.stderr
