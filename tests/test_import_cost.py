"""scipy stays off the everyday CLI path.

scipy is needed only for the 2-d hull.  Each check starts a fresh
interpreter, so modules loaded by other tests cannot hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"

# Imports varelax, then runs cli.main on each argv given as a JSON list;
# prints the scipy modules loaded after the import and after the commands.
PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import varelax
after_import = scipy_modules()
from varelax.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"import": after_import, "codes": codes, "commands": scipy_modules()}))
"""


def run_fresh(commands):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_lp_free_commands_load_no_scipy(tmp_path):
    dw, quad = str(PROBLEMS / "doublewell.json"), str(PROBLEMS / "quadratic.json")
    tv = str(PROBLEMS / "doublewell_timevarying.json")
    traj = str(tmp_path / "dw_relaxed.csv")
    seen = run_fresh(
        [
            ["relax", dw, "--out", traj],
            ["verify", dw, "--traj", traj, "--out", str(tmp_path / "dw_verify.json")],
            ["decompose", dw, "--traj", traj, "--out", str(tmp_path / "dw_dec.json")],
            ["classify", quad, "--out", str(tmp_path / "quad_cert.json")],
            # relax reads only the H1/H2 lines, never the drift fit
            ["relax", tv, "--out", str(tmp_path / "tv_relaxed.csv")],
        ]
    )
    assert seen["codes"] == [0, 0, 0, 0, 0]
    assert seen["import"] == []
    assert seen["commands"] == []


def test_time_dependent_classify_and_solve_load_no_scipy(tmp_path):
    # the drift LP of a time-dependent problem runs on numpy alone
    tv = str(PROBLEMS / "doublewell_timevarying.json")
    seen = run_fresh(
        [
            ["classify", tv, "--out", str(tmp_path / "tv_cert.json")],
            ["solve", tv, "--out", str(tmp_path / "tv_solve.json")],
        ]
    )
    assert seen["codes"] == [0, 0]
    assert seen["import"] == []
    assert seen["commands"] == []
