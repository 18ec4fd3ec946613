"""scipy and ``numpy.ma`` are never needed at runtime.

The runtime dependencies are numpy alone; scipy serves only as a test
oracle.  ``numpy.ma`` costs about 18 ms of start-up, and plain
``numpy.unique`` and ``numpy.median`` import it.  Each check starts a
fresh interpreter, so modules loaded by other tests cannot hide an import,
and refuses every ``scipy`` and ``numpy.ma`` import there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"

# Refuses any scipy or numpy.ma import, then runs cli.main on each argv
# given as a JSON list and, when the second argument is "split", splits a
# criterion-1 cloud with decompose_2d; prints the exit codes and the number
# of support points.
PROBE = """
import json, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "ma"]:
            raise ImportError(f"import refused: {name}")
        return None

sys.meta_path.insert(0, Refuse())

import numpy as np
from varelax.cli import main
from varelax.convex import EpigraphCloud2D, decompose_2d

codes = [main(argv) for argv in json.loads(sys.argv[1])]
support = None
if sys.argv[2] == "split":
    rng = np.random.default_rng(0)
    side = np.sort(rng.uniform(-1.5, 1.5, size=7))
    pts = np.array([[x, y] for x in side for y in side])
    cloud = EpigraphCloud2D(pts, rng.uniform(0.0, 2.0, size=pts.shape[0]))
    lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
    dec = decompose_2d(cloud, lo + (hi - lo) * rng.uniform(0.3, 0.7, size=2))
    support = int(dec.weights.size)
print(json.dumps({"codes": codes, "support": support}))
"""


def run_fresh(commands, split_2d=False):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands), "split" if split_2d else "-"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_lp_free_commands_load_no_scipy(tmp_path):
    dw, quad = str(PROBLEMS / "doublewell.json"), str(PROBLEMS / "quadratic.json")
    tv = str(PROBLEMS / "doublewell_timevarying.json")
    traj = str(tmp_path / "dw_relaxed.csv")
    rest = tmp_path / "rest.csv"
    rest.write_text("t,x,xdot\n" + "".join(f"{k / 128!r},0.0,-0\n" for k in range(129)))
    commands = [
        ["relax", dw, "--out", traj],
        ["verify", dw, "--traj", traj, "--out", str(tmp_path / "dw_verify.json")],
        ["decompose", dw, "--traj", traj, "--out", str(tmp_path / "dw_dec.json")],
        ["classify", quad, "--out", str(tmp_path / "quad_cert.json")],
        # relax reads only the H1/H2 lines, never the drift fit
        ["relax", tv, "--out", str(tmp_path / "tv_relaxed.csv")],
        # the grid of the budget-sweep benchmark, where the sweep settles
        ["sweep", quad, "--n-t", "64", "--n-x", "129", "--l-schedule", "0.25:4:16",
         "--out", str(tmp_path / "sweep.json")],
        # a resting path whose velocities are written -0, beside the grid's 0
        ["verify", dw, "--traj", str(rest), "--out", str(tmp_path / "rest_verify.json")],
        ["decompose", dw, "--traj", str(rest), "--out", str(tmp_path / "rest_dec.json")],
    ]
    seen = run_fresh(commands)
    # the exit codes of the same commands with scipy importable
    assert seen["codes"] == [0] * len(commands)


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


def test_decompose_2d_runs_with_scipy_refused():
    seen = run_fresh([], split_2d=True)
    assert 1 <= seen["support"] <= 3
