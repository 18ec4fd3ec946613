"""The fixed operation lists of the three workloads.

Inputs are the shipped problem files at fixed grids: nothing here is
random, so every seed gives the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Every shipped problem, at its own numerics.  Each runs
# classify, relax, solve, then verify and decompose on relax's CSV.
CLI_PROBLEMS = (
    "doublewell",
    "doublewell_concave",
    "doublewell_timevarying",
    "linear_minus_sqrt",
    "quadratic",
    "sqrt_one_plus",
)
CLI_COMMANDS = ("classify", "relax", "solve", "verify", "decompose")
# The catalog's negative control: class-E verdict "bounded", so the
# certificate gate inside classify and solve exits 4 by design.
CLI_EXPECTED_EXIT = {("sqrt_one_plus", "classify"): 4, ("sqrt_one_plus", "solve"): 4}


@dataclass(frozen=True)
class GridOp:
    """One problem at one grid (and, for sweeps, one budget setting)."""

    kind: str  # "pipeline" | "value_sweep" | "lagrangian_sweep"
    problem: str
    n_t: int
    n_x: int
    levels: int = 64

    @property
    def label(self) -> str:
        extra = f"/L{self.levels}" if self.kind == "value_sweep" else ""
        return f"{self.kind}:{self.problem}@{self.n_t}x{self.n_x}{extra}"


# solve_relaxed -> dubois_reymond_residual -> decompose_velocities ->
# rearrange -> compare_costs.  A time-varying f, a concave g, and an even
# n_x whose interior endpoint 0 is inserted off the uniform grid
# (513 nodes, 15 admissible quotients).
FINE_GRID = (
    GridOp("pipeline", "doublewell", 256, 512),
    GridOp("pipeline", "doublewell_timevarying", 384, 385),
    GridOp("pipeline", "doublewell_concave", 512, 257),
)

# f and theta of quadratic.json on grids where the sweep settles.
SWEEP_SCHEDULE = (0.25, 4.0, 16)  # numpy.linspace arguments
BUDGET_SWEEP = (
    GridOp("value_sweep", "quadratic", 64, 129, levels=128),
    GridOp("lagrangian_sweep", "quadratic", 64, 129),
    GridOp("value_sweep", "quadratic", 128, 129, levels=128),
    GridOp("lagrangian_sweep", "quadratic", 128, 129),
)

WORKLOADS = ("cli-shipped", "fine-grid", "budget-sweep")


def problem_path(root: Path, name: str) -> Path:
    return root / "problems" / f"{name}.json"


def problem_files(root: Path, workload: str) -> list[Path]:
    if workload == "cli-shipped":
        names = CLI_PROBLEMS
    else:
        ops = FINE_GRID if workload == "fine-grid" else BUDGET_SWEEP
        names = tuple(dict.fromkeys(op.problem for op in ops))
    return [problem_path(root, n) for n in names]


def cli_pass(root: Path, out: Path) -> list[tuple[str, str, list[str]]]:
    """(problem, command, argv after ``varelax``) for one pass, writing under ``out``."""
    ops = []
    for name in CLI_PROBLEMS:
        src = str(problem_path(root, name))
        relaxed = out / f"{name}_relaxed.csv"
        for command in CLI_COMMANDS:
            argv = [command, src, "--out", str(out / f"{name}_{command}.json")]
            if command == "relax":
                argv[-1] = str(relaxed)
            if command in ("verify", "decompose"):
                argv += ["--traj", str(relaxed)]
            ops.append((name, command, argv))
    return ops
