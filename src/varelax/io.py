"""Problem-file schema, trajectory CSV, and deterministic JSON reports.

Problem files are JSON documents with four sections::

    {
      "horizon":  {"T": 1.0, "a": 0.0, "b": 1.0},
      "f": {"base": {"name": "double_well"},
            "modulation": {"name": "power_p", "params": {"p": 2.0}},
            "time_factor": {"name": "sine",
                            "params": {"amplitude": 0.5, "frequency": 1.0}}},
      "g": {"base": {"name": "zero"}},
      "numerics": {"n_t": 128, "n_x": 129, "state_box": [-0.5, 0.5],
                   "velocity_cap": 2.0}
    }

Unknown keys are rejected, every numeric field must be finite, and all
catalog names must resolve.  Identical inputs produce byte-identical
outputs: reports are key-sorted JSON, trajectories are 17-significant-
digit CSV with LF line endings.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import (
    NagumoFunction,
    finite_number,
    nagumo_function,
    state_function,
    time_factor,
    velocity_function,
)
from .classify import _radii
from .discretize import Discretization
from .errors import CertificateError, OutOfDomainError, SchemaError, VarelaxError
from .families import IntegrandFamily
from .problem import DPConfig, Problem, Trajectory


@dataclass(frozen=True, eq=False)
class LoadedProblem:
    name: str
    problem: Problem
    config: DPConfig
    radius_schedule: np.ndarray | None


def _section(doc: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise SchemaError(f"{path}: missing keys {missing}")
    return doc


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer")
    return value


def _read(path: Path, what: str) -> str:
    """The UTF-8 text of the problem file or trajectory at ``path``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read {what}: {exc}") from exc


def _entry(doc, path: str) -> tuple[str, dict]:
    sec = _section(doc, path, ("name",), ("params",))
    name = sec["name"]
    if not isinstance(name, str):
        raise SchemaError(f"{path}.name: expected a string")
    params = sec.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"{path}.params: expected an object")
    return name, params


def _family(doc, path: str, shape_builder) -> IntegrandFamily:
    sec = _section(doc, path, ("base",), ("modulation", "time_factor"))
    try:
        base = shape_builder(*_entry(sec["base"], f"{path}.base"))
        modulation = None
        factor = None
        if "modulation" in sec:
            modulation = shape_builder(*_entry(sec["modulation"], f"{path}.modulation"))
            if "time_factor" in sec:
                factor = time_factor(*_entry(sec["time_factor"], f"{path}.time_factor"))
        elif "time_factor" in sec:
            raise SchemaError(f"{path}: time_factor given without modulation")
        return IntegrandFamily(base=base, modulation=modulation, factor=factor)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def parse_problem(path: str | Path) -> LoadedProblem:
    """Read and fully validate a problem file."""
    path = Path(path)
    try:
        doc = json.loads(_read(path, "problem file"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    doc = _section(doc, str(path), ("horizon", "f", "g", "numerics"))

    hor = _section(doc["horizon"], "horizon", ("T", "a", "b"))
    horizon = finite_number(hor["T"], "horizon.T")
    start = finite_number(hor["a"], "horizon.a")
    end = finite_number(hor["b"], "horizon.b")

    f_family = _family(doc["f"], "f", velocity_function)
    g_family = _family(doc["g"], "g", state_function)

    num = _section(
        doc["numerics"],
        "numerics",
        ("state_box", "velocity_cap"),
        ("n_t", "n_x", "theta", "radius_schedule"),
    )
    box = num["state_box"]
    if not (isinstance(box, list) and len(box) == 2):
        raise SchemaError("numerics.state_box: expected [lo, hi]")
    state_box = tuple(finite_number(v, f"numerics.state_box[{i}]") for i, v in enumerate(box))
    cap = finite_number(num["velocity_cap"], "numerics.velocity_cap")
    n_t = _integer(num.get("n_t", 128), "numerics.n_t")
    n_x = _integer(num.get("n_x", 129), "numerics.n_x")

    theta_entry: NagumoFunction | None = None
    penalty = 0.0
    budget = None
    levels = 64
    if "theta" in num:
        tsec = _section(num["theta"], "numerics.theta", ("name",), ("params", "penalty", "budget", "levels"))
        entry = _entry({k: tsec[k] for k in ("name", "params") if k in tsec}, "numerics.theta")
        try:
            theta_entry = nagumo_function(*entry)
        except SchemaError as exc:
            raise SchemaError(f"numerics.theta: {exc}") from exc
        if "penalty" in tsec:
            penalty = finite_number(tsec["penalty"], "numerics.theta.penalty")
        if "budget" in tsec and tsec["budget"] is not None:
            budget = finite_number(tsec["budget"], "numerics.theta.budget")
        if "levels" in tsec:
            levels = _integer(tsec["levels"], "numerics.theta.levels")

    schedule = None
    if "radius_schedule" in num:
        raw = num["radius_schedule"]
        if not isinstance(raw, list):
            raise SchemaError("numerics.radius_schedule: expected a list of radii")
        try:
            schedule = _radii([finite_number(v, "numerics.radius_schedule") for v in raw])
        except CertificateError as exc:
            raise SchemaError(f"numerics.radius_schedule: {exc}") from exc

    try:
        problem = Problem(
            horizon=horizon,
            start=start,
            end=end,
            f=f_family,
            g=g_family,
            state_box=state_box,
            velocity_cap=cap,
        )
        config = DPConfig(
            n_t=n_t,
            n_x=n_x,
            theta=theta_entry,
            penalty=penalty,
            theta_budget=budget,
            budget_levels=levels,
        )
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return LoadedProblem(
        name=path.stem, problem=problem, config=config, radius_schedule=schedule
    )


# ---------------------------------------------------------------------------
# Trajectory CSV.
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_text(path: str | Path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise VarelaxError(f"cannot write {path}: {exc}") from exc


def emit_trajectory(trajectory: Trajectory, path: str | Path) -> None:
    """Write node rows ``t,x,xdot``; the last row repeats the final velocity."""
    vels = np.append(trajectory.velocities, trajectory.velocities[-1])
    emit_plot_data({"t": trajectory.times, "x": trajectory.states, "xdot": vels}, path)


def emit_reconstructed(rec, path: str | Path) -> None:
    """Write node rows ``t,x,xdot,piece``; the last row repeats the final
    velocity and piece label, and labels print as whole numbers."""
    vels = np.append(rec.velocities, rec.velocities[-1])
    pieces = np.append(rec.piece, rec.piece[-1])
    emit_plot_data({"t": rec.times, "x": rec.states, "xdot": vels, "piece": pieces}, path)


def read_trajectory(path: str | Path, problem: Problem, cfg: DPConfig) -> Trajectory:
    """Read a ``t,x,xdot`` CSV back into a validated trajectory.

    Every value must be finite, the times must run from 0 to T (within
    1e-9 T), the states must stay in the state box, endpoint states must
    match the problem exactly (17-digit CSV round-trips doubles
    bit-exactly), and velocities must respect the cap.  The costs are
    recomputed on the configuration's envelope grid, and the trajectory
    carries that grid's ``Discretization``, which keeps the table of its
    extension by the velocities.
    """
    path = Path(path)
    lines = _read(path, "trajectory").splitlines()
    if not lines or lines[0].split(",")[:3] != ["t", "x", "xdot"]:
        raise SchemaError(f"{path}: expected a 't,x,xdot' header")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) < 3:
            raise SchemaError(f"{path}:{ln}: expected at least 3 columns")
        try:
            rows.append([float(parts[0]), float(parts[1]), float(parts[2])])
        except ValueError as exc:
            raise SchemaError(f"{path}:{ln}: {exc}") from exc
    if len(rows) < 2:
        raise SchemaError(f"{path}: need at least two rows")
    data = np.array(rows)
    if not np.all(np.isfinite(data)):
        raise SchemaError(f"{path}: trajectory values must be finite")
    times, states, vels = data[:, 0], data[:, 1], data[:, 2][:-1] + 0.0  # -0.0 reads as 0.0
    tol = 1e-9 * problem.horizon
    if abs(times[0]) > tol or abs(times[-1] - problem.horizon) > tol:
        raise SchemaError(f"{path}: times must run from 0 to T = {problem.horizon!r}")
    lo, hi = problem.state_box
    if np.any(states < lo) or np.any(states > hi):
        raise SchemaError(f"{path}: states leave the state box [{lo!r}, {hi!r}]")
    if states[0] != problem.start or states[-1] != problem.end:
        raise SchemaError(f"{path}: endpoint states do not match the problem")
    try:
        disc = Discretization.of(problem, cfg)
        placed, g = disc.extended(vels).path_costs(disc.interval_times(times), states[:-1], vels)
        return Trajectory.costed(
            times, states, vels, placed.values, g, cfg.theta, discretization=disc
        )
    except (SchemaError, OutOfDomainError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON reports.
# ---------------------------------------------------------------------------


def to_jsonable(obj):
    """Recursively convert dataclasses and numpy containers to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit_report(payload, path: str | Path) -> None:
    """Key-sorted, indented JSON; identical payloads give identical bytes."""
    text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2)
    _write_text(path, text + "\n")


def emit_plot_data(columns: dict[str, np.ndarray], path: str | Path) -> None:
    """Plain CSV of aligned columns, every cell at 17 significant digits;
    the trajectory CSVs and the plot-data files share it."""
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float).tolist() for n in names]
    lines = [",".join(names)]
    for row in zip(*arrays):
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")
