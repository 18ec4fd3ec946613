"""Command-line entry points.

Every command is a pure function of the problem file and flags: no
wall-clock, no randomness, byte-identical outputs on identical inputs.

Exit codes: 0 success, 1 usage, 2 parse/input error, 3 infeasible,
4 certificate failure, 5 acceptance failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as vio
from .classify import (
    class_e_certificate,
    hypothesis_check,
    linear_bounds,
    probe_times,
    sci_certificate,
)
from .conditions import dubois_reymond_residual
from .errors import CertificateError, InfeasibleError, SchemaError, VarelaxError
from .problem import DPConfig, Problem, SweepReport
from .reconstruct import compare_costs, decompose_velocities, rearrange
from .solve import (
    coercivity_bound_check,
    fewest_budget_units,
    nagumo_penalized_solve,
    settle_index,
    solve_relaxed,
    value_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_CERTIFICATE = 4
EXIT_ACCEPTANCE = 5
# The exit code of each library error class; a subclass takes its nearest
# listed ancestor's, and every other input error is a parse error.
EXIT_CODES = {
    InfeasibleError: EXIT_INFEASIBLE,
    CertificateError: EXIT_CERTIFICATE,
    VarelaxError: EXIT_PARSE,
}


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("problem", help="problem definition file (JSON)")
    sub.add_argument("--out", help="primary output path; siblings derive from its stem")
    sub.add_argument("--n-t", type=int, help="override the number of time intervals")
    sub.add_argument("--n-x", type=int, help="override the number of state grid points")
    sub.add_argument("--xi-max", type=float, help="override the velocity cap")
    sub.add_argument(
        "--tol",
        type=float,
        help="override the pass tolerance (sweep settle check, solve cost comparison)",
    )
    sub.add_argument(
        "--plot-data",
        action="store_true",
        help="also emit plain CSV of the energy/chi/value curves for external plotting",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varelax",
        description="Relaxation-based solver for fixed-endpoint variational problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural certificates for the integrands")
    _common_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("relax", help="solve the relaxed problem")
    _common_flags(p)
    p.set_defaults(func=_cmd_relax)

    p = sub.add_parser("sweep", help="constrained values along a speed-budget schedule")
    _common_flags(p)
    p.add_argument("--l-schedule", required=True, help="budget schedule as start:stop:count")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("solve", help="full pipeline: certify, relax, verify, reconstruct")
    _common_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="necessary-condition residual of a trajectory file")
    _common_flags(p)
    p.add_argument("--traj", required=True, help="trajectory CSV (t,x,xdot)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decompose", help="velocity splittings of a trajectory file")
    _common_flags(p)
    p.add_argument("--traj", required=True, help="trajectory CSV (t,x,xdot)")
    p.set_defaults(func=_cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except VarelaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


def _load(args) -> tuple[str, Problem, DPConfig, np.ndarray | None]:
    loaded = vio.parse_problem(args.problem)
    problem, cfg = loaded.problem, loaded.config
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise SchemaError(f"--tol must be finite and >= 0, got {args.tol!r}")
    if args.xi_max is not None:
        problem = replace(problem, velocity_cap=args.xi_max)
    if args.n_t is not None or args.n_x is not None:
        cfg = replace(
            cfg,
            n_t=args.n_t if args.n_t is not None else cfg.n_t,
            n_x=args.n_x if args.n_x is not None else cfg.n_x,
        )
    return loaded.name, problem, cfg, loaded.radius_schedule


def _out_base(args, default_name: str, default_suffix: str) -> Path:
    if args.out:
        return Path(args.out)
    return Path(f"{default_name}{default_suffix}")


def _classification(problem: Problem, schedule: np.ndarray | None) -> dict:
    t_grid = probe_times(problem)
    class_e = class_e_certificate(problem.f, t_grid, schedule)
    sci = sci_certificate(problem.f, t_grid, schedule)
    hyp = hypothesis_check(problem)
    required = {
        "class_e_diverges": class_e.diverges,
        "sci_all_times": all(c.passed for c in sci),
        "linear_lower_bound": hyp.h1_pass,
        "state_bound_margin": hyp.h2_pass,
        "convex_or_concave": hyp.f_convex or hyp.g_concave,
    }
    return {
        "class_e": class_e,
        "sci": {f"{t:.6g}": cert for t, cert in zip(t_grid, sci)},
        "hypotheses": hyp,
        "required": required,
        "passed": all(required.values()),
    }


def _cmd_classify(args) -> int:
    name, problem, cfg, schedule = _load(args)
    report = _classification(problem, schedule)
    out = _out_base(args, name, "_certificates.json")
    vio.emit_report(report, out)
    if args.plot_data:
        _emit_chi_csv(report["class_e"], out.with_name(out.stem + "_chi.csv"))
    return EXIT_OK if report["passed"] else EXIT_CERTIFICATE


def _cmd_relax(args) -> int:
    name, problem, cfg, _ = _load(args)
    bounds = linear_bounds(problem)
    hypotheses_pass = bounds.h1_pass and bounds.h2_pass
    if not hypotheses_pass:
        print(
            "warning: hypothesis constants failed on the probe box; solving anyway",
            file=sys.stderr,
        )
    if cfg.penalty > 0.0:
        trajectory = nagumo_penalized_solve(problem, cfg)
    else:
        trajectory = solve_relaxed(problem, cfg)
    dr = dubois_reymond_residual(problem, trajectory, cfg)
    out = _out_base(args, name, "_relaxed.csv")
    vio.emit_trajectory(trajectory, out)
    vio.emit_report(
        {
            "trajectory_value": trajectory.value,
            "warnings": list(trajectory.warnings),
            "hypotheses_pass": hypotheses_pass,
            "dubois_reymond": dr,
        },
        out.with_name(out.stem + "_dr.json"),
    )
    if args.plot_data:
        _emit_energy_csv(dr, out.with_name(out.stem + "_energy.csv"))
    return EXIT_OK


def _emit_chi_csv(class_e, path: Path) -> None:
    vio.emit_plot_data({"radius": class_e.radii, "chi": class_e.chi_values}, path)


def _emit_energy_csv(dr, path: Path) -> None:
    vio.emit_plot_data(
        {"t": dr.times, "E": dr.energy, "drift": dr.drift, "residual": dr.residual},
        path,
    )


def _parse_schedule(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise SchemaError("--l-schedule must be start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SchemaError(f"--l-schedule: {exc}") from exc
    if count < 2 or not (np.isfinite(start) and np.isfinite(stop) and 0 < start < stop):
        raise SchemaError("--l-schedule needs 0 < start < stop and count >= 2")
    return np.linspace(start, stop, count)


def _cmd_sweep(args) -> int:
    name, problem, cfg, _ = _load(args)
    if cfg.theta is None:
        raise SchemaError("sweep requires a theta entry in the problem's numerics")
    schedule = _parse_schedule(args.l_schedule)
    report = value_sweep(problem, cfg, schedule)
    if args.tol is not None:
        report.settle_index = settle_index(report.budgets, report.values, args.tol)
    out = _out_base(args, name, "_sweep.json")
    vio.emit_report(report, out)
    if args.plot_data:
        feasible = [(b, v) for b, v in zip(report.budgets, report.values) if v is not None]
        vio.emit_plot_data(
            {
                "l": np.array([b for b, _ in feasible]),
                "V": np.array([v for _, v in feasible]),
            },
            out.with_name(out.stem + "_vl.csv"),
        )
    if report.settled:
        return EXIT_OK
    print(_unsettled_reason(problem, cfg, report), file=sys.stderr)
    return EXIT_ACCEPTANCE


def _unsettled_reason(problem: Problem, cfg: DPConfig, report: SweepReport) -> str:
    """One line on a sweep that did not settle: how many budgets admit no
    grid path, and by how much the largest of them misses."""
    infeasible = [b for b, v in zip(report.budgets, report.values) if v is None]
    line = (
        f"sweep did not settle: {len(infeasible)} of {report.budgets.size} "
        "budgets admit no grid path"
    )
    if infeasible:
        units = fewest_budget_units(problem, cfg, float(infeasible[-1]))
        line += (
            f"; at l={infeasible[-1]:g} the fewest budget units of any path are "
            f"{units:.0f} > budget_levels {cfg.budget_levels}"
        )
    return line


def _cmd_solve(args) -> int:
    name, problem, cfg, schedule = _load(args)
    classification = _classification(problem, schedule)
    out = _out_base(args, name, "_solution.json")
    if not classification["passed"]:
        vio.emit_report({"classification": classification}, out)
        print("certificate failure; see report", file=sys.stderr)
        return EXIT_CERTIFICATE
    trajectory = solve_relaxed(problem, cfg)
    dr = dubois_reymond_residual(problem, trajectory, cfg)
    track = decompose_velocities(problem, trajectory, cfg)
    rec = rearrange(problem, trajectory, track)
    comparison = compare_costs(problem, trajectory, rec)
    if args.tol is not None:
        comparison = replace(comparison, tolerance=args.tol)
    coercivity = coercivity_bound_check(problem, trajectory, classification["hypotheses"], cfg)
    relaxed_csv = out.with_name(out.stem + "_relaxed.csv")
    reconstructed_csv = out.with_name(out.stem + "_reconstructed.csv")
    vio.emit_trajectory(trajectory, relaxed_csv)
    vio.emit_reconstructed(rec, reconstructed_csv)
    vio.emit_report(
        {
            "classification": classification,
            "relaxed_value": trajectory.value,
            "warnings": list(trajectory.warnings),
            "dubois_reymond": dr,
            "decomposition": track.report(),
            "comparison": comparison,
            "coercivity": coercivity,
        },
        out,
    )
    if args.plot_data:
        _emit_chi_csv(classification["class_e"], out.with_name(out.stem + "_chi.csv"))
        _emit_energy_csv(dr, out.with_name(out.stem + "_energy.csv"))
    return EXIT_OK if comparison.passed else EXIT_ACCEPTANCE


def _cmd_verify(args) -> int:
    name, problem, cfg, _ = _load(args)
    trajectory = vio.read_trajectory(args.traj, problem, cfg)
    dr = dubois_reymond_residual(problem, trajectory, cfg)
    out = _out_base(args, name, "_verify.json")
    vio.emit_report({"trajectory_value": trajectory.value, "dubois_reymond": dr}, out)
    # the energy sequence is part of the verify contract, not just plot data
    _emit_energy_csv(dr, out.with_name(out.stem + "_energy.csv"))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    name, problem, cfg, _ = _load(args)
    trajectory = vio.read_trajectory(args.traj, problem, cfg)
    track = decompose_velocities(problem, trajectory, cfg)
    out = _out_base(args, name, "_decomposition.json")
    vio.emit_report(track.report(), out)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
