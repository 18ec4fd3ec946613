"""Runs a workload's operations in one process and writes what they returned.

Started by ``run.py`` as a child process: it imports ``varelax`` from the
checkout's ``src``, does one untimed warm-up pass, then whole passes
until ``--seconds`` have elapsed.  With ``--trace 1`` it alternates
untraced and traced passes and adds per-layer figures.  ``worker.json``
in ``--out`` holds pass wall times and the outputs the parent checks.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io as stdio
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BUDGET_SWEEP,
    CLI_PROBLEMS,
    FINE_GRID,
    SWEEP_SCHEDULE,
    cli_pass,
    problem_path,
)

MB = 1024.0 * 1024.0
SPLITS = ("reconstruct.split_count", lambda track: track.split_count)


def _import_varelax(root: Path):
    sys.path.insert(0, str(root / "src"))
    import varelax

    origin = Path(varelax.__file__).resolve()
    if (root / "src").resolve() not in origin.parents:
        raise SystemExit(f"varelax imported from {origin}, not from the checkout")
    return varelax


def _floats(a) -> list[float]:
    return [float(v) for v in a]


def _alloc_peak(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


class GridOps:
    """fine-grid and budget-sweep: the public functions called directly."""

    def __init__(self, varelax, root: Path, workload: str):
        import numpy as np

        self.v = varelax
        self.schedule = np.linspace(*SWEEP_SCHEDULE)
        self.cases = []
        for op in FINE_GRID if workload == "fine-grid" else BUDGET_SWEEP:
            loaded = varelax.parse_problem(problem_path(root, op.problem))
            cfg = dataclasses.replace(
                loaded.config, n_t=op.n_t, n_x=op.n_x, budget_levels=op.levels
            )
            self.cases.append((op, loaded.problem, cfg))

    def run_pass(self, tracer: Tracer | None, clock: speed.Clock) -> list:
        v = self.v
        call = {
            "solve.relaxed": v.solve_relaxed,
            "conditions.dr": v.dubois_reymond_residual,
            "reconstruct.decompose": v.decompose_velocities,
            "reconstruct.rearrange": v.rearrange,
            "reconstruct.compare": v.compare_costs,
            "solve.value_sweep": v.value_sweep,
            "solve.lagrangian": v.lagrangian_sweep,
        }
        if tracer is not None:
            call = {
                n: tracer.wrap(n, fn, SPLITS if n == "reconstruct.decompose" else None)
                for n, fn in call.items()
            }
        results = []
        for op, problem, cfg in self.cases:
            try:
                if op.kind == "pipeline":
                    results.append(clock.time(self._pipeline, call, problem, cfg))
                elif op.kind == "value_sweep":
                    results.append(clock.time(call["solve.value_sweep"], problem, cfg, self.schedule))
                else:
                    results.append(clock.time(call["solve.lagrangian"], problem, cfg, self.schedule))
            except Exception as exc:  # an operation that raises counts as failed
                results.append(exc)
        return results

    @staticmethod
    def _pipeline(call, problem, cfg):
        traj = call["solve.relaxed"](problem, cfg)
        dr = call["conditions.dr"](problem, traj, cfg)
        track = call["reconstruct.decompose"](problem, traj, cfg)
        rec = call["reconstruct.rearrange"](problem, traj, track)
        return traj, dr, rec, call["reconstruct.compare"](problem, traj, rec)

    def summarize(self, results) -> dict:
        out = []
        for (op, _, _), res in zip(self.cases, results):
            row = {}
            if isinstance(res, Exception):
                row["error"] = f"{type(res).__name__}: {res}"
            elif op.kind == "pipeline":
                traj, dr, rec, cmp = res
                row.update(
                    times=_floats(traj.times),
                    states=_floats(traj.states),
                    velocities=_floats(traj.velocities),
                    value=float(traj.value),
                    f_cost=float(traj.f_cost),
                    energy=_floats(dr.energy),
                    rec_times=_floats(rec.times),
                    rec_states=_floats(rec.states),
                    rec_velocities=_floats(rec.velocities),
                    f_gap=float(cmp.f_gap),
                    f_tolerance=float(cmp.f_tolerance),
                    passed=bool(cmp.passed),
                )
            else:
                row.update(
                    budgets=_floats(res.budgets),
                    values=[None if x is None else float(x) for x in res.values],
                    settle_index=res.settle_index,
                )
            out.append(row)
        return {"ops": out}

    def alloc_peaks(self) -> dict[str, float]:
        peaks = {"solve.relaxed_alloc_peak_mb": 0.0, "solve.value_sweep_alloc_peak_mb": 0.0}
        for op, problem, cfg in self.cases:
            if op.kind == "pipeline":
                peak = _alloc_peak(lambda: self.v.solve_relaxed(problem, cfg))
                key = "solve.relaxed_alloc_peak_mb"
            elif op.kind == "value_sweep":
                peak = _alloc_peak(lambda: self.v.value_sweep(problem, cfg, self.schedule))
                key = "solve.value_sweep_alloc_peak_mb"
            else:
                continue
            peaks[key] = max(peaks[key], peak)
        return peaks


class CliOps:
    """cli-shipped, traced: ``varelax.cli.main(argv)`` in this process, with
    the names ``cli`` imports swapped for traced wrappers on traced passes."""

    CLI_NAMES = {
        "class_e_certificate": "classify.class_e",
        "sci_certificate": "classify.sci",
        "hypothesis_check": "classify.hypothesis",
        "solve_relaxed": "solve.relaxed",
        "nagumo_penalized_solve": "solve.relaxed",
        "coercivity_bound_check": "solve.coercivity",
        "value_sweep": "solve.value_sweep",
        "dubois_reymond_residual": "conditions.dr",
        "decompose_velocities": "reconstruct.decompose",
        "rearrange": "reconstruct.rearrange",
        "compare_costs": "reconstruct.compare",
    }
    # varelax.io functions that cli reaches through its ``vio`` alias.
    IO_NAMES = {
        "parse_problem": "io.parse_problem",
        "read_trajectory": "io.read_trajectory",
        "emit_report": "io.emit",
        "emit_trajectory": "io.emit",
        "emit_reconstructed": "io.emit",
        "emit_plot_data": "io.emit",
    }
    COUNTERS = {
        "classify.hypothesis": ("classify.hypothesis_calls", lambda report: 1),
        "reconstruct.decompose": SPLITS,
    }

    def __init__(self, varelax, root: Path, out: Path):
        import varelax.cli as cli
        import varelax.io as vio

        self.v, self.cli, self.vio = varelax, cli, vio
        self.root, self.out = root, out
        self.count = 0

    def run_pass(self, tracer: Tracer | None, clock: speed.Clock) -> list:
        directory = self.out / f"pass{self.count}"
        self.count += 1
        directory.mkdir(parents=True, exist_ok=True)
        main = self.cli.main
        saved = []
        if tracer is not None:
            for module, names in ((self.cli, self.CLI_NAMES), (self.vio, self.IO_NAMES)):
                for attr, span in names.items():
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, tracer.wrap(span, fn, self.COUNTERS.get(span)))
            main = tracer.wrap("cli.main", main)
        codes = []
        try:
            with contextlib.redirect_stderr(stdio.StringIO()):
                for name, command, argv in cli_pass(self.root, directory):
                    codes.append((name, command, clock.time(main, argv)))
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
        return [directory, codes]

    def summarize(self, results) -> dict:
        directory, codes = results
        return {"dir": str(directory), "codes": codes}

    def alloc_peaks(self) -> dict[str, float]:
        peak = 0.0
        for name in CLI_PROBLEMS:
            loaded = self.v.parse_problem(problem_path(self.root, name))
            peak = max(
                peak, _alloc_peak(lambda: self.v.solve_relaxed(loaded.problem, loaded.config))
            )
        return {"solve.relaxed_alloc_peak_mb": peak, "solve.value_sweep_alloc_peak_mb": 0.0}


# Span name -> per-layer metric (self time per pass).
LAYER_SPANS = {
    "cli.main": "cli.self_s",
    "io.parse_problem": "io.parse_problem_s",
    "io.emit": "io.emit_s",
    "io.read_trajectory": "io.read_trajectory_s",
    "classify.class_e": "classify.class_e_s",
    "classify.sci": "classify.sci_s",
    "classify.hypothesis": "classify.hypothesis_s",
    "solve.relaxed": "solve.relaxed_s",
    "solve.coercivity": "solve.coercivity_s",
    "solve.value_sweep": "solve.value_sweep_s",
    "solve.lagrangian": "solve.lagrangian_s",
    "conditions.dr": "conditions.dr_s",
    "reconstruct.decompose": "reconstruct.decompose_s",
    "reconstruct.rearrange": "reconstruct.rearrange_s",
    "reconstruct.compare": "reconstruct.compare_s",
}
LAYER_COUNTS = ("classify.hypothesis_calls", "reconstruct.split_count")


def layer_figures(tracer: Tracer, traced: list[dict], plain_s: list[float]) -> dict:
    """Per-layer figures of the traced passes; times at reference speed."""
    per_pass = tracer.pass_self_times("pass")
    factors = [p["seconds"] / p["wall_seconds"] for p in traced]
    out = {
        metric: statistics.median(p.get(span, 0.0) * f for p, f in zip(per_pass, factors))
        for span, metric in LAYER_SPANS.items()
    }
    traced_s = [p["seconds"] for p in traced]
    for name in LAYER_COUNTS:
        out[name] = statistics.median(c.get(name, 0) for c in tracer.counts)
    out["trace.pass_s"] = statistics.median(traced_s)
    out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, help="directory for results and command outputs")
    args = ap.parse_args(argv)
    root, out = Path(args.root), Path(args.out)
    varelax = _import_varelax(root)
    if args.workload == "cli-shipped":
        work = CliOps(varelax, root, out)
    else:
        work = GridOps(varelax, root, args.workload)

    tracer = Tracer() if args.trace else None
    clock = speed.Clock(args.workload)
    work.run_pass(None, clock)  # warm-up, untimed and unchecked
    clock.lap()
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.begin_pass()
            results = tracer.call("pass", work.run_pass, tracer, clock)
        else:
            results = work.run_pass(None, clock)
        laps = clock.lap()
        passes.append({
            "seconds": sum(at_ref for _, at_ref in laps),
            "wall_seconds": sum(wall for wall, _ in laps),
            "op_seconds": [at_ref for _, at_ref in laps],
            "traced": traced,
            **work.summarize(results),
        })
        if time.perf_counter() - start >= args.seconds and (tracer is None or len(passes) > 1):
            break

    result = {"passes": passes}
    if tracer is not None:
        plain_s = [p["seconds"] for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        result["layers"] = layer_figures(tracer, traced, plain_s)
        result["layers"].update(work.alloc_peaks())
        tracer.dump(out / "spans.json")
    (out / "worker.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
