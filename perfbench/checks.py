"""Correctness checks for every operation a run attempted.

Each check compares the program's outputs with ``oracle`` (independent
numpy references) and returns a list of failure messages; an operation
with any message counts as failed.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path

import numpy as np

import oracle
from workloads import CLI_EXPECTED_EXIT, problem_path

DP_REL = 1e-9  # relaxed value against the dense min-plus DP
MEAN_REL = 1e-12  # autonomous g = 0: value against T * f**((b - a)/T)


class Reference:
    """Oracle figures for one problem file at one grid, computed on demand."""

    def __init__(self, root: Path, problem: str, n_t: int | None = None, n_x: int | None = None):
        self.spec = oracle.load_spec(problem_path(root, problem), n_t, n_x)
        self.qs = oracle.quotient_set(self.spec)
        self._envelopes: dict[float, np.ndarray] = {}

    @cached_property
    def value(self) -> float:
        return oracle.dense_dp(self.spec, self.qs)

    @cached_property
    def mean_value(self) -> float:
        return oracle.mean_velocity_value(self.spec, self.qs)

    def envelope(self, t: float) -> np.ndarray:
        """f** at every admissible quotient, at time t."""
        key = 0.0 if self.spec.f.autonomous else float(t)
        if key not in self._envelopes:
            self._envelopes[key] = oracle.envelope_on_reps(self.spec, self.qs, key)
        return self._envelopes[key]

    def rep_index(self, q: float) -> int:
        k = int(np.searchsorted(self.qs.reps, q))
        if k >= self.qs.reps.size or self.qs.reps[k] != q:
            return -1
        return k


class References:
    """One Reference per (problem, n_t, n_x), built on first use."""

    def __init__(self, root: Path):
        self.root = root
        self.cache: dict[tuple, Reference] = {}

    def __call__(self, problem: str, n_t: int | None = None, n_x: int | None = None) -> Reference:
        key = (problem, n_t, n_x)
        if key not in self.cache:
            self.cache[key] = Reference(self.root, problem, n_t, n_x)
        return self.cache[key]


# ---------------------------------------------------------------------------
# Trajectory-level checks shared by fine-grid and cli-shipped.
# ---------------------------------------------------------------------------


def check_relaxed(ref: Reference, states, value: float) -> list[str]:
    spec, bad = ref.spec, []
    if states[0] != spec.a or states[-1] != spec.b:
        bad.append("relaxed endpoints are not exact")
    if not oracle.close(value, ref.value, DP_REL):
        bad.append(f"relaxed value {value!r} != dense DP {ref.value!r}")
    if spec.autonomous_free and not oracle.close(value, ref.mean_value, MEAN_REL):
        bad.append(f"relaxed value {value!r} != T*f**(mean) {ref.mean_value!r}")
    return bad


def check_energy(ref: Reference, times, states, velocities, energy) -> list[str]:
    """Interval energy f** - p*u' + g with p the midpoint subgradient."""
    reps, spec = ref.qs.reps, ref.spec
    worst = 0.0
    for t, x, q, e in zip(times, states, velocities, energy):
        env = ref.envelope(t)
        m = ref.rep_index(q)
        if m < 0:
            return [f"relaxed velocity {q!r} is not an admissible quotient"]
        slopes = np.diff(env) / np.diff(reps)
        left = slopes[m - 1] if m > 0 else slopes[0]
        right = slopes[m] if m < slopes.size else slopes[-1]
        p = 0.5 * (left + right)
        g = float(spec.g(t, np.array([x]))[0])
        expect = env[m] - p * q + g
        scale = 1.0 + abs(env[m]) + abs(p * q) + abs(g)
        worst = max(worst, abs(e - expect) / scale)
    return [] if worst <= 1e-9 else [f"interval energy off by {worst:.3g} (scaled)"]


def check_reconstructed(ref: Reference, relaxed_times, rec_times, rec_states, rec_vel,
                        relaxed_f_cost: float, f_tolerance: float) -> list[str]:
    spec, bad = ref.spec, []
    rec_times, rec_states, rec_vel = map(np.asarray, (rec_times, rec_states, rec_vel))
    if rec_states[0] != spec.a or rec_states[-1] != spec.b:
        bad.append("reconstructed endpoints are not exact")
    durations = np.diff(rec_times)
    drift = np.abs(np.diff(rec_states) - rec_vel * durations) / (1.0 + np.abs(rec_states[1:]))
    if np.any(durations <= 0.0) or float(np.max(drift)) > 1e-9:
        bad.append("reconstructed states do not follow speed * duration")
    interval = np.clip(
        np.searchsorted(relaxed_times, rec_times[:-1], side="right") - 1, 0, len(relaxed_times) - 2
    )
    f_cost, off_support = 0.0, 0
    for k, (i, v) in enumerate(zip(interval, rec_vel)):
        t = float(relaxed_times[i])
        fv = float(spec.f(t, np.array([v]))[0])
        m = ref.rep_index(float(v))
        if m < 0 or fv - ref.envelope(t)[m] > 1e-12 * (1.0 + abs(fv)):
            off_support += 1
        f_cost += durations[k] * fv
    if off_support:
        bad.append(f"{off_support} reconstructed speeds are not envelope support points")
    if abs(f_cost - relaxed_f_cost) > f_tolerance:
        bad.append(f"reconstructed f-cost gap {f_cost - relaxed_f_cost:.3g} > {f_tolerance:.3g}")
    wells = spec.f.doc["base"]["name"] == "double_well" and "modulation" not in spec.f.doc
    if wells and ref.rep_index(1.0) >= 0 and ref.rep_index(-1.0) >= 0:
        if not np.all(np.abs(rec_vel) == 1.0):
            bad.append("double-well speeds are not all in {-1, +1}")
    return bad


# ---------------------------------------------------------------------------
# In-process grid operations.
# ---------------------------------------------------------------------------


def check_pipeline(ref: Reference, row: dict) -> list[str]:
    bad = check_relaxed(ref, row["states"], row["value"])
    bad += check_energy(ref, row["times"][:-1], row["states"][:-1], row["velocities"], row["energy"])
    if not row["passed"] or abs(row["f_gap"]) > row["f_tolerance"]:
        bad.append(f"compare_costs: f_gap {row['f_gap']:.3g}, passed={row['passed']}")
    bad += check_reconstructed(
        ref, np.asarray(row["times"]), row["rec_times"], row["rec_states"],
        row["rec_velocities"], row["f_cost"], row["f_tolerance"],
    )
    return bad


def check_value_sweep(ref: Reference, row: dict) -> list[str]:
    spec, bad = ref.spec, []
    budgets, values = row["budgets"], row["values"]
    floor = spec.T * float(spec.theta_fn(abs(spec.b - spec.a) / spec.T))
    feasible = [v for v in values if v is not None]
    if any(b > a + 1e-12 * (1.0 + abs(a)) for a, b in zip(feasible, feasible[1:])):
        bad.append("sweep values increase along the schedule")
    # By Jensen every path spends at least T*theta(mean) of budget.
    late = [b for b, v in zip(budgets, values) if v is None and b >= floor]
    if late:
        bad.append(f"infeasible at budgets {late} >= T*theta(mean) = {floor!r}")
    early = [b for b, v in zip(budgets, values) if v is not None and b < floor]
    if early:
        bad.append(f"feasible at budgets {early} < T*theta(mean) = {floor!r}")
    if row["settle_index"] is None:
        bad.append("sweep did not settle")
    elif not oracle.close(values[-1], ref.value, DP_REL):
        bad.append(f"settled value {values[-1]!r} != dense DP optimum {ref.value!r}")
    return bad


def check_duals(row: dict, constrained: dict | None) -> list[str]:
    if constrained is None or "error" in constrained:
        return ["no constrained sweep on this grid to compare the duals with"]
    if constrained["budgets"] != row["budgets"]:
        return ["dual and constrained schedules differ"]
    above = [
        b for b, d, v in zip(row["budgets"], row["values"], constrained["values"])
        if v is not None and d > v + 1e-9 * (1.0 + abs(v))
    ]
    return [f"weak duality fails at budgets {above}"] if above else []


def check_grid_pass(refs: References, ops, rows: list[dict]) -> list[list[str]]:
    sweeps = {
        (op.problem, op.n_t, op.n_x): row
        for op, row in zip(ops, rows) if op.kind == "value_sweep"
    }
    verdicts = []
    for op, row in zip(ops, rows):
        if "error" in row:
            verdicts.append([row["error"]])
            continue
        ref = refs(op.problem, op.n_t, op.n_x)
        if op.kind == "pipeline":
            verdicts.append(check_pipeline(ref, row))
        elif op.kind == "value_sweep":
            verdicts.append(check_value_sweep(ref, row))
        else:
            verdicts.append(check_duals(row, sweeps.get((op.problem, op.n_t, op.n_x))))
    return verdicts


# ---------------------------------------------------------------------------
# CLI commands on the shipped problems.
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """times, states, per-interval velocities of a trajectory CSV."""
    rows = np.array(
        [[float(c) for c in line.split(",")[:3]]
         for line in path.read_text(encoding="utf-8").splitlines()[1:] if line]
    )
    return rows[:, 0], rows[:, 1], rows[:, 2][:-1]


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_cli_op(ref: Reference, problem: str, command: str, code: int, d: Path) -> list[str]:
    expected = CLI_EXPECTED_EXIT.get((problem, command), 0)
    if code != expected:
        return [f"exit {code}, expected {expected}"]
    spec = ref.spec
    verdict = oracle.CLASS_E[spec.f.doc["base"]["name"]]
    if command == "classify":
        report = _json(d / f"{problem}_classify.json")
        bad = []
        if report["class_e"]["verdict"] != verdict:
            bad.append(f"class-E verdict {report['class_e']['verdict']}, analytic {verdict}")
        if report["passed"] != (code == 0):
            bad.append("report 'passed' disagrees with the exit code")
        return bad
    if command == "relax":
        times, states, vel = read_csv(d / f"{problem}_relaxed.csv")
        report = _json(d / f"{problem}_relaxed_dr.json")
        bad = check_relaxed(ref, states, report["trajectory_value"])
        return bad + check_energy(ref, times[:-1], states[:-1], vel,
                                  report["dubois_reymond"]["energy"])
    if command == "solve":
        report = _json(d / f"{problem}_solve.json")
        if code != 0:
            got = report["classification"]["class_e"]["verdict"]
            return [] if got == verdict and not report["classification"]["passed"] else [
                f"certificate failure with class-E verdict {got}"
            ]
        times, states, _ = read_csv(d / f"{problem}_solve_relaxed.csv")
        rec_t, rec_x, rec_v = read_csv(d / f"{problem}_solve_reconstructed.csv")
        cmp = report["comparison"]
        bad = check_relaxed(ref, states, report["relaxed_value"])
        if not cmp["passed"] or abs(cmp["f_gap"]) > cmp["f_tolerance"]:
            bad.append(f"compare_costs: f_gap {cmp['f_gap']:.3g}, passed={cmp['passed']}")
        return bad + check_reconstructed(ref, times, rec_t, rec_x, rec_v,
                                         cmp["f_relaxed"], cmp["f_tolerance"])
    if command == "verify":
        value = _json(d / f"{problem}_verify.json")["trajectory_value"]
        relaxed = _json(d / f"{problem}_relaxed_dr.json")["trajectory_value"]
        return [] if oracle.close(value, relaxed, MEAN_REL) else [
            f"verify value {value!r} != relax value {relaxed!r}"
        ]
    # decompose: every splitting against the oracle envelope
    times, _, vel = read_csv(d / f"{problem}_relaxed.csv")
    decs = _json(d / f"{problem}_decompose.json")["decompositions"]
    if len(decs) != vel.size:
        return [f"{len(decs)} splittings for {vel.size} intervals"]
    worst = 0.0
    for t, q, dec in zip(times, vel, decs):
        w, pts, vals = (np.asarray(dec[k], dtype=float) for k in ("weights", "points", "point_values"))
        m = ref.rep_index(float(q))
        fstar = ref.envelope(t)[m] if m >= 0 else np.inf
        errs = (
            abs(w.sum() - 1.0),
            abs(w @ pts - q) / (1.0 + abs(q)),
            float(np.max(np.abs(vals - spec.f(t, pts)) / (1.0 + np.abs(vals)))),
            abs(w @ vals - fstar) / (1.0 + abs(fstar)),
            float(dec["target"] != q),
        )
        worst = max(worst, *errs)
    return [] if worst <= 1e-9 else [f"splittings off by {worst:.3g} (scaled)"]


def check_cli_pass(refs: References, directory: Path, codes) -> list[list[str]]:
    verdicts = []
    for problem, command, code in codes:
        try:
            verdicts.append(check_cli_op(refs(problem), problem, command, code, directory))
        except (OSError, KeyError, ValueError, IndexError) as exc:
            verdicts.append([f"unreadable output: {type(exc).__name__}: {exc}"])
    return verdicts
