"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from varelax.catalog import nagumo_function, state_function, time_factor, velocity_function
from varelax.classify import (
    class_e_certificate,
    default_radius_schedule,
    fstar_lipschitz_check,
    hypothesis_check,
    sci_certificate,
)
from varelax.conditions import energy_constancy
from varelax.convex import EnvelopeTable, EpigraphCloud2D, decompose_2d
from varelax.families import IntegrandFamily
from varelax.problem import DPConfig, Problem
from varelax.reconstruct import compare_costs, decompose_velocities, rearrange
from varelax.solve import coercivity_bound_check, solve_relaxed, value_sweep

from test_convex import pair_minimum_oracle
from test_convex_2d import triple_minimum_oracle


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert passed, f"{criterion}: {detail}"


def simple_problem(f_name, f_params=None, g_name="zero", g_params=None, **kw):
    defaults = dict(horizon=1.0, start=0.0, end=1.0, state_box=(0.0, 1.0), velocity_cap=2.0)
    defaults.update(kw)
    return Problem(
        f=IntegrandFamily(base=velocity_function(f_name, f_params)),
        g=IntegrandFamily(base=state_function(g_name, g_params)),
        **defaults,
    )


QUADRATIC = simple_problem("power_p", {"p": 2.0})
DOUBLE_WELL = simple_problem("double_well", start=0.0, end=0.0, state_box=(-0.5, 0.5))
DOUBLE_WELL_CONCAVE = simple_problem(
    "double_well",
    g_name="concave_quadratic",
    g_params={"kappa": 0.25},
    start=0.0,
    end=0.0,
    state_box=(-0.25, 0.25),
)
LINEAR_MINUS_SQRT = simple_problem("linear_minus_sqrt")


def test_criterion_1_decomposition_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 65))
        xs = np.unique(rng.uniform(-4.0, 4.0, size=n))
        if xs.size < 4:
            xs = np.linspace(-1.0, 1.0, 4)
        ys = rng.uniform(0.0, 2.0, size=xs.size)
        table = EnvelopeTable.of(xs, ys[None])
        target = float(rng.uniform(xs[0], xs[-1]))
        envelope = table.split(np.zeros(1, dtype=np.intp), [target]).envelope_values[0]
        worst = max(worst, abs(envelope - pair_minimum_oracle(xs, ys, target)))
    worst2d = 0.0
    for seed in range(10):
        sub = np.random.default_rng(seed)
        side = np.sort(sub.uniform(-1.5, 1.5, size=7))
        pts = np.array([[x, y] for x in side for y in side])
        cloud = EpigraphCloud2D(pts, sub.uniform(0.0, 2.0, size=pts.shape[0]))
        lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
        target = lo + (hi - lo) * sub.uniform(0.3, 0.7, size=2)
        dec = decompose_2d(cloud, target)
        worst2d = max(worst2d, abs(dec.envelope_values[0] - triple_minimum_oracle(cloud, target)))
    elapsed = time.perf_counter() - start
    report(
        "1 decomposition-oracle",
        worst <= 1e-12 and worst2d <= 1e-9 and elapsed < 10.0,
        f"pair gap {worst:.2e}, triple gap {worst2d:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_double_well_analytics():
    ok = True
    details = []
    for xs in (
        np.linspace(-2.0, 2.0, 9),
        np.linspace(-2.0, 2.0, 17),
        np.array([-2.0, -1.3, -1.0, -0.4, 0.0, 0.7, 1.0, 1.8, 2.0]),
    ):
        table = EnvelopeTable.of(xs, ((xs**2 - 1.0) ** 2)[None])
        inside = xs[(xs >= -1.0) & (xs <= 1.0)]
        values = table.at(0, inside)
        ok &= bool(np.max(np.abs(values)) <= 1e-12)
        dec = table.split(np.zeros(1, dtype=np.intp), [0.0])
        k = dec.support[0]
        exact = (
            dec.weights[0, :k].tolist() == [0.5, 0.5]
            and dec.points[0, :k].tolist() == [-1.0, 1.0]
            and dec.envelope_values[0] == 0.0
        )
        ok &= exact
        details.append(f"max|f**| {np.max(np.abs(values)):.1e}")
    report("2 double-well-analytics", ok, "; ".join(details))


def test_criterion_3_classifier_verdicts():
    t_grid = np.linspace(0.0, 1.0, 9)
    base = default_radius_schedule()
    doubled = 2.0 * base
    checks = []
    timings = []
    for name, params, expected in (
        ("power_p", {"p": 2.0}, "diverges"),
        ("linear_minus_sqrt", None, "diverges"),
        ("sqrt_one_plus", None, "bounded"),
    ):
        fam = IntegrandFamily(base=velocity_function(name, params))
        start = time.perf_counter()
        v1 = class_e_certificate(fam, t_grid, base).verdict
        v2 = class_e_certificate(fam, t_grid, doubled).verdict
        timings.append(time.perf_counter() - start)
        checks.append(v1 == expected and v2 == expected)
    fam_abs = IntegrandFamily(base=velocity_function("abs"))
    start = time.perf_counter()
    s1 = sci_certificate(fam_abs, [0.0], base)[0].passed
    s2 = sci_certificate(fam_abs, [0.0], doubled)[0].passed
    timings.append(time.perf_counter() - start)
    checks.append(not s1 and not s2)
    report(
        "3 classifier-verdicts",
        all(checks) and max(timings) < 5.0,
        f"max runtime {max(timings):.2f}s",
    )


def quadratic_errors():
    errors = {}
    for n in (64, 128, 256):
        traj = solve_relaxed(QUADRATIC, DPConfig(n_t=n, n_x=n))
        errors[n] = abs(traj.value - 1.0)
    return errors


def test_criterion_4_quadratic_benchmark():
    start = time.perf_counter()
    errors = quadratic_errors()
    elapsed = time.perf_counter() - start
    r1 = errors[128] / errors[64]
    r2 = errors[256] / errors[128]
    ok = (
        errors[64] <= 0.05
        and errors[256] <= 0.01
        and 0.4 <= r1 <= 0.6
        and 0.4 <= r2 <= 0.6
        and elapsed < 30.0
    )
    report(
        "4 quadratic-benchmark",
        ok,
        f"errors {errors[64]:.4f}/{errors[128]:.4f}/{errors[256]:.4f}, "
        f"ratios {r1:.3f}/{r2:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_dubois_reymond_constancy():
    deviations = []
    for n in (64, 128, 256):
        cfg = DPConfig(n_t=n, n_x=n)
        traj = solve_relaxed(QUADRATIC, cfg)
        deviations.append(energy_constancy(QUADRATIC, traj, cfg))
    monotone = all(b <= a + 1e-12 for a, b in zip(deviations, deviations[1:]))
    report(
        "5 dubois-reymond",
        monotone and deviations[-1] < 0.05,
        f"deviations {deviations[0]:.2e}/{deviations[1]:.2e}/{deviations[2]:.2e}",
    )


def test_criterion_6_value_sweep_settles():
    theta = nagumo_function("power_p", {"p": 2.0})
    cfg = DPConfig(n_t=64, n_x=64, theta=theta)
    schedule = np.linspace(0.25, 4.0, 16)
    rep = value_sweep(QUADRATIC, cfg, schedule)
    feasible = [v for v in rep.values if v is not None]
    monotone = all(b <= a + 1e-9 for a, b in zip(feasible, feasible[1:]))
    settled = rep.settle_index is not None
    budget_ok = settled and 1.0 <= schedule[rep.settle_index] <= 1.5
    report(
        "6 value-sweep",
        monotone and settled and budget_ok,
        f"settles at l={schedule[rep.settle_index]:.2f}" if settled else "no settle",
    )


def test_criterion_7_nonconvex_pipeline():
    cfg = DPConfig(n_t=128, n_x=129)
    traj = solve_relaxed(DOUBLE_WELL, cfg)
    track = decompose_velocities(DOUBLE_WELL, traj, cfg)
    rec = rearrange(DOUBLE_WELL, traj, track)
    speeds = set(np.unique(rec.velocities))
    plain_total = rec.total
    plain_ok = (
        traj.value <= 1e-9
        and speeds <= {-1.0, 1.0}
        and rec.states[0] == 0.0
        and rec.states[-1] == 0.0
        and plain_total <= 1e-6
    )
    gaps = []
    for n_t, n_x in ((256, 129), (512, 257)):
        cfg = DPConfig(n_t=n_t, n_x=n_x)
        relaxed = solve_relaxed(DOUBLE_WELL_CONCAVE, cfg)
        track = decompose_velocities(DOUBLE_WELL_CONCAVE, relaxed, cfg)
        rec = rearrange(DOUBLE_WELL_CONCAVE, relaxed, track)
        cmp = compare_costs(DOUBLE_WELL_CONCAVE, relaxed, rec)
        if n_t == 256 and not cmp.passed:
            report("7 nonconvex-pipeline", False, "comparison failed at n_t=256")
        gaps.append(abs(cmp.total_gap))
    halves = gaps[1] <= 0.7 * gaps[0] and gaps[1] > 0.0
    report(
        "7 nonconvex-pipeline",
        plain_ok and halves,
        f"relaxed {traj.value:.1e}, reconstructed {plain_total:.1e}, "
        f"gap {gaps[0]:.2e}->{gaps[1]:.2e}",
    )


def test_criterion_8_linear_growth_cap_echo():
    # documented baseline cap: 2.0 (problems/linear_minus_sqrt.json)
    cfg = DPConfig(n_t=128, n_x=129)
    base = solve_relaxed(LINEAR_MINUS_SQRT, cfg)
    doubled_problem = simple_problem("linear_minus_sqrt", velocity_cap=4.0)
    doubled = solve_relaxed(doubled_problem, cfg)
    same_value = abs(base.value - doubled.value) <= 1e-9
    same_profile = np.array_equal(base.velocities, doubled.velocities)
    cert = class_e_certificate(LINEAR_MINUS_SQRT.f, np.array([0.0]))
    report(
        "8 cap-echo",
        same_value and same_profile and cert.diverges,
        f"value {base.value:.9f}, class-E {cert.verdict}",
    )


def test_criterion_9_envelope_time_lipschitz():
    fam = IntegrandFamily(
        base=velocity_function("double_well"),
        modulation=velocity_function("power_p", {"p": 2.0}),
        factor=time_factor("sine", {"amplitude": 0.5, "frequency": 1.0}),
    )
    rep = fstar_lipschitz_check(fam, np.array([0.0]), np.linspace(0.0, 1.0, 9))
    entry = rep.entries[0]
    bound_ok = entry.envelope_rate <= (1.0 + 1e-6) * entry.integrand_rate + 1e-15
    report(
        "9 time-lipschitz",
        rep.passed and bound_ok and entry.conclusive,
        f"envelope {entry.envelope_rate:.4f} <= ball {entry.integrand_rate:.4f} "
        f"(radius {entry.support_radius:.3f})",
    )


def test_criterion_10_coercivity_chain():
    cases = (
        (QUADRATIC, DPConfig(n_t=64, n_x=64)),
        (DOUBLE_WELL, DPConfig(n_t=64, n_x=65)),
        (DOUBLE_WELL_CONCAVE, DPConfig(n_t=128, n_x=65)),
        (LINEAR_MINUS_SQRT, DPConfig(n_t=64, n_x=65)),
    )
    details = []
    ok = True
    for problem, cfg in cases:
        hyp = hypothesis_check(problem)
        if not (hyp.h1_pass and hyp.h2_pass):
            ok = False
            details.append("hypotheses failed")
            continue
        traj = solve_relaxed(problem, cfg)
        rep = coercivity_bound_check(problem, traj, hyp, cfg)
        ok &= rep.consistent and rep.velocity_bound_ok
        details.append(f"|u'|_1 {rep.velocity_l1:.3f} <= {rep.velocity_l1_bound:.3f}")
    report("10 coercivity-chain", ok, "; ".join(details))
