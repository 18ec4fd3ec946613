"""Certificate checks: divergence verdicts, ray detection, hypothesis
constants, and envelope time-regularity.

Closed-form linearization defects used below (all hand-differentiated):
  x^2          -> x^2 - 2x*x        = -x^2            (diverges)
  |x|-sqrt(1+|x|)+1 -> -(2+|x|)/(2 sqrt(1+|x|)) + 1   (diverges like -sqrt|x|/2)
  sqrt(1+x^2)  -> 1/sqrt(1+x^2)                        (bounded)
"""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import envelope_reference as ref
import finite_difference_reference as fd
from varelax import classify, convex
from varelax.catalog import state_function, time_factor, velocity_function
from varelax.cli import main
from varelax.classify import (
    PROBE_STATES,
    PROBE_TIMES,
    PROBE_VELOCITIES,
    ProbeBox,
    _drift_lp,
    _drift_samples,
    _fit_bound_line,
    _fit_drift_bound,
    _hull_edge_slopes,
    _pooled_radial_profile,
    _undominated,
    class_e_certificate,
    default_probe,
    fstar_lipschitz_check,
    hypothesis_check,
    linear_bounds,
    sci_certificate,
)
from varelax.errors import CertificateError
from varelax.families import IntegrandFamily
from varelax.io import parse_problem
from varelax.problem import Problem

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def family(name, params=None, modulation=None, mod_params=None, factor=None, f_params=None):
    return IntegrandFamily(
        base=velocity_function(name, params),
        modulation=velocity_function(modulation, mod_params) if modulation else None,
        factor=time_factor(factor, f_params) if factor else None,
    )


T_GRID = np.array([0.0, 0.5, 1.0])
SHORT_SCHEDULE = 2.0 ** np.arange(2, 8)


class TestClassECertificate:
    def test_superlinear_diverges(self):
        cert = class_e_certificate(family("power_p", {"p": 2.0}), T_GRID, SHORT_SCHEDULE)
        assert cert.verdict == "diverges"
        assert cert.divergence_slope < 0

    def test_linear_growth_diverges_with_low_threshold(self):
        cert = class_e_certificate(
            family("linear_minus_sqrt"), T_GRID, 2.0 ** np.arange(4, 13), threshold=1.0
        )
        assert cert.verdict == "diverges"

    def test_linear_growth_diverges_default(self):
        cert = class_e_certificate(family("linear_minus_sqrt"), np.array([0.0]))
        assert cert.verdict == "diverges"

    def test_sqrt_one_plus_bounded(self):
        cert = class_e_certificate(family("sqrt_one_plus"), np.array([0.0]))
        assert cert.verdict == "bounded"

    def test_abs_bounded(self):
        cert = class_e_certificate(family("abs"), np.array([0.0]), SHORT_SCHEDULE)
        assert cert.verdict == "bounded"

    def test_chi_nonincreasing(self):
        for name in ("power_p", "sqrt_one_plus", "double_well"):
            params = {"p": 2.0} if name == "power_p" else None
            cert = class_e_certificate(family(name, params), T_GRID, SHORT_SCHEDULE)
            diffs = np.diff(cert.chi_values)
            assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(cert.chi_values[:-1])))

    def test_short_schedule_rejected(self):
        with pytest.raises(CertificateError):
            class_e_certificate(family("abs"), T_GRID, np.array([1.0, 2.0]))

    def test_nonpositive_radius_rejected(self):
        for certificate in (class_e_certificate, sci_certificate):
            for schedule in ([0.0, 1.0, 2.0, 3.0], [-4.0, 1.0, 2.0, 3.0]):
                with pytest.raises(CertificateError, match="radius schedule"):
                    certificate(family("abs"), T_GRID, np.array(schedule))


class TestSciCertificate:
    def test_strictly_convex_passes(self):
        assert sci_certificate(family("power_p", {"p": 2.0}), [0.0], SHORT_SCHEDULE)[0].passed

    def test_affine_fails(self):
        (cert,) = sci_certificate(
            family("affine", {"slope": -1.0, "offset": 0.0}), [0.0], SHORT_SCHEDULE
        )
        assert not cert.passed

    def test_abs_fails_both_rays(self):
        (cert,) = sci_certificate(family("abs"), [0.0], SHORT_SCHEDULE)
        assert not cert.passed
        assert all(not p.passed for p in cert.probes)

    def test_divergent_families_pass_sci(self):
        # membership chain: a divergence verdict must come with no rays
        for name, params, schedule in (
            ("power_p", {"p": 2.0}, SHORT_SCHEDULE),
            ("double_well", None, SHORT_SCHEDULE),
            ("linear_minus_sqrt", None, 2.0 ** np.arange(4, 13)),
        ):
            fam = family(name, params)
            cert = class_e_certificate(fam, T_GRID, schedule, threshold=1.0)
            assert cert.verdict == "diverges"
            for cert in sci_certificate(fam, T_GRID, schedule):
                assert cert.passed


def make_problem(f_fam, g_fam, horizon=1.0, box=(-1.0, 1.0), cap=4.0, ends=(0.0, 0.0)):
    return Problem(
        horizon=horizon,
        start=ends[0],
        end=ends[1],
        f=f_fam,
        g=g_fam,
        state_box=box,
        velocity_cap=cap,
    )


class TestHypothesisCheck:
    def test_shifted_parabola_linear_bound(self):
        # f = x^2 - 1 admits -2 + |x| as a lower bound on |x| <= 4
        f_fam = IntegrandFamily(
            base=velocity_function("power_p", {"p": 2.0}),
            modulation=velocity_function("affine", {"slope": 0.0, "offset": -1.0}),
        )
        prob = make_problem(f_fam, IntegrandFamily(base=state_function("zero")))
        report = hypothesis_check(prob)
        assert report.h1_pass
        probe = np.linspace(-4.0, 4.0, 65)
        vals = f_fam.value(0.0, probe)
        assert np.all(vals >= -2.0 + np.abs(probe) - 1e-12)
        assert np.all(
            vals >= -report.f_bound_offset + report.f_bound_slope * np.abs(probe) - 1e-9
        )

    def test_concave_quadratic_state_bound(self):
        g_fam = IntegrandFamily(base=state_function("concave_quadratic", {"kappa": 1.0}))
        prob = make_problem(family("power_p", {"p": 2.0}), g_fam, box=(-1.0, 1.0))
        report = hypothesis_check(prob)
        assert report.g_concave
        assert report.g_bound_offset == pytest.approx(0.0, abs=1e-12)
        assert report.g_bound_slope == pytest.approx(1.0, abs=1e-12)

    def test_zero_state_cost(self):
        prob = make_problem(
            family("power_p", {"p": 2.0}), IntegrandFamily(base=state_function("zero"))
        )
        report = hypothesis_check(prob)
        assert report.g_bound_offset == 0.0
        assert report.g_bound_slope == 0.0
        assert report.slope_margin == pytest.approx(
            report.f_bound_slope / prob.horizon, rel=1e-12
        )
        assert report.h2_pass

    def test_convexity_flags(self):
        prob = make_problem(
            family("double_well"), IntegrandFamily(base=state_function("zero"))
        )
        report = hypothesis_check(prob)
        assert not report.f_convex
        assert report.g_concave

    def test_time_lipschitz_measured(self):
        fam = family(
            "double_well",
            modulation="power_p",
            mod_params={"p": 2.0},
            factor="affine_t",
            f_params={"slope": 0.5, "offset": 0.0},
        )
        prob = make_problem(fam, IntegrandFamily(base=state_function("zero")), cap=2.0)
        report = hypothesis_check(prob)
        # |df/dt| = 0.5 xi^2 <= 2 on |xi| <= 2
        assert report.time_lipschitz == pytest.approx(2.0, rel=1e-9)

    def test_drift_constants_cover_probe(self):
        fam = family(
            "power_p",
            {"p": 2.0},
            modulation="power_p",
            mod_params={"p": 2.0},
            factor="sine",
            f_params={"amplitude": 0.5, "frequency": 1.0},
        )
        prob = make_problem(fam, IntegrandFamily(base=state_function("zero")), cap=2.0)
        report = hypothesis_check(prob)
        assert report.drift_slack >= 0.0
        assert min(report.drift_cost_coeff, report.drift_state_coeff, report.drift_const) >= 0.0


class TestFstarLipschitz:
    def test_constant_factor_has_zero_rate(self):
        fam = family(
            "double_well",
            modulation="power_p",
            mod_params={"p": 2.0},
            factor="const",
            f_params={"value": 0.3},
        )
        report = fstar_lipschitz_check(fam, np.array([0.0, 0.5]), np.linspace(0, 1, 5))
        assert report.passed
        for entry in report.entries:
            assert entry.envelope_rate == pytest.approx(0.0, abs=1e-12)

    def test_tilted_double_well(self):
        fam = family(
            "double_well",
            modulation="power_p",
            mod_params={"p": 2.0},
            factor="affine_t",
            f_params={"slope": 1.0, "offset": 0.0},
        )
        report = fstar_lipschitz_check(fam, np.array([0.0]), np.linspace(0, 1, 9))
        entry = report.entries[0]
        assert report.passed
        assert entry.support_radius == pytest.approx(1.0, abs=0.05)
        assert entry.envelope_rate <= (1 + 1e-6) * entry.integrand_rate

    def test_no_modulation_rate_zero(self):
        fam = family("double_well")
        report = fstar_lipschitz_check(fam, np.array([0.0]), np.linspace(0, 1, 5))
        assert report.passed
        assert report.entries[0].envelope_rate == 0.0

    def test_unordered_probe_times_rejected(self):
        fam = family(
            "double_well",
            modulation="power_p",
            mod_params={"p": 2.0},
            factor="sine",
            f_params={"amplitude": 0.5, "frequency": 1.0},
        )
        for t_grid in ([0.0, 0.0, 1.0], [1.0, 0.5, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(CertificateError, match="probe times"):
                    fstar_lipschitz_check(fam, np.array([0.0]), np.array(t_grid))

    def test_escaping_supports_are_inconclusive(self):
        # an affine slice decomposes over the probe-box corners
        fam = family("affine", {"slope": 1.0, "offset": 0.0})
        report = fstar_lipschitz_check(fam, np.array([0.0]), np.linspace(0, 1, 5))
        assert not report.conclusive
        assert not report.entries[0].conclusive


# Catalog compositions for the drift and linear-bound properties.  A "const"
# factor makes a modulated family autonomous; "affine_t" and "sine" do not.
F_BASES = (
    ("power_p", {"p": 2.0}),
    ("power_p", {"p": 3.0}),
    ("abs", None),
    ("double_well", None),
    ("linear_minus_sqrt", None),
    ("sqrt_one_plus", None),
    ("affine", {"slope": 0.5, "offset": -1.0}),
)
G_BASES = (
    ("zero", None),
    ("affine", {"slope": -0.7, "offset": 0.1}),
    ("concave_quadratic", {"kappa": 0.5}),
)
CONST_FACTORS = (("const", {"value": 0.3}), ("const", {"value": -1.0}))
TIME_FACTORS = (
    ("affine_t", {"slope": 2.0, "offset": -0.5}),
    ("sine", {"amplitude": 0.5, "frequency": 3.0}),
)


@st.composite
def compositions(draw, autonomous):
    factors = CONST_FACTORS if autonomous else TIME_FACTORS

    def modulated(base, shapes, shape_fn):
        if not draw(st.booleans()):
            return IntegrandFamily(base=base)
        name, params = draw(st.sampled_from(shapes))
        factor, f_params = draw(st.sampled_from(factors))
        return IntegrandFamily(
            base=base, modulation=shape_fn(name, params), factor=time_factor(factor, f_params)
        )

    f_name, f_params = draw(st.sampled_from(F_BASES))
    g_name, g_params = draw(st.sampled_from(G_BASES))
    f = modulated(velocity_function(f_name, f_params), F_BASES, velocity_function)
    g = modulated(state_function(g_name, g_params), G_BASES, state_function)
    if not autonomous and f.autonomous and g.autonomous:
        f = IntegrandFamily(
            base=f.base,
            modulation=velocity_function("power_p", {"p": 2.0}),
            factor=time_factor(*TIME_FACTORS[0]),
        )
    box = draw(st.sampled_from([(-1.0, 1.0), (0.0, 2.0)]))
    cap = draw(st.sampled_from([1.0, 4.0]))
    return make_problem(f, g, horizon=draw(st.sampled_from([0.5, 1.0])), box=box, cap=cap)


class TestDriftShortcut:
    @settings(max_examples=20, deadline=None)
    @given(compositions(autonomous=True))
    def test_lp_gives_exact_zeros_for_autonomous_problems(self, problem):
        # the shortcut returns what the LP returns on the real probe samples
        probe = default_probe(problem)
        abs_phi, abs_x, abs_v = _drift_samples(problem, probe)
        assert problem.autonomous and not np.any(abs_v)
        fitted = _drift_lp(abs_phi, abs_x, np.zeros_like(abs_v))
        shortcut = _fit_drift_bound(problem, probe)
        for values in (fitted, shortcut):
            assert values == (0.0, 0.0, 0.0, 0.0)
            assert [math.copysign(1.0, v) for v in values] == [1.0] * 4  # no -0.0


def lp_calls(monkeypatch):
    """Record (cost, a_ub, b_ub, vertex) of every ``_lp_vertex`` call."""
    calls, solve = [], classify._lp_vertex

    def recorded(cost, a_ub, b_ub, pivots_per_row):
        vertex = solve(cost, a_ub, b_ub, pivots_per_row)
        calls.append((cost, a_ub, b_ub, vertex))
        return vertex

    monkeypatch.setattr(classify, "_lp_vertex", recorded)
    return calls


def highs_drift_optima(abs_phi, abs_x, abs_v):
    """The phase-1 and phase-2 optima of the drift LP over every sample, by
    HiGHS with tolerances below the comparison's."""
    from scipy.optimize import linprog

    n = abs_phi.size
    a_ub = np.vstack(
        [
            np.column_stack([-abs_phi, -abs_x, -np.ones(n), np.zeros(n)]),
            np.column_stack([abs_phi, abs_x, np.ones(n), -np.ones(n)]),
        ]
    )
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    bounds = [(0, None)] * 4
    b_ub = np.concatenate([-abs_v, abs_v])
    phase1 = linprog([0, 0, 0, 1], A_ub=a_ub, b_ub=b_ub, bounds=bounds, options=tight)
    slack_cap = phase1.fun * (1.0 + 1e-9) + 1e-12
    b_ub2 = np.concatenate([-abs_v, abs_v + slack_cap])
    phase2 = linprog([1, 1, 1], A_ub=a_ub[:, :3], b_ub=b_ub2, bounds=bounds[:3], options=tight)
    assert phase1.success and phase2.success
    return phase1.fun, phase2.fun


few_values = st.sampled_from([0.0, 0.5, 1.0, 2.0])


class TestDriftLP:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(few_values, few_values, few_values), min_size=1, max_size=40))
    def test_undominated_rows_match_pairwise_oracle(self, samples):
        # few values per column, so duplicate rows and ties are common
        low, high = _undominated(np.array(samples))
        distinct = sorted(set(samples))

        def undominated(beats):
            return [r for r in distinct if not any(beats(o, r) for o in distinct if o != r)]

        assert list(map(tuple, low.tolist())) == undominated(
            lambda o, r: o[0] <= r[0] and o[1] <= r[1] and o[2] >= r[2]
        )
        assert list(map(tuple, high.tolist())) == undominated(
            lambda o, r: o[0] >= r[0] and o[1] >= r[1] and o[2] <= r[2]
        )

    @settings(max_examples=6, deadline=None)
    @given(compositions(autonomous=False))
    @example(
        # six rows with gaps of 1.5e-10 .. 7.6e-10 at the phase-2 vertex: a
        # tight set cut at the feasibility tolerance gave them multipliers
        # whose sum u * gap was 5.9e-9
        make_problem(
            family(
                "power_p",
                {"p": 2.0},
                modulation="affine",
                mod_params={"slope": 0.5, "offset": -1.0},
                factor="affine_t",
                f_params={"slope": 2.0, "offset": -0.5},
            ),
            IntegrandFamily(
                base=state_function("zero"),
                modulation=state_function("affine", {"slope": -0.7, "offset": 0.1}),
                factor=time_factor("affine_t", {"slope": 2.0, "offset": -0.5}),
            ),
            horizon=0.5,
            box=(0.0, 2.0),
        )
    )
    def test_vertices_are_optimal(self, problem):
        from scipy.optimize import nnls

        samples = _drift_samples(problem, default_probe(problem))
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = lp_calls(monkeypatch)
            c0, c1, c2, slack = _drift_lp(*samples)
        assert len(calls) == 2
        for cost, a_ub, b_ub, y in calls:
            scale = 1.0 + np.max(np.abs(b_ub))
            tol = 1e-9 * scale
            gap = b_ub - a_ub @ y
            assert np.all(y >= 0.0) and np.all(gap >= -tol)  # primal feasible
            # multipliers u >= 0 on the tight rows and mu >= 0 on the zero
            # columns with cost + a_ub.T u - mu = 0 (stationarity); complementary
            # slackness holds by the choice of rows and columns.  A row is
            # tight when its gap is of rounding size: a row at the feasibility
            # tolerance could take a multiplier whose u * gap exceeds 1e-9
            tight, zero = gap <= 1e-12 * scale, y == 0.0
            system = np.hstack([a_ub[tight].T, -np.eye(y.size)[:, zero]])
            multipliers, residual = nnls(system, -cost)
            assert residual <= 1e-9
            assert multipliers[: tight.sum()] @ gap[tight] <= 1e-9
        abs_phi, abs_x, abs_v = samples
        lhs = c0 * abs_phi + c1 * abs_x + c2
        assert np.all(lhs >= abs_v - 1e-9 * (1.0 + abs_v))
        assert slack == np.max(lhs - abs_v)

    @settings(max_examples=6, deadline=None)
    @given(compositions(autonomous=False))
    @example(
        # an x-dependent g on a one-sided box keeps 829 + 782 rows, where
        # Bland's entering rule alone walked 1,000-1,500 pivots
        make_problem(
            family(
                "power_p",
                {"p": 2.0},
                modulation="power_p",
                mod_params={"p": 2.0},
                factor="affine_t",
                f_params={"slope": 2.0, "offset": -0.5},
            ),
            IntegrandFamily(base=state_function("affine", {"slope": -0.7, "offset": 0.1})),
            horizon=0.5,
            box=(0.0, 2.0),
        )
    )
    def test_optima_match_highs(self, problem):
        samples = _drift_samples(problem, default_probe(problem))
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = lp_calls(monkeypatch)
            _drift_lp(*samples)
        optima = [float(cost @ y) for cost, _, _, y in calls]
        assert optima == pytest.approx(highs_drift_optima(*samples), rel=1e-9, abs=1e-12)

    def test_shipped_time_varying_constants(self):
        problem = parse_problem(PROBLEMS / "doublewell_timevarying.json").problem
        report = hypothesis_check(problem)
        assert (
            report.drift_cost_coeff,
            report.drift_state_coeff,
            report.drift_const,
            report.drift_slack,
        ) == (0.0847836130252216, 0.0, 1.2369474827730056, 1.0620812889595301)

    def test_samples_match_the_central_difference(self):
        problem = parse_problem(PROBLEMS / "doublewell_timevarying.json").problem
        probe = default_probe(problem)
        abs_v = _drift_samples(problem, probe)[2].reshape(
            PROBE_TIMES, PROBE_STATES, PROBE_VELOCITIES
        )
        gaps = np.max(np.abs(abs_v - np.abs(fd.probe_rates(problem, probe))), axis=(1, 2))
        # at t = 0.25 the times t +- delta straddle a change of the hull, and
        # at T the difference is one-sided
        smooth = (probe.times != 0.25) & (probe.times != problem.horizon)
        assert np.all(gaps[smooth] <= 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_raise(self, bad):
        abs_phi, abs_x, abs_v = np.ones(4), np.ones(4), np.array([0.5, 1.0, bad, 2.0])
        with pytest.raises(CertificateError, match="not all finite"):
            _drift_lp(abs_phi, abs_x, abs_v)

    def test_pivot_cap_raises(self, monkeypatch):
        problem = parse_problem(PROBLEMS / "doublewell_timevarying.json").problem
        samples = _drift_samples(problem, default_probe(problem))
        monkeypatch.setattr(classify, "LP_PIVOTS_PER_ROW", 0)
        with pytest.raises(CertificateError, match="pivots"):
            _drift_lp(*samples)

class TestLinearBounds:
    @settings(max_examples=12, deadline=None)
    @given(st.booleans().flatmap(compositions))
    def test_agrees_with_hypothesis_check(self, problem):
        bounds = linear_bounds(problem)
        report = hypothesis_check(problem)
        assert (bounds.h1_pass, bounds.h2_pass) == (report.h1_pass, report.h2_pass)
        assert (
            bounds.f_bound_offset,
            bounds.f_bound_slope,
            bounds.g_bound_offset,
            bounds.g_bound_slope,
            bounds.slope_margin,
        ) == (
            report.f_bound_offset,
            report.f_bound_slope,
            report.g_bound_offset,
            report.g_bound_slope,
            report.slope_margin,
        )


def per_probe_reference(problem):
    """``hypothesis_check``'s fields and drift samples by per-probe formulas:
    each probe evaluates f, g and f** at the probe points itself, and the
    drift probe differentiates f along each velocity's splitting.  The line
    fits and the LP are the library's own."""
    lo, hi = problem.state_box
    ts = np.linspace(0.0, problem.horizon, PROBE_TIMES)
    xs = np.linspace(lo, hi, PROBE_STATES)
    xis = np.linspace(-problem.velocity_cap, problem.velocity_cap, PROBE_VELOCITIES)
    f_vals = np.stack([problem.f.value(t, xis) for t in ts])
    g_vals = np.stack([problem.g.value(t, xs) for t in ts])

    r_u, fmin_u, fmax_u = _pooled_radial_profile(xis, f_vals)
    f_slope, f_intercept, _ = _fit_bound_line(
        r_u, fmin_u, fmax_u, _hull_edge_slopes(r_u, fmin_u), tie_key=lambda s, b: (s, -b)
    )
    rg_u, gmin_u, gmax_u = _pooled_radial_profile(xs, g_vals)
    slopes_g = [s for s in _hull_edge_slopes(rg_u, gmin_u) if s <= 0.0] + [0.0]
    gb_slope, gb_intercept, _ = _fit_bound_line(
        rg_u, gmin_u, gmax_u, slopes_g, tie_key=lambda s, b: (-s, -b)
    )
    g_slope = -gb_slope
    fields = dict(
        f_bound_offset=float(-f_intercept),
        f_bound_slope=float(f_slope),
        g_bound_offset=float(-gb_intercept),
        g_bound_slope=float(g_slope),
        slope_margin=float(f_slope / problem.horizon - g_slope),
    )
    fields["h1_pass"] = bool(fields["f_bound_slope"] > 0.0)
    fields["h2_pass"] = bool(fields["g_bound_slope"] >= 0.0 and fields["slope_margin"] > 0.0)
    fields["time_lipschitz"] = float(
        np.max(np.abs(np.diff(f_vals, axis=0)) / np.diff(ts)[:, None])
    )

    def fstar(t):
        ys = problem.f.value(t, xis)
        keep = ref.hull(xis, ys)
        return np.array([ref.value(xis, ys, keep, xi) for xi in xis])

    def rate(t):
        ys = problem.f.value(t, xis)
        keep = ref.hull(xis, ys)
        f_rates = []
        for xi in xis:
            weights, points = ref.split(xis, ys, keep, xi)[:2]
            f_rates.append(sum(w * problem.f.time_rate(t, p) for w, p in zip(weights, points)))
        return problem.g.time_rate(t, xs)[:, None] + np.array(f_rates)[None, :]

    phis = [problem.g.value(t, xs)[:, None] + fstar(t)[None, :] for t in ts]
    rates = [rate(t) for t in ts]
    samples = (
        np.abs(np.stack(phis)).ravel(),
        np.abs(np.broadcast_to(xs[None, :, None], (ts.size, xs.size, xis.size))).ravel(),
        np.abs(np.stack(rates)).ravel(),
    )
    drift = (0.0, 0.0, 0.0, 0.0) if problem.autonomous else _drift_lp(*samples)
    for name, value in zip(
        ("drift_cost_coeff", "drift_state_coeff", "drift_const", "drift_slack"), drift
    ):
        fields[name] = value

    concave, f_convex = [], []
    for t in ts:
        vals = problem.g.value(t, xs)
        xi, xj = np.meshgrid(xs, xs)
        vi, vj = np.meshgrid(vals, vals)
        mids = problem.g.value(t, (xi + xj) / 2.0)
        concave.append(bool(np.all(mids >= (vi + vj) / 2.0 - 1e-9)))
        f_values = problem.f.value(t, xis)
        gap = f_values - fstar(t)
        scale = 1.0 + float(np.max(np.abs(f_values)))
        f_convex.append(bool(np.max(gap) <= 1e-9 * scale))
    fields["g_concave_per_t"] = np.array(concave)
    fields["f_convex_per_t"] = np.array(f_convex)
    return fields, samples


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestProbeTable:
    @pytest.mark.parametrize("autonomous", [True, False])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_reports_match_per_probe_formulas(self, autonomous, data):
        problem = data.draw(compositions(autonomous))
        want, samples = per_probe_reference(problem)
        report = hypothesis_check(problem)
        bounds = linear_bounds(problem)
        for f in dataclasses.fields(report):
            assert same_bits(getattr(report, f.name), want[f.name]), f.name
        for f in dataclasses.fields(bounds):
            assert same_bits(getattr(bounds, f.name), want[f.name]), f.name
        for got, expected in zip(_drift_samples(problem, default_probe(problem)), samples):
            assert same_bits(got, expected)

    @staticmethod
    def costs(monkeypatch, name):
        """(rows the hull kernel runs on, points at which f is evaluated) by
        one hypothesis_check."""
        problem = parse_problem(PROBLEMS / name).problem
        hulls, points = [], []
        build, value, table = convex._hull_vertices, IntegrandFamily.value, IntegrandFamily.table

        def counted_build(xs, ys):
            hulls.append(1)
            return build(xs, ys)

        def counted_value(family, t, y):
            if family is problem.f:
                points.append(np.size(y))
            return value(family, t, y)

        def counted_table(family, times, y):
            if family is problem.f:
                points.append(np.size(times) * np.size(y))
            return table(family, times, y)

        monkeypatch.setattr(convex, "_hull_vertices", counted_build)
        monkeypatch.setattr(IntegrandFamily, "value", counted_value)
        monkeypatch.setattr(IntegrandFamily, "table", counted_table)
        hypothesis_check(problem)
        return len(hulls), sum(points)

    def test_time_varying_problem_tabulates_f_once(self, monkeypatch):
        # f: the 9 x 65 table; hulls: one per probe time and 2 for the line
        # fits, since the drift samples differentiate f along the splittings
        # of the same table
        assert self.costs(monkeypatch, "doublewell_timevarying.json") == (11, 585)

    def test_autonomous_problem_tabulates_f_once(self, monkeypatch):
        # hulls: one envelope for every probe time and 2 for the line fits
        assert self.costs(monkeypatch, "doublewell.json") == (3, 585)


class TestClassifyHullRows:
    """One ``classify`` runs the hull kernel on a fixed number of rows, as
    recorded before the certificates moved onto envelope tables: one per
    radius and sampled time for class-E (20 radii), one per probe time for
    SCI, and hypothesis_check's (``TestProbeTable``); an autonomous f is
    sampled at one time.  The time-varying count fell by the 16 rows at
    t +- delta when the drift samples moved onto the probe table."""

    @pytest.mark.parametrize(
        "name, rows", [("doublewell", 20 + 1 + 3), ("doublewell_timevarying", 20 * 9 + 9 + 11)]
    )
    def test_rows_per_classify(self, monkeypatch, tmp_path, name, rows):
        calls = []
        build = convex._hull_vertices

        def counting(xs, ys):
            calls.append(1)
            return build(xs, ys)

        monkeypatch.setattr(convex, "_hull_vertices", counting)
        out = tmp_path / "certificates.json"
        assert main(["classify", str(PROBLEMS / f"{name}.json"), "--out", str(out)]) == 0
        assert len(calls) == rows


class TestAutonomousClassE:
    def test_one_time_sample_matches_all_times(self):
        # a zero-slope affine_t factor is constant in value but not flagged
        # autonomous, so its certificate samples every time
        kwargs = dict(modulation="power_p", mod_params={"p": 2.0})
        flagged = family("double_well", factor="const", f_params={"value": 0.3}, **kwargs)
        unflagged = family(
            "double_well", factor="affine_t", f_params={"slope": 0.0, "offset": 0.3}, **kwargs
        )
        assert flagged.autonomous and not unflagged.autonomous
        t_grid = np.linspace(0.0, 1.0, 9)
        a = class_e_certificate(flagged, t_grid)
        b = class_e_certificate(unflagged, t_grid)
        np.testing.assert_array_equal(a.chi_values, b.chi_values)
        assert (a.verdict, a.divergence_slope) == (b.verdict, b.divergence_slope)

    def test_unflagged_constant_factor_gives_the_same_reports(self):
        # the unflagged family gets one probe-envelope row per probe time and
        # a drift LP, the flagged one a single row and the zero shortcut
        kwargs = dict(modulation="power_p", mod_params={"p": 2.0})
        flagged = family("double_well", factor="const", f_params={"value": 0.3}, **kwargs)
        unflagged = family(
            "double_well", factor="affine_t", f_params={"slope": 0.0, "offset": 0.3}, **kwargs
        )
        g = IntegrandFamily(base=state_function("concave_quadratic", {"kappa": 0.5}))
        t_grid = np.linspace(0.0, 1.0, PROBE_TIMES)
        a, b = (sci_certificate(f, t_grid, SHORT_SCHEDULE) for f in (flagged, unflagged))
        assert repr([dataclasses.astuple(c) for c in a]) == repr(
            [dataclasses.astuple(c) for c in b]
        )
        problems = [make_problem(f, g) for f in (flagged, unflagged)]
        for check in (hypothesis_check, linear_bounds):
            a, b = (check(problem) for problem in problems)
            for f in dataclasses.fields(a):
                assert same_bits(getattr(a, f.name), getattr(b, f.name)), f.name
