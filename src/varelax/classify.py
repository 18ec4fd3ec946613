"""Numerical certificates for the structural hypotheses behind the solver.

Every limit statement is probed over a declared radius schedule with a
declared threshold, and every reported constant is fitted on a declared
probe box.  Verdicts are certificates over the probed range, not proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .convex import LP_PIVOTS_PER_ROW, EnvelopeTable, Placement, _lp_vertex
from .errors import CertificateError, DegenerateInputError, OutOfDomainError
from .families import IntegrandFamily

DEFAULT_DIVERGENCE_THRESHOLD = 1e3
STABILIZE_TOL = 1e-6
# Velocity samples of each class-E and SCI envelope; the class-E envelope
# at radius R spans [-CLASS_E_MARGIN*R, CLASS_E_MARGIN*R].
CERTIFICATE_GRID_POINTS = 257
CLASS_E_MARGIN = 2.0
SCI_DIRECTIONS = (1.0, -1.0)
# Velocity samples of the envelope in ``fstar_lipschitz_check``.
FSTAR_GRID_POINTS = 513
# The probe box: times over the horizon, states over the box, velocities
# over the cap.
PROBE_TIMES, PROBE_STATES, PROBE_VELOCITIES = 9, 33, 65


def default_radius_schedule() -> np.ndarray:
    """Dyadic radii 16 .. 2^23.

    The top end is far enough out that the linear-growth family's slow
    divergence crosses the default threshold, while the stabilization
    test resolves bounded tails below 1e-6.
    """
    return 2.0 ** np.arange(4, 24)


def _radii(radius_schedule: np.ndarray | None) -> np.ndarray:
    """The given radius schedule, or the default one, checked."""
    radii = np.asarray(
        default_radius_schedule() if radius_schedule is None else radius_schedule,
        dtype=float,
    )
    if radii.size < 4 or not np.all(np.diff(radii) > 0):
        raise CertificateError("radius schedule must be increasing with at least 4 entries")
    if radii[0] <= 0.0:
        raise CertificateError("radius schedule entries must be positive")
    return radii


@dataclass(frozen=True, eq=False)
class ClassECertificate:
    radii: np.ndarray
    chi_values: np.ndarray
    verdict: str  # "diverges" | "bounded" | "inconclusive"
    divergence_slope: float
    threshold: float

    @property
    def diverges(self) -> bool:
        return self.verdict == "diverges"


def class_e_certificate(
    family: IntegrandFamily,
    t_grid: np.ndarray,
    radius_schedule: np.ndarray | None = None,
    threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> ClassECertificate:
    """Probe whether the worst-case linearization defect diverges.

    For each radius R the probe tabulates the envelope on the expanding box
    [-CLASS_E_MARGIN*R, CLASS_E_MARGIN*R] with the rows of ``family.table``
    at the sampled times, and takes chi(R) = sup over the rows and the grid
    points beyond R of the envelope value minus its steepest supporting
    linearization.  chi must come out nonincreasing; a rise beyond
    tolerance signals an envelope bug rather than a property of the
    integrand, and a slope fit that fails raises ``CertificateError``.
    """
    radii = _radii(radius_schedule)
    chi = np.empty(radii.size)
    for k, radius in enumerate(radii):
        box = CLASS_E_MARGIN * radius
        grid = np.linspace(-box, box, CERTIFICATE_GRID_POINTS)
        values, rows = family.finite_table(t_grid, grid, "velocity cost f", "the class-E box")
        beyond = grid[np.abs(grid) > radius]
        placed = EnvelopeTable.of(grid, values).place(rows[:, None], beyond)
        lo, hi = placed.subgradients
        # a supporting line beyond float range has defect -inf there, never the maximum
        with np.errstate(over="ignore"):
            chi[k] = (placed.values - np.minimum(lo * beyond, hi * beyond)).max()
    diffs = np.diff(chi)
    tol = 1e-9 * np.maximum(1.0, np.abs(chi[:-1]))
    if np.any(diffs > tol):
        raise CertificateError("chi sequence increased along the radius schedule")
    half = radii.size // 2
    try:
        with np.errstate(divide="raise", invalid="raise"):
            slope = float(np.polyfit(radii[half:], chi[half:], 1)[0])
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise CertificateError(f"class-E slope fit failed: {exc}") from None
    if np.all(diffs < 0) and chi[-1] < -threshold:
        verdict = "diverges"
    elif abs(chi[-1] - chi[-2]) <= STABILIZE_TOL and chi[-1] >= -threshold:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return ClassECertificate(radii, chi, verdict, slope, threshold)


@dataclass(frozen=True, eq=False)
class SciProbe:
    direction: float
    inner_slope: float
    outer_slope: float
    increase: float
    passed: bool


@dataclass(frozen=True, eq=False)
class SciCertificate:
    probes: tuple[SciProbe, ...]
    passed: bool


def sci_certificate(
    family: IntegrandFamily,
    t_grid: np.ndarray,
    radius_schedule: np.ndarray | None = None,
) -> tuple[SciCertificate, ...]:
    """Check that the envelope's directional slope keeps increasing, with
    one certificate per time of ``t_grid``, all read from one placement of
    the inner and outer radius in each direction on every row of one
    envelope table, with the rows of ``family.table``.

    A direction fails when the slope shows no strict increase across the
    last two radius shells: a terminal flat run is the discrete signature
    of a ray in the graph.  Both directions of ``SCI_DIRECTIONS`` are probed.
    """
    radii = _radii(radius_schedule)
    box = float(radii[-1])
    inner = float(radii[-3])
    grid = np.linspace(-box, box, CERTIFICATE_GRID_POINTS)
    values, rows = family.finite_table(t_grid, grid, "velocity cost f", "the SCI box")
    # the subgradient ends per row and direction, at the inner radius [0] and the outer one [1]
    points = np.array(SCI_DIRECTIONS)[:, None] * [inner, box]
    placed = EnvelopeTable.of(grid, values).place(np.arange(len(values))[:, None, None], points)
    ends = [end.tolist() for end in placed.subgradients]
    certificates = []
    for row_lo, row_hi in zip(*ends):
        probes = []
        for direction, lo, hi in zip(SCI_DIRECTIONS, row_lo, row_hi):
            if direction > 0:
                inner_slope, outer_slope = hi[0], lo[1]
                increase = outer_slope - inner_slope
            else:
                inner_slope, outer_slope = lo[0], hi[1]
                increase = -(outer_slope - inner_slope)
            tol = 1e-9 * max(1.0, abs(inner_slope), abs(outer_slope))
            probes.append(SciProbe(direction, inner_slope, outer_slope, increase, increase > tol))
        certificates.append(SciCertificate(tuple(probes), all(p.passed for p in probes)))
    return tuple(certificates[row] for row in rows)


# ---------------------------------------------------------------------------
# Hypothesis constants on a probe box.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProbeBox:
    """The probe grid of the certify stage, with ``f`` and ``g`` tabulated
    on it once; f's envelope table over the probe velocities, and the one
    placement of every probe velocity at every probe time on it, which
    ``f**`` and the drift splittings read, are built on first use."""

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray
    f_table: np.ndarray  # f.table's rows on the velocities
    f_rows: np.ndarray  # each probe time's row of f_table
    g_values: np.ndarray  # (times, states)

    @cached_property
    def f_values(self) -> np.ndarray:
        """f on the probe velocities at each probe time: (times, velocities)."""
        return self.f_table[self.f_rows]

    @cached_property
    def placement(self) -> Placement:
        """The probe velocities placed on each probe time's row of f's
        envelope table over them, one time after another."""
        table, n = EnvelopeTable.of(self.velocities, self.f_table), self.velocities.size
        return table.place(np.repeat(self.f_rows, n), np.tile(self.velocities, self.times.size))

    @cached_property
    def fstar(self) -> np.ndarray:
        """f** on the probe velocities at each probe time: (times, velocities)."""
        return self.placement.values.reshape(self.times.size, -1)


@dataclass(frozen=True, eq=False)
class LinearBounds:
    """The H1 and H2 lines fitted on the probe box, and their verdicts."""

    f_bound_offset: float  # f >= -offset + slope*|xi| on the probe box
    f_bound_slope: float
    g_bound_offset: float  # g >= -offset - slope*|x| on the probe box
    g_bound_slope: float
    slope_margin: float  # f_bound_slope / horizon - g_bound_slope
    h1_pass: bool = field(init=False)
    h2_pass: bool = field(init=False)

    def __post_init__(self):
        h2 = self.g_bound_slope >= 0.0 and self.slope_margin > 0.0
        object.__setattr__(self, "h1_pass", bool(self.f_bound_slope > 0.0))
        object.__setattr__(self, "h2_pass", bool(h2))


@dataclass(frozen=True, eq=False)
class HypothesisReport(LinearBounds):
    """The H1 and H2 lines plus the time-regularity, drift and shape probes."""

    time_lipschitz: float
    drift_cost_coeff: float  # |d phi/dt| <= c0*|phi| + c1*|x| + c2
    drift_state_coeff: float
    drift_const: float
    drift_slack: float
    g_concave_per_t: np.ndarray
    f_convex_per_t: np.ndarray

    @property
    def g_concave(self) -> bool:
        return bool(np.all(self.g_concave_per_t))

    @property
    def f_convex(self) -> bool:
        return bool(np.all(self.f_convex_per_t))


def _fit_bound_line(r, vmin, vmax, candidate_slopes, tie_key):
    """Deterministic line fit below pooled minima, minimizing maximum slack;
    ties go by ``tie_key(slopes, intercepts)``, then to the first candidate."""
    s = np.asarray(candidate_slopes, dtype=float)
    # a line too steep for a float overflows to an infinite slack, which
    # ranks last, so it never displaces a line that fits
    with np.errstate(over="ignore"):
        b = np.min(vmin - s[:, None] * r, axis=1)
        slack = np.max(vmax - s[:, None] * r - b[:, None], axis=1)
    best = np.lexsort(tie_key(s, b)[::-1] + (slack,))[0]
    return float(s[best]), float(b[best]), float(slack[best])


def _pooled_radial_profile(radii, values):
    """Per unique radius: pooled min and max over the rows of a value stack."""
    r = np.abs(np.asarray(radii, dtype=float))
    order = np.argsort(r, kind="stable")
    uniq, start = np.unique(r[order], return_index=True)
    columns = values[:, order]
    vmins = np.minimum.reduceat(columns.min(axis=0), start)
    return uniq, vmins, np.maximum.reduceat(columns.max(axis=0), start)


def _hull_edge_slopes(r, vmin, name):
    try:
        table = EnvelopeTable.of(r, vmin[None])
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"{name} on the probe box: {exc}") from None
    return table.slopes[0, : table.counts[0] - 1]


def _fit_lines(problem, probe: ProbeBox) -> tuple[float, ...]:
    """The five ``LinearBounds`` constants, from f's and g's values on the
    probe box.

    Each line minimizes the maximum slack of its inequality over the probe
    grid, with ties broken toward smaller constants.
    """
    # f lower bound: -A + B|xi|
    r_u, fmin_u, fmax_u = _pooled_radial_profile(probe.velocities, probe.f_values)
    f_slopes = _hull_edge_slopes(r_u, fmin_u, "velocity cost f")
    f_slope, f_intercept, _ = _fit_bound_line(
        r_u, fmin_u, fmax_u, f_slopes, tie_key=lambda s, b: (s, -b)
    )
    # g lower bound: -alpha - beta|x|, beta >= 0
    rg_u, gmin_u, gmax_u = _pooled_radial_profile(probe.states, probe.g_values)
    slopes_g = [s for s in _hull_edge_slopes(rg_u, gmin_u, "state cost g") if s <= 0.0] + [0.0]
    gb_slope, gb_intercept, _ = _fit_bound_line(
        rg_u, gmin_u, gmax_u, slopes_g, tie_key=lambda s, b: (-s, -b)
    )
    g_slope = -gb_slope
    margin = float(f_slope / problem.horizon - g_slope)
    return -f_intercept, f_slope, -gb_intercept, g_slope, margin


def linear_bounds(problem) -> LinearBounds:
    """Fit the H1 line below f and the H2 line below g on the probe box."""
    return LinearBounds(*_fit_lines(problem, default_probe(problem)))


def hypothesis_check(problem) -> HypothesisReport:
    """Fit the structural constants on the probe box and report pass/fail.

    Constants minimize the maximum slack of their inequality over the probe
    grid, with ties broken toward smaller constants, so reports are
    deterministic and reproducible.  A failed hypothesis is reported in its
    verdict field; a drift LP that cannot be solved raises
    ``CertificateError`` (the CLI's exit 4).
    """
    probe = default_probe(problem)

    # time Lipschitz constant of f on the probe box
    df = np.abs(np.diff(probe.f_values, axis=0))
    dt = np.diff(probe.times)[:, None]
    time_lip = float(np.max(df / dt))

    # drift bound |d(g + f**)/dt| <= c0|phi| + c1|x| + c2
    c0, c1, c2, slack = _fit_drift_bound(problem, probe)

    # concavity / convexity probes per sampled time; f is convex at a time
    # when its samples lie on their envelope
    g_concave = _midpoint_concave(problem, probe)
    gap = probe.f_values - probe.fstar
    f_convex = np.max(gap, axis=1) <= 1e-9 * (1.0 + np.max(np.abs(probe.f_values), axis=1))

    return HypothesisReport(
        *_fit_lines(problem, probe),
        time_lipschitz=time_lip,
        drift_cost_coeff=c0,
        drift_state_coeff=c1,
        drift_const=c2,
        drift_slack=slack,
        g_concave_per_t=g_concave,
        f_convex_per_t=f_convex,
    )


def probe_times(problem) -> np.ndarray:
    """The certify stage's ``PROBE_TIMES`` times over the horizon."""
    return np.linspace(0.0, problem.horizon, PROBE_TIMES)


def default_probe(problem) -> ProbeBox:
    """``PROBE_TIMES`` times over the horizon, ``PROBE_STATES`` states over
    the box and ``PROBE_VELOCITIES`` velocities over the cap, with ``f`` and
    ``g`` tabulated there.  A sample that is not finite, an overflow
    included, is an input error that names its integrand."""
    lo, hi = problem.state_box
    times = probe_times(problem)
    states = np.linspace(lo, hi, PROBE_STATES)
    velocities = np.linspace(-problem.velocity_cap, problem.velocity_cap, PROBE_VELOCITIES)
    f_table, f_rows = problem.f.finite_table(times, velocities, "velocity cost f", "the probe box")
    g_table, g_rows = problem.g.finite_table(times, states, "state cost g", "the probe box")
    return ProbeBox(times, states, velocities, f_table, f_rows, g_table[g_rows])


def _midpoint_concave(problem, probe: ProbeBox) -> np.ndarray:
    """Midpoint concavity of g over the probe states, per probe time, with g at
    every midpoint from one ``g.table``.  Midpoints and chords are a/2 + b/2:
    the bits of (a + b) / 2 where a + b does not overflow, finite where it does."""
    half_x, half_g = probe.states / 2.0, probe.g_values / 2.0
    table, rows = problem.g.table(probe.times, (half_x[:, None] + half_x).ravel())
    chords = (half_g[:, :, None] + half_g[:, None, :]).reshape(rows.size, -1)
    return np.all(table[rows] >= chords - 1e-9, axis=1)


def _fit_drift_bound(problem, probe: ProbeBox):
    """(c0, c1, c2, slack) of |d phi/dt| <= c0*|phi| + c1*|x| + c2.

    An autonomous problem has d phi/dt = 0 at every probe point, so every
    constant and the slack are exactly 0 and no LP is solved.
    """
    if problem.autonomous:
        return 0.0, 0.0, 0.0, 0.0
    return _drift_lp(*_drift_samples(problem, probe))


def _drift_samples(problem, probe: ProbeBox):
    """|phi|, |x| and |d phi/dt| at every probe point, where phi = g + f**
    on the (time, state, velocity) probe grid; by the envelope theorem f**'s
    time derivative is sum_i lam_i * d/dt f(t, xi_i) over the splitting of
    each velocity on the probe table, read from the probe box's placement."""
    ts, xs, xis = probe.times, probe.states, probe.velocities
    split = probe.placement.split
    f_rates = problem.f.envelope_rate(np.repeat(ts, xis.size), split).reshape(ts.size, xis.size)
    rates = problem.g.time_rate(ts[:, None], xs)[:, :, None] + f_rates[:, None, :]
    abs_phi = np.abs(probe.g_values[:, :, None] + probe.fstar[:, None, :]).ravel()
    abs_v = np.abs(rates).ravel()
    abs_x = np.abs(np.broadcast_to(xs[None, :, None], (ts.size, xs.size, xis.size))).ravel()
    return abs_phi, abs_x, abs_v


def _drift_lp(abs_phi, abs_x, abs_v):
    """Drift constants and slack from two LPs over c = (c0, c1, c2) >= 0.

    Phase 1 minimizes the largest slack t of c0|phi| + c1|x| + c2 >= |v|;
    phase 2 minimizes c0 + c1 + c2 with the slack capped just above that
    optimum.  Only the rows no other row dominates can bind, so both LPs
    run on those (``_undominated``); the reported slack is the largest
    over every sample.  Any failure raises ``CertificateError``.
    """
    samples = np.column_stack([abs_phi, abs_x, abs_v])
    try:
        if not np.all(np.isfinite(samples)):
            raise CertificateError("the drift samples are not all finite")
        low, high = _undominated(samples)
        # columns (c2, t, c0, c1): the unit columns first, see _lp_vertex
        ones_lo, ones_hi = np.ones(len(low)), np.ones(len(high))
        a_ub = np.vstack(
            [
                -np.column_stack([ones_lo, np.zeros(len(low)), low[:, 0], low[:, 1]]),
                np.column_stack([ones_hi, -ones_hi, high[:, 0], high[:, 1]]),
            ]
        )
        b_ub = np.concatenate([-low[:, 2], high[:, 2]])
        t_min = _lp_vertex(np.array([0.0, 1.0, 0.0, 0.0]), a_ub, b_ub, LP_PIVOTS_PER_ROW)[1]
        slack_cap = float(t_min) * (1.0 + 1e-9) + 1e-12
        b_ub2 = np.concatenate([-low[:, 2], high[:, 2] + slack_cap])
        vertex = _lp_vertex(np.ones(3), a_ub[:, [0, 2, 3]], b_ub2, LP_PIVOTS_PER_ROW)
    except (CertificateError, OutOfDomainError) as exc:
        raise CertificateError(f"drift-bound fit failed: {exc}") from None
    c2, c0, c1 = (float(v) for v in vertex)
    slack = float(np.max(c0 * abs_phi + c1 * abs_x + c2 - abs_v))
    return c0, c1, c2, slack


def _undominated(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(low, high): the distinct rows (|phi|, |x|, |v|) of ``samples`` that
    no other row dominates for the lower inequality, that is with
    phi' <= phi, x' <= x and v' >= v, and for the upper one, with the
    reverse.  The distinct rows are in lexicographic order, as
    ``numpy.unique(samples, axis=0)`` gives them, from a lexsort and a mask
    of changed rows, without the ``numpy.ma`` import that ``numpy.unique``
    makes."""
    ordered = samples[np.lexsort(samples.T[::-1])]
    changed = np.any(ordered[1:] != ordered[:-1], axis=1)
    rows = ordered[np.concatenate([[True], changed])]
    return rows[_skyline(rows)], rows[_skyline(-rows)]


def _skyline(rows: np.ndarray) -> np.ndarray:
    """Mask of the distinct rows (phi, x, v) that no other row dominates
    with phi' <= phi, x' <= x and v' >= v.

    Sorted by (phi, x, -v), a row's dominators all come before it, so a
    row is dominated iff an earlier row on a level x' <= x has v' >= v: a
    running maximum of v along each x level, then a cumulative one across
    levels.
    """
    phi, x, v = rows.T
    order = np.lexsort((-v, x, phi))
    v_sorted = v[order]
    _, level = np.unique(x[order], return_inverse=True)
    best = np.full(v_sorted.size, -np.inf)  # max v at or before each position
    keep = np.empty(v_sorted.size, dtype=bool)
    for k in range(level.max() + 1):
        on = level == k
        np.maximum(best, np.maximum.accumulate(np.where(on, v_sorted, -np.inf)), out=best)
        before = np.concatenate([[-np.inf], best[:-1]])
        keep[on] = before[on] < v_sorted[on]
    mask = np.empty_like(keep)
    mask[order] = keep
    return mask


# ---------------------------------------------------------------------------
# Time regularity of the envelope.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TimeLipschitzEntry:
    velocity: float
    support_radius: float
    envelope_rate: float
    integrand_rate: float
    conclusive: bool
    passed: bool


@dataclass(frozen=True, eq=False)
class TimeLipschitzReport:
    entries: tuple[TimeLipschitzEntry, ...]
    passed: bool
    conclusive: bool


def fstar_lipschitz_check(
    family: IntegrandFamily,
    xi_probe: np.ndarray,
    t_grid: np.ndarray,
) -> TimeLipschitzReport:
    """Compare the envelope's time rate against the integrand's on the
    ball spanned by the observed decomposition support points.

    The envelope is sampled at ``FSTAR_GRID_POINTS`` velocities on
    [-R, R] with R = 4*(1 + max|xi_probe|).  An entry is inconclusive when
    a support point escapes toward that boundary, since the controlling
    ball is then unknown.
    """
    xi_probe = np.atleast_1d(np.asarray(xi_probe, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2:
        raise CertificateError("need at least two probe times")
    if not np.all(np.diff(t_grid) > 0):
        raise CertificateError("probe times must be strictly increasing")
    probe_radius = 4.0 * (1.0 + float(np.max(np.abs(xi_probe))))
    grid = np.linspace(-probe_radius, probe_radius, FSTAR_GRID_POINTS)
    pitch = 2.0 * probe_radius / (FSTAR_GRID_POINTS - 1)
    f_table, rows = family.finite_table(t_grid, grid, "velocity cost f", "the f*-Lipschitz box")
    table = EnvelopeTable.of(grid, f_table)
    values = f_table[rows]  # (nt, nxi_grid)
    dt = np.diff(t_grid)

    entries = []
    for xi in xi_probe:
        placed = table.place(rows, np.full(t_grid.size, xi))
        radius = placed.split.support_radius
        conclusive = radius < probe_radius - pitch
        envelope_rate = float(np.max(np.abs(np.diff(placed.values)) / dt))
        mask = np.abs(grid) <= radius * (1.0 + 1e-12)
        ball_diffs = np.abs(np.diff(values[:, mask], axis=0)) / dt[:, None]
        integrand_rate = float(ball_diffs.max()) if mask.any() else 0.0
        passed = envelope_rate <= (1.0 + 1e-6) * integrand_rate + 1e-15
        entries.append(
            TimeLipschitzEntry(
                velocity=float(xi),
                support_radius=float(radius),
                envelope_rate=envelope_rate,
                integrand_rate=integrand_rate,
                conclusive=bool(conclusive),
                passed=bool(passed),
            )
        )
    conclusive = all(e.conclusive for e in entries)
    passed = all(e.passed for e in entries if e.conclusive)
    return TimeLipschitzReport(tuple(entries), passed and conclusive, conclusive)
