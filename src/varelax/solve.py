"""Dynamic-programming solver for the relaxed problem, speed-budget
sweeps, penalized variants, and the a-priori coercivity check.

The DP is exact on its grid: transitions run between state-grid nodes
with per-interval constant velocities, time-dependent costs are sampled
at the left endpoint of each interval, and ties are broken toward the
smallest predecessor index so results are schedule-independent.  The grid
and the offset table of admissible (predecessor, target) pairs come from
``discretize.Discretization``; the DP adds only its cost rows.  A time
step is a few whole-array operations on one (offsets x columns x states)
block of strided windows into the padded value buffer; index arrays
appear only where a cost row is gathered through the offset table.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classify import HypothesisReport
from .discretize import Discretization, nearest_index
from .errors import CertificateError, DegenerateInputError, InfeasibleError
from .problem import DPConfig, Problem, SweepReport, Trajectory

SETTLE_TOL = 1e-9
# The multipliers of ``lagrangian_sweep``: 0 and 2^-6 .. 2^6.
MULTIPLIERS = np.concatenate([[0.0], 2.0 ** np.arange(-6.0, 7.0)])


@dataclass(frozen=True, eq=False)
class _Tables:
    """Cost rows of one discretization and the DP's step factor.

    ``f_costs`` holds the envelope of f at the quotients and ``g_costs``
    holds g on the state grid, each on the rows its integrand's ``table``
    returns; time step i reads rows ``f_rows[i]`` and ``g_rows[i]``.
    """

    disc: Discretization
    step: float
    f_costs: np.ndarray
    g_costs: np.ndarray
    f_rows: np.ndarray
    g_rows: np.ndarray


def _tables(problem: Problem, cfg: DPConfig) -> _Tables:
    disc = Discretization.of(problem, cfg)
    table, f_rows = disc.envelope_table(disc.times[:-1])
    f_costs = table.at(np.arange(len(table.values))[:, None], disc.grid)
    g_costs, g_rows = problem.g.table(disc.times[:-1], disc.xs)
    if not np.isfinite(g_costs).all():
        raise DegenerateInputError("state cost g must be finite on the state grid")
    return _Tables(disc, disc.step, f_costs, g_costs, f_rows, g_rows)


def _units(tab: _Tables, cfg: DPConfig, budget: float) -> np.ndarray:
    """Budget units of each quotient: h*theta(q) rounded up to whole quanta
    of budget/levels.  They do not increase as the budget grows."""
    quantum = budget / cfg.budget_levels
    units = np.ceil(tab.step * cfg.theta(tab.disc.grid) / quantum)
    # counts above the levels are all inadmissible; clip them before the cast
    return np.clip(units, 0, cfg.budget_levels + 1).astype(np.int64)


def _dp(
    tab: _Tables,
    cfg: DPConfig,
    budget: float | None,
    want_path: bool,
    rates: np.ndarray | None = None,
):
    """Minimum of the (penalized) path cost, optionally under a speed budget
    or for several penalty rates in one pass.

    The state is (column, grid node).  With a budget the columns are used
    budget units: a path starts in column 0 and each step moves it up by
    the step's units, h*theta(q) rounded up to the quantum budget/levels,
    so any accepted path satisfies the true budget and feasibility can
    only grow with the budget.  After i steps no column above i times the
    largest admissible unit count holds a finite value, and the step skips
    those columns.  Without a budget every step costs zero units and the
    columns are the penalty rates: one for ``cfg.penalty``, or one per
    entry of ``rates``, each with cost rows f** + rate*theta.

    Transitions are indexed by state offset (``Discretization.transitions``):
    the value buffer is padded with inf by the largest offsets on the state
    axis and by the largest admissible unit count on the column axis, so
    every offset's predecessor values are one strided window of it.  A
    step adds h*(g + f**) of each (offset, target) pair, inf where the
    pair is not admissible, to those windows in one (offsets x columns x
    states) block, with one add per (offset, unit count) segment when the
    unit counts differ; the next value is the minimum over offsets, and
    the backpointer the first offset that attains it, or -1 where no
    candidate is finite.  Offsets run from the largest, so ties go to the
    smallest predecessor.  The step's cost block is rebuilt only when its
    f or g row changes.  Two value buffers are swapped between steps.

    Returns (value, node path, quotient path), or Nones when the end node
    is unreachable; the paths are None unless ``want_path``.  With
    ``rates`` it returns a list of such triples, one per rate.
    """
    per_rate = rates is not None
    disc = tab.disc
    top, table = disc.transitions
    reps = disc.grid
    n_offsets, n_x = table.shape
    n_q = reps.size
    columns = [
        tab.f_costs + rate * cfg.theta(reps) if rate > 0.0 else tab.f_costs
        for rate in (map(float, rates) if per_rate else [cfg.penalty])
    ]
    # [f row, cost column, quotient], with inf at the sentinel quotient n_q
    costs = np.pad(np.stack(columns, axis=1), ((0, 0), (0, 0), (0, 1)), constant_values=np.inf)
    if budget is None:
        units = np.zeros(n_q + 1, dtype=np.int64)
        n_cols = start = costs.shape[1]
    else:
        units = np.append(_units(tab, cfg, budget), 0)
        n_cols, start = cfg.budget_levels + 1, 1
    # A padded state row holds node j at top + j, with inf on either side
    # wide enough for every offset; the table gets the same padding, as
    # inadmissible pairs.
    width = n_x + n_offsets - 1
    pairs = np.pad(table.astype(np.intp), ((0, 0), (top, width - n_x - top)), constant_values=n_q)
    # a quotient whose units exceed the levels is never admissible
    pairs[units[pairs] >= n_cols] = n_q
    pair_units = units[pairs]
    u_max = int(pair_units.max())
    segments = _segments(pairs < n_q, pair_units)
    # A value buffer is flat: padded rows of width entries, column c in row
    # 1 + u_max + c, below it u_max + 1 rows of inf and above it one.  So
    # windows[base - u * width + r, c, top + k] reads node k - (top - r) in
    # column c - u, and a step's adds and minimum run over whole rows.
    rows = u_max + n_cols + 2
    base = (1 + u_max) * width - top
    buffers = [np.full(rows * width, np.inf) for _ in range(2)]
    buffers[0].reshape(rows, width)[1 + u_max : 1 + u_max + start, top + disc.endpoints[0]] = 0.0
    windows = [
        sliding_window_view(b, n_cols * width).reshape(-1, n_cols, width) for b in buffers
    ]
    g_ext = np.full(width + n_offsets - 1, np.inf)
    step_cost = np.empty((n_offsets, n_cols, width))
    cand = np.empty_like(step_cost)
    # backpointers: an offset row, or -1 where no candidate is finite
    back_type = np.min_scalar_type(-n_offsets)
    back = np.full((cfg.n_t, n_cols, width), -1, back_type) if want_path else None
    # the first offset row that attains the minimum has the largest weight
    weights = np.arange(n_offsets - 1, -1, -1, dtype=back_type)[:, None, None]
    hits = np.empty(cand.shape, dtype=bool)
    ranks = np.empty(cand.shape, dtype=back_type)
    first = np.empty((n_cols, width), dtype=back_type)
    unreached = np.empty((n_cols, width), dtype=bool)
    key = None  # the (f row, g row) of step_cost
    for i in range(cfg.n_t):
        if key != (tab.f_rows[i], tab.g_rows[i]):
            if key is None or key[0] != tab.f_rows[i]:
                fq = np.take(costs[tab.f_rows[i]], pairs, axis=1).transpose(1, 0, 2)
            key = (tab.f_rows[i], tab.g_rows[i])
            # g of the predecessor: node k - (top - r) sits at r + top + k
            g_ext[2 * top : 2 * top + n_x] = tab.g_costs[key[1]]
            np.add(sliding_window_view(g_ext, width)[:, None, :], fq, out=step_cost)
            np.multiply(step_cost, tab.step, out=step_cost)
        reach = min(n_cols, start + (i + 1) * u_max)  # later columns are all infinite
        block = cand[:, :reach]
        for r0, r1, targets, u in segments:
            at = base - u * width
            np.add(
                windows[i % 2][at + r0 : at + r1, :reach, targets],
                step_cost[r0:r1, :reach, targets],
                out=block[r0:r1, :, targets],
            )
        best = buffers[1 - i % 2][(1 + u_max) * width : (1 + u_max + reach) * width]
        best = best.reshape(reach, width)
        np.minimum.reduce(block, axis=0, out=best)
        if want_path:
            np.equal(block, best, out=hits[:, :reach])
            np.multiply(hits[:, :reach].view(np.int8), weights, out=ranks[:, :reach])
            np.maximum.reduce(ranks[:, :reach], axis=0, out=first[:reach])
            np.subtract(weights[0], first[:reach], out=back[i, :reach])
            np.equal(best, np.inf, out=unreached[:reach])
            np.copyto(back[i, :reach], -1, where=unreached[:reach])
    values = buffers[cfg.n_t % 2].reshape(rows, width)
    column = values[1 + u_max : 1 + u_max + n_cols, top + disc.endpoints[1]]
    ends = range(n_cols) if per_rate else [int(np.argmin(column))]
    path = (top, pairs, units)
    results = [_backtrack(tab, cfg, column, back, path, end) for end in ends]
    return results if per_rate else results[0]


def _segments(admissible: np.ndarray, pair_units: np.ndarray) -> list:
    """(first offset row, stop row, targets, units) blocks that cover the
    padded offset table, each with one unit count for its admissible
    pairs: the whole table when all admissible pairs have the same units,
    else each row cut where the units of its admissible pairs change.
    Inadmissible pairs cost inf, so they may join any block."""
    n_offsets = admissible.shape[0]
    found = np.unique(pair_units[admissible])
    if found.size <= 1:
        return [(0, n_offsets, slice(None), int(found.max(initial=0)))]
    segments = []
    for r in range(n_offsets):
        at = np.flatnonzero(admissible[r])
        units = pair_units[r, at]
        starts = np.flatnonzero(np.diff(units, prepend=-1))
        cuts = [0, *at[starts[1:]].tolist(), None]
        for lo, hi, u in zip(cuts, cuts[1:], units[starts].tolist() or [0]):
            segments.append((r, r + 1, slice(lo, hi), u))
    return segments


def _backtrack(tab, cfg, column, back, path, level):
    """(value, node path, quotient path) of the DP ending in column ``level``."""
    if not np.isfinite(column[level]):
        return None, None, None
    best = float(column[level])
    if back is None:
        return best, None, None
    top, pairs, units = path
    idx = np.empty(cfg.n_t + 1, dtype=np.int64)
    qidx = np.empty(cfg.n_t, dtype=np.int64)
    idx[-1] = tab.disc.endpoints[1]
    for i in range(cfg.n_t - 1, -1, -1):
        k = int(idx[i + 1])
        r = int(back[i, level, top + k])
        idx[i] = k - (top - r)
        qidx[i] = pairs[r, top + k]
        level -= int(units[qidx[i]])
    return best, idx, qidx


def _solve(problem: Problem, cfg: DPConfig, tab: _Tables) -> Trajectory:
    """The minimizer of the DP under ``cfg``, its speed budget included."""
    value, idx, qidx = _dp(tab, cfg, cfg.theta_budget, want_path=True)
    if value is None:
        if cfg.theta_budget is None:
            raise InfeasibleError("no admissible grid path connects the endpoints")
        raise InfeasibleError("speed budget excludes every admissible path")
    return _checked(problem, cfg, tab, value, idx, qidx)


def _checked(
    problem: Problem, cfg: DPConfig, tab: _Tables, value: float, idx, qidx
) -> Trajectory:
    """The trajectory of a DP path, whose recomputed cost must reproduce
    the DP value."""
    xs = tab.disc.xs
    states = xs[idx]
    q = tab.disc.grid[qidx]
    warnings = []
    interior = states[1:-1]
    if interior.size and (np.any(interior == xs[0]) or np.any(interior == xs[-1])):
        warnings.append("boundary-contact")
    if np.any(np.abs(q) >= problem.velocity_cap * (1.0 - 1e-12)):
        warnings.append("cap-saturation")
    f_values = tab.f_costs[tab.f_rows, qidx]
    g_values = tab.g_costs[tab.g_rows, idx[:-1]]
    traj = Trajectory.costed(
        tab.disc.times, states, q, f_values, g_values, cfg.theta, tuple(warnings)
    )
    total = traj.value if cfg.theta is None else traj.value + cfg.penalty * traj.theta_value
    if abs(total - value) > 1e-9 * (1.0 + abs(total)):
        raise CertificateError("trajectory cost does not reproduce the DP value")
    return traj


def solve_relaxed(problem: Problem, cfg: DPConfig) -> Trajectory:
    """Exact minimizer of the discrete relaxed problem on the given grids.

    Costs use the lower convex hull of the velocity slice at each time
    node, so non-convex integrands are solved in relaxed form.  With a
    ``theta_budget`` configured the search is restricted to paths whose
    quantized speed budget stays within the bound.  The ``penalty`` field
    is ignored here; ``nagumo_penalized_solve`` owns it.
    """
    base = replace(cfg, penalty=0.0)
    return _solve(problem, base, _tables(problem, base))


def nagumo_penalized_solve(problem: Problem, cfg: DPConfig) -> Trajectory:
    """DP on the penalized cost f** + g + penalty * theta(|x'|), under the
    ``theta_budget`` when one is configured.

    With ``penalty == 0`` this is bit-identical to ``solve_relaxed``.  The
    reported ``value`` stays the unpenalized running cost; the penalized
    objective is ``value + penalty * theta_value``.
    """
    if cfg.theta is None:
        raise CertificateError("penalized solve requires a Nagumo entry")
    return _solve(problem, cfg, _tables(problem, cfg))


def _fewest_units(tab: _Tables, cfg: DPConfig, units: np.ndarray) -> float:
    """Fewest budget units of any grid path, or inf when none reaches the
    end: the plain DP with the units as step costs.  Units are whole
    numbers, so their float sums are exact."""
    counts = replace(
        tab,
        step=1.0,
        f_costs=units[None, :].astype(float),
        g_costs=np.zeros((1, tab.disc.xs.size)),
        f_rows=np.zeros(cfg.n_t, dtype=np.intp),
        g_rows=np.zeros(cfg.n_t, dtype=np.intp),
    )
    value = _dp(counts, replace(cfg, penalty=0.0), None, want_path=False)[0]
    return np.inf if value is None else value


def fewest_budget_units(problem: Problem, cfg: DPConfig, budget: float) -> float:
    """Fewest quantized budget units of any grid path under ``budget``; the
    budget admits a path iff this is at most ``cfg.budget_levels``."""
    if cfg.theta is None:
        raise CertificateError("budget units require a Nagumo entry")
    tab = _tables(problem, cfg)
    return _fewest_units(tab, cfg, _units(tab, cfg, budget))


def _budget_values(
    tab: _Tables, cfg: DPConfig, budgets: np.ndarray
) -> list[float | None]:
    """The budget DP's value at each entry of an increasing schedule,
    running that DP only where three exact checks leave the answer open.

    Float rounding is monotone, so a DP value is the least left-to-right
    float sum over the paths it admits, and a budget admits a path iff the
    path's whole-number units total at most ``budget_levels``.  Units do
    not increase with the budget, so the admitted set only grows: no value
    is below the plain DP's (same ``cfg``, penalty included), and from the
    first entry that reaches it on, every entry equals it bit for bit.
    An entry is None iff even the fewest units of any grid path exceed the
    levels; those entries are a prefix, found by bisection.  An entry
    whose units admit the plain minimizer takes its value.
    """
    plain, _, plain_q = _dp(tab, cfg, None, want_path=True)
    values: list[float | None] = [None] * budgets.size
    if plain is None:
        return values
    units = [_units(tab, cfg, float(b)) for b in budgets]

    def fits(k: int) -> bool:
        return int(units[k][plain_q].sum()) <= cfg.budget_levels

    def admits(k: int) -> bool:
        return fits(k) or _fewest_units(tab, cfg, units[k]) <= cfg.budget_levels

    for k in range(bisect_left(range(budgets.size), True, key=admits), budgets.size):
        values[k] = plain if fits(k) else _dp(tab, cfg, float(budgets[k]), False)[0]
        if values[k] == plain:
            values[k:] = [plain] * (budgets.size - k)
            break
    return values


def _budget_schedule(budget_schedule: np.ndarray) -> np.ndarray:
    """The schedule of either sweep, checked: at least 2 entries,
    increasing and positive."""
    budgets = np.asarray(budget_schedule, dtype=float)
    if budgets.size < 2 or not np.all(np.diff(budgets) > 0):
        raise CertificateError("budget schedule must be increasing with >= 2 entries")
    if budgets[0] <= 0.0:
        raise CertificateError("budget schedule entries must be positive")
    return budgets


def value_sweep(
    problem: Problem, cfg: DPConfig, budget_schedule: np.ndarray
) -> SweepReport:
    """Constrained value along an increasing speed-budget schedule.

    Rounding the per-step budget up to each entry's quantum makes larger
    budgets admit every path a smaller one does, so the feasible values
    are nonincreasing by construction.  Each value is the budget DP's bit
    for bit, but entries that admit no path or admit the unconstrained
    minimizer, and entries after the first that reaches its value, are
    decided without one.  The settle index is reported when the last
    quarter of the schedule agrees within tolerance.
    """
    if cfg.theta is None:
        raise CertificateError("value sweep requires a Nagumo entry")
    budgets = _budget_schedule(budget_schedule)
    values = _budget_values(_tables(problem, cfg), cfg, budgets)
    feasible = [(i, v) for i, v in enumerate(values) if v is not None]
    for (_, v1), (_, v2) in zip(feasible, feasible[1:]):
        if v2 > v1 + SETTLE_TOL * (1.0 + abs(v1)):
            raise CertificateError("constrained values increased along the schedule")
    settle = settle_index(budgets, values)
    return SweepReport(budgets=budgets, values=values, settle_index=settle)


def lagrangian_sweep(
    problem: Problem,
    cfg: DPConfig,
    budget_schedule: np.ndarray,
) -> SweepReport:
    """Fast dual lower bound on the budget-constrained values.

    One DP pass solves the penalized problem for every multiplier of
    ``MULTIPLIERS``, with one cost column f** + multiplier*theta each, and
    every column's path is costed again and must reproduce its DP value.
    Each multiplier contributes the affine bound (penalized minimum) -
    multiplier * budget, and the pointwise maximum over multipliers bounds
    the constrained value from below.  This is an approximation; the
    authoritative sweep is ``value_sweep``.
    """
    if cfg.theta is None:
        raise CertificateError("Lagrangian sweep requires a Nagumo entry")
    budgets = _budget_schedule(budget_schedule)
    tab = _tables(problem, cfg)
    penalized_minima = []
    for rate, (value, idx, qidx) in zip(
        MULTIPLIERS, _dp(tab, cfg, None, want_path=True, rates=MULTIPLIERS)
    ):
        if value is None:
            raise InfeasibleError("no admissible grid path connects the endpoints")
        rated = replace(cfg, penalty=float(rate))
        traj = _checked(problem, rated, tab, value, idx, qidx)
        penalized_minima.append(traj.value + float(rate) * traj.theta_value)
    duals = np.array(penalized_minima)[:, None] - MULTIPLIERS[:, None] * budgets[None, :]
    values = [float(v) for v in duals.max(axis=0)]
    return SweepReport(
        budgets=budgets, values=values, settle_index=settle_index(budgets, values)
    )


def settle_index(
    budgets: np.ndarray, values: list[float | None], tol: float = SETTLE_TOL
) -> int | None:
    """First index after which the values stay constant within tolerance,
    provided the last quarter of the schedule already agrees."""
    window = -(-budgets.size // 4)  # ceil(K/4)
    tail = values[-window:]
    if any(v is None for v in tail):
        return None
    last = tail[-1]
    if max(abs(v - last) for v in tail) > tol:
        return None
    settle = budgets.size - 1
    while settle > 0:
        v = values[settle - 1]
        if v is None or abs(v - last) > tol:
            break
        settle -= 1
    return settle


@dataclass(frozen=True, eq=False)
class CoercivityReport:
    """Discrete version of the reference-path chain bounding the L1 speed."""

    reference_value: float
    trajectory_value: float
    linear_lower_bound: float
    velocity_l1: float
    state_l1: float
    velocity_l1_bound: float | None
    reference_ok: bool
    lower_bound_ok: bool
    velocity_bound_ok: bool | None

    @property
    def consistent(self) -> bool:
        checks = [self.reference_ok, self.lower_bound_ok]
        if self.velocity_bound_ok is not None:
            checks.append(self.velocity_bound_ok)
        return all(checks)


def coercivity_bound_check(
    problem: Problem,
    trajectory: Trajectory,
    hypotheses: HypothesisReport,
    cfg: DPConfig,
) -> CoercivityReport:
    """Verify the cost chain reference >= trajectory >= linear lower bound
    and the implied a-priori bound on the discrete L1 speed norm.

    A violated inequality flags inconsistent hypothesis constants rather
    than raising: the report is a diagnostic on fitted constants.
    """
    disc = Discretization.of(problem, cfg)
    step, times = disc.step, disc.times
    mean_speed = (problem.end - problem.start) / problem.horizon
    raw = problem.start + mean_speed * times
    snapped = disc.xs[nearest_index(disc.xs, raw)]
    snapped[0] = problem.start
    snapped[-1] = problem.end
    q = np.diff(snapped) / step
    if np.any(np.abs(q) > problem.velocity_cap * (1.0 + 1e-12)):
        raise InfeasibleError("reference path violates the velocity cap")
    _, _, f_values, g_values = disc.path_costs(times[:-1], snapped[:-1], q)
    ref_value = Trajectory.costed(times, snapped, q, f_values, g_values).value

    a_const = hypotheses.f_bound_offset
    alpha = hypotheses.g_bound_offset
    b_slope = hypotheses.f_bound_slope
    beta = hypotheses.g_bound_slope
    horizon = problem.horizon
    vel_l1 = trajectory.velocity_l1()
    state_l1 = trajectory.state_l1()
    lower = (-a_const - alpha) * horizon + b_slope * vel_l1 - beta * state_l1

    tol = 1e-9
    reference_ok = ref_value >= trajectory.value - tol * (1.0 + abs(ref_value))
    lower_ok = trajectory.value >= lower - tol * (1.0 + abs(lower))
    denom = b_slope - beta * horizon
    if denom > 0:
        tilde_a = (-a_const - alpha) * horizon - beta * horizon * abs(problem.start)
        bound = (ref_value - tilde_a) / denom
        vel_ok = vel_l1 <= bound + tol * (1.0 + abs(bound))
    else:
        bound = None
        vel_ok = None
    return CoercivityReport(
        reference_value=ref_value,
        trajectory_value=trajectory.value,
        linear_lower_bound=lower,
        velocity_l1=vel_l1,
        state_l1=state_l1,
        velocity_l1_bound=bound,
        reference_ok=bool(reference_ok),
        lower_bound_ok=bool(lower_ok),
        velocity_bound_ok=None if vel_ok is None else bool(vel_ok),
    )

