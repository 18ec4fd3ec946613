"""Dynamic-programming solver for the relaxed problem, speed-budget
sweeps, penalized variants, and the a-priori coercivity check.

One DP kernel (``_dp``) serves every solve and sweep.  It is exact on its
grid, which ``discretize.Discretization`` builds, with ties broken toward
the smallest predecessor, so results are schedule-independent.  Each path
it returns is costed again by ``problem.path_sums`` and must reproduce its
DP value; ``lagrangian_sweep`` costs its 14 paths as one batch.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from math import isfinite

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .classify import HypothesisReport
from .convex import EnvelopeTable
from .discretize import Discretization, nearest_index
from .errors import CertificateError, InfeasibleError
from .problem import DPConfig, Problem, SweepReport, Trajectory, check_paths, path_sums

SETTLE_TOL = 1e-9
# Candidate entries a chunk of DP steps holds before it takes their
# backpointers in one pass: (steps x offsets x columns x states) floats.
CHUNK_ENTRIES = 2**15
# The multipliers of ``lagrangian_sweep``: 0 and 2^-6 .. 2^6.
MULTIPLIERS = np.concatenate([[0.0], 2.0 ** np.arange(-6.0, 7.0)])


@dataclass(frozen=True, eq=False)
class _Tables:
    """Cost rows of one discretization and the DP's step factor.

    ``f_costs`` holds the envelope of f at the quotients, read from
    ``f_table``, and ``g_costs`` holds g on the state grid, each on the
    rows its integrand's ``table`` returns; time step i reads rows
    ``f_rows[i]`` and ``g_rows[i]``.  A DP trajectory carries ``f_table``.
    ``thetas``, theta at the quotients, prices penalties and budgets.
    """

    disc: Discretization
    step: float
    f_table: EnvelopeTable
    f_costs: np.ndarray
    g_costs: np.ndarray
    f_rows: np.ndarray
    g_rows: np.ndarray
    thetas: np.ndarray | None


def _tables(problem: Problem, cfg: DPConfig) -> _Tables:
    disc = Discretization.of(problem, cfg)
    times = disc.interval_times(disc.times)
    table, f_rows = disc.envelope_table(times)
    f_costs = table.at(np.arange(len(table.values))[:, None], disc.grid)
    g_costs, g_rows = problem.g.finite_table(times, disc.xs, "state cost g", "the state grid")
    thetas = None if cfg.theta is None else cfg.theta(disc.grid)
    return _Tables(disc, disc.step, table, f_costs, g_costs, f_rows, g_rows, thetas)


def _units(tab: _Tables, cfg: DPConfig, budgets: float | np.ndarray) -> np.ndarray:
    """Budget units of each quotient, a row per budget of an array: h*theta(q)
    rounded up to whole quanta of budget/levels, never rising with the budget."""
    quanta = np.divide(budgets, cfg.budget_levels)[..., None]
    units = np.ceil(tab.disc.step * tab.thetas / quanta)
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
    only grow with the budget; after i steps no column above i times the
    largest unit count is finite, and a chunk of steps skips those columns.
    Without a budget every step costs zero units and the columns are the
    penalty rates: one for ``cfg.penalty``, or one per entry of ``rates``,
    each with cost rows f** + rate*theta.

    Transitions are indexed by state offset (``Discretization.transitions``).
    The value buffer is padded with inf, so every offset's predecessor
    values are one strided window of it.  A step adds h*(g + f**) of each
    (offset, target) pair, inf where the pair is not admissible, to those
    windows in one (offsets x columns x states) block, one add per (offset,
    unit count) segment when the counts differ, and takes the minimum over
    offsets.  Offsets run from the largest, and the backpointer is the
    first offset that attains the minimum, so ties go to the smallest
    predecessor.  An unreachable target's backpointer is arbitrary: a walk
    starts at a finite end value, and every predecessor of a finite value
    is finite, so no walk reads it.

    Steps run in chunks of K = CHUNK_ENTRIES // (offsets x columns x states)
    steps, at least one and at most n_t, after a set-up in whole-array
    calls, on views cut once per call from one view per segment over all K
    slots (per chunk over its columns in a budget DP's early chunks): step s
    of a chunk adds cost block s (block 0 when no row of f or g changes) to its
    windows of value row s, into candidate block s, and writes the minimum
    to value row s + 1.  When a row changes, a chunk's cost blocks are
    built before its steps by one gather of f** through the offset table,
    one add of g and one multiply by h.  When every sample of g is zero
    they are one gather of h*f**, multiplied once per DP: F + g is F
    except where F is -0.0 and g +0.0, and there only its sign differs,
    which no candidate shows, since a value starts at +0.0 and no sum of
    it becomes -0.0.  After its last step three passes
    take the chunk's backpointers: the candidates equal to their minimum,
    that mask in int8 times the offsets' descending weights, and the
    maximum over offsets, the weight (rank) of the first hit.  So memory
    grows with n_t only by the backpointers and the path.

    Returns (value, node path, quotient path), or Nones when the end node
    is unreachable; the paths are None unless ``want_path``.  With
    ``rates`` it returns a list of such triples, one per rate.
    """
    per_rate = rates is not None
    disc = tab.disc
    top, table = disc.transitions
    n_offsets, n_x = table.shape
    n_q = disc.grid.size
    rates = rates if per_rate else [cfg.penalty]
    # [f row, cost column, quotient], with inf at the sentinel quotient n_q
    costs = np.full((len(tab.f_costs), len(rates), n_q + 1), np.inf)
    for c, rate in enumerate(map(float, rates)):
        costs[:, c, :n_q] = tab.f_costs + rate * tab.thetas if rate > 0.0 else tab.f_costs
    if budget is None:
        units = np.zeros(n_q + 1, dtype=np.int64)
        n_cols = start = len(rates)
    else:
        units = np.append(_units(tab, cfg, budget), 0)
        n_cols, start = cfg.budget_levels + 1, 1
    # A padded state row holds node j at top + j, with inf on either side
    # wide enough for every offset; the table gets the same padding, as
    # inadmissible pairs.
    width = n_x + n_offsets - 1
    pairs = np.full((n_offsets, width), n_q, np.intp)
    pairs[:, top : top + n_x] = table
    # a quotient whose units exceed the levels is never admissible
    pairs[units[pairs] >= n_cols] = n_q
    pair_units = units[pairs]
    u_max = int(pair_units.max())
    segments = _segments(pairs < n_q, pair_units)
    # A value row is one flat buffer: padded state rows of width entries,
    # column c in row 1 + u_max + c, below it u_max + 1 rows of inf and
    # above it one.  So windows[s, base - u * width + r, c, top + k] reads
    # node k - (top - r) in column c - u of value row s, and a step's adds
    # and minimum run over whole rows.
    chunk = max(1, min(cfg.n_t, CHUNK_ENTRIES // (n_offsets * n_cols * width)))
    rows = u_max + n_cols + 2
    base = (1 + u_max) * width - top
    buffers = np.full((chunk + 1, rows * width), np.inf)
    values = buffers.reshape(chunk + 1, rows, width)[:, 1 + u_max : 1 + u_max + n_cols]
    values[0, :start, top + disc.endpoints[0]] = 0.0
    (pitch, item), shape = buffers.strides, (chunk + 1, (rows - n_cols) * width + 1, n_cols, width)
    windows = as_strided(buffers, shape, (pitch, item, width * item, item), writeable=False)
    cand = np.empty((chunk, n_offsets, n_cols, width))
    # Cost blocks [slot, offset, cost column, padded target]: one per step
    # of a chunk when a row changes (a table has a row per distinct time),
    # else one for all steps; the budget columns share one cost column.  An
    # f row's flat entry c * (n_q + 1) + pairs[r, k] is its cost column c
    # at the pair (r, k), and g of the predecessor, node k - (top - r), sits
    # at r + top + k of g's padded row.
    # with a zero g the blocks are gathered from h*costs, scaled once here
    zero_g = not tab.g_costs.any()
    if zero_g:
        np.multiply(costs, tab.step, out=costs)
    changing = len(tab.f_costs) > 1 or (len(tab.g_costs) > 1 and not zero_g)
    cost_cols = costs.shape[1]
    step_costs = np.empty((chunk if changing else 1, n_offsets, cost_cols, width))
    flat_pairs = pairs[:, None, :] + (n_q + 1) * np.arange(cost_cols)[:, None]
    g_ext = np.full((len(step_costs), width + n_offsets - 1), np.inf)
    g_windows = as_strided(
        g_ext, (len(g_ext), n_offsets, 1, width), (g_ext.strides[0], item, 0, item), writeable=False
    )

    def build_costs(i, m):
        """Cost blocks 0 .. m - 1, of steps i .. i + m - 1."""
        out = step_costs[:m]
        f_costs = costs[tab.f_rows[i : i + m]].reshape(m, -1)
        # every index is in range; "clip" writes to out without a buffer
        np.take(f_costs, flat_pairs, axis=1, out=out, mode="clip")
        if not zero_g:
            g_ext[:m, 2 * top : 2 * top + n_x] = tab.g_costs[tab.g_rows[i : i + m]]
            np.add(out, g_windows[:m], out=out)
            np.multiply(out, tab.step, out=out)

    def views(cols, m):
        """(adds, candidate block, value row) of slots 0 .. m - 1 over columns
        :cols, cut from each segment's views over every slot."""
        segs = [
            (
                windows[:, base - u * width + r0 : base - u * width + r1, :cols, targets],
                step_costs[:, r0:r1, :cols, targets],
                cand[:, r0:r1, :cols, targets],
            )
            for r0, r1, targets, u in segments
        ]
        blocks, value_rows = cand[:, :, :cols], values[1:, :cols]
        return [
            ([(w[s], k[s if changing else 0], o[s]) for w, k, o in segs], blocks[s], value_rows[s])
            for s in range(m)
        ]

    plans = views(n_cols, chunk)
    if not changing:
        build_costs(0, 1)
    # Backpointers: the rank n_offsets - 1 - r of the first offset row r
    # that attains the minimum, which has the largest weight; the walk
    # turns a rank back into its row.
    back_type = np.min_scalar_type(-n_offsets)
    back = np.empty((cfg.n_t, n_cols, width), back_type) if want_path else None
    weights = np.arange(n_offsets - 1, -1, -1, dtype=back_type)[:, None, None]
    hits = np.empty(cand.shape, dtype=bool)
    ranks = np.empty(cand.shape, dtype=back_type)
    for i0 in range(0, cfg.n_t, chunk):
        m = min(chunk, cfg.n_t - i0)
        # columns that may be finite after the chunk; later ones are all inf
        last = min(n_cols, start + (i0 + m) * u_max)
        if changing:
            build_costs(i0, m)
        for adds, block, row in plans[:m] if last == n_cols else views(last, m):
            for window, cost, out in adds:
                np.add(window, cost, out=out)
            np.minimum.reduce(block, axis=0, out=row)
        # The chunk's backpointers, over every column: columns beyond an
        # early chunk's reach hold stale candidates, whose values are inf.
        if want_path:
            np.equal(cand[:m], values[1 : m + 1, None], out=hits[:m])
            np.multiply(hits[:m].view(np.int8), weights, out=ranks[:m])
            np.maximum.reduce(ranks[:m], axis=1, out=back[i0 : i0 + m])
        values[0, :last] = values[m, :last]
    column = values[0, :, top + disc.endpoints[1]]
    # The walk reads back as Python ints through one flat view, at index
    # (i * n_cols + c) * width + K of step i, column c and padded node K: the
    # predecessor is K + r - top, in column c minus the units of pair (r, K).
    ends, shift = column.tolist(), n_offsets - 1 - top - n_cols * width
    flat = memoryview(back.reshape(-1)) if want_path else None
    rank_units = pair_units[::-1].ravel().tolist() if want_path and u_max else None
    # a walk's end node, then the move K_i - K_i+1 = r - top of steps n_t - 1 .. 0
    moves = np.full(cfg.n_t + 1, disc.endpoints[1])

    def walk(c):
        """(value, node path, quotient path) of the DP ending in column c."""
        if not isfinite(ends[c]):
            return None, None, None
        if not want_path:
            return ends[c], None, None
        at, read = ((cfg.n_t - 1) * n_cols + c) * width + top + disc.endpoints[1], []
        if rank_units is None:
            for _ in range(cfg.n_t):
                read.append(b := flat[at])
                at += shift - b
        else:
            for _ in range(cfg.n_t):
                read.append(b := flat[at])
                at += shift - b - width * rank_units[b * width + at % width]
        moves[1:] = read
        np.subtract(n_offsets - 1 - top, moves[1:], out=moves[1:])
        nodes = moves.cumsum()[::-1]
        return ends[c], nodes, pairs[:, top:][moves[:0:-1] + top, nodes[1:]]

    if per_rate:
        return [walk(c) for c in range(n_cols)]
    return walk(int(np.argmin(column)))


def _segments(admissible: np.ndarray, pair_units: np.ndarray) -> list:
    """(first offset row, stop row, targets, units) blocks that cover the
    padded offset table, each with one unit count for its admissible
    pairs: the whole table when all admissible pairs have the same units,
    else each row cut where the units of its admissible pairs change.
    Inadmissible pairs cost inf, so they may join any block."""
    n_offsets = admissible.shape[0]
    found = pair_units[admissible]
    if found.size == 0 or found.min() == found.max():
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


def _solve(problem: Problem, cfg: DPConfig, tab: _Tables) -> Trajectory:
    """The minimizer of the DP under ``cfg``, its speed budget included,
    whose recomputed cost must reproduce the DP value."""
    value, idx, qidx = _dp(tab, cfg, cfg.theta_budget, want_path=True)
    if value is None:
        if cfg.theta_budget is None:
            raise InfeasibleError("no admissible grid path connects the endpoints")
        raise InfeasibleError("speed budget excludes every admissible path")
    disc, xs = tab.disc, tab.disc.xs
    states, q = xs[idx], disc.grid[qidx]
    warnings = []
    interior = states[1:-1]
    if interior.size and (np.any(interior == xs[0]) or np.any(interior == xs[-1])):
        warnings.append("boundary-contact")
    if np.any(np.abs(q) >= problem.velocity_cap * (1.0 - 1e-12)):
        warnings.append("cap-saturation")
    costing = (disc, tab.f_table, tab.f_rows)
    traj = Trajectory.costed(
        disc.times, states, q, *_path_values(tab, idx, qidx), cfg.theta, tuple(warnings), costing
    )
    total = traj.value if cfg.theta is None else traj.value + cfg.penalty * traj.theta_value
    _reproduces(total, value)
    return traj


def _path_values(tab: _Tables, idx, qidx):
    """f** and g of each interval of DP paths, one along the last axis."""
    return tab.f_costs[tab.f_rows, qidx], tab.g_costs[tab.g_rows, idx[..., :-1]]


def _reproduces(totals, values) -> None:
    """Raise unless each recomputed path cost reproduces its DP value."""
    if np.any(np.abs(totals - values) > 1e-9 * (1.0 + np.abs(totals))):
        raise CertificateError("trajectory cost does not reproduce the DP value")


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
    units = _units(tab, cfg, budgets)
    fits = units[:, plain_q].sum(axis=1) <= cfg.budget_levels

    def admits(k: int) -> bool:
        return bool(fits[k]) or _fewest_units(tab, cfg, units[k]) <= cfg.budget_levels

    for k in range(bisect_left(range(budgets.size), True, key=admits), budgets.size):
        values[k] = plain if fits[k] else _dp(tab, cfg, float(budgets[k]), False)[0]
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
    ``MULTIPLIERS``, with one cost column f** + multiplier*theta each.  The
    14 paths are costed again as one batch, by the rule and the checks of
    a ``Trajectory``, and each must reproduce its DP value.
    Each multiplier contributes the affine bound (penalized minimum) -
    multiplier * budget, and the pointwise maximum over multipliers bounds
    the constrained value from below.  This is an approximation; the
    authoritative sweep is ``value_sweep``.
    """
    if cfg.theta is None:
        raise CertificateError("Lagrangian sweep requires a Nagumo entry")
    budgets = _budget_schedule(budget_schedule)
    tab = _tables(problem, cfg)
    columns = _dp(tab, cfg, None, want_path=True, rates=MULTIPLIERS)
    if any(value is None for value, _, _ in columns):
        raise InfeasibleError("no admissible grid path connects the endpoints")
    dp_values, idx, qidx = (np.array(part) for part in zip(*columns))
    disc = tab.disc
    states, q = disc.xs[idx], disc.grid[qidx]
    f_cost, g_cost, theta_value = path_sums(disc.times, *_path_values(tab, idx, qidx), cfg.theta, q)
    check_paths(disc.times, states, q, f_cost + g_cost)
    penalized_minima = f_cost + g_cost + MULTIPLIERS * theta_value
    _reproduces(penalized_minima, dp_values)
    duals = penalized_minima[:, None] - MULTIPLIERS[:, None] * budgets[None, :]
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
    disc = Discretization.of_path(problem, cfg, trajectory)
    step, times = disc.step, disc.times
    mean_speed = (problem.end - problem.start) / problem.horizon
    raw = problem.start + mean_speed * times
    snapped = disc.xs[nearest_index(disc.xs, raw)]
    snapped[0] = problem.start
    snapped[-1] = problem.end
    q = np.diff(snapped) / step
    if np.any(np.abs(q) > problem.speed_limit):
        raise InfeasibleError("reference path violates the velocity cap")
    interval_times = disc.interval_times(times)
    _, _, f_values, g_values = disc.path_costs(interval_times, snapped[:-1], q, trajectory)
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

