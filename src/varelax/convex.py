"""Discrete convex analysis over sampled functions.

The central representation is the piecewise-linear lower convex hull of a
sampled graph.  Because everything is finite, each operation (envelope
evaluation, subdifferentials, convex-combination splittings)
is exact on the sample data and can be cross-checked by enumeration.

One-dimensional velocity grids are the workhorse.  A planar velocity
cloud is split at one target by a small linear program, solved by the
dense simplex that the drift fit of the certify stage also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, DegenerateInputError, OutOfDomainError

# Absolute tolerance for simplex-weight sums; relative tolerance for
# barycentric reconstruction.  Both are pinned by double-precision hull
# arithmetic, not by problem data.
WEIGHT_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-9
# Pivot cap of each simplex run, per LP row: the entering rule never
# cycles, so reaching it means the arithmetic went astray.
LP_PIVOTS_PER_ROW = 20


def _as_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size and not np.isfinite(arr).all():
        raise DegenerateInputError(f"{name} must contain finite values only")
    return arr


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Strictly increasing finite velocity grid."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_array(self.points, "grid points")
        if pts.ndim != 1 or pts.size < 2:
            raise DegenerateInputError("grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise DegenerateInputError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """A function slice tabulated on a velocity grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = _as_array(self.values, "sample values")
        if vals.shape != (len(self.grid),):
            raise DegenerateInputError("values length must match grid length")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class ConvexEnvelope:
    """Lower convex hull of a sampled graph, stored by its vertices."""

    breakpoints: np.ndarray
    hull_values: np.ndarray
    edge_slopes: np.ndarray

    def __post_init__(self):
        bp = _as_array(self.breakpoints, "breakpoints")
        hv = _as_array(self.hull_values, "hull values")
        es = _as_array(self.edge_slopes, "edge slopes")
        if bp.size < 2 or hv.shape != bp.shape or es.shape != (bp.size - 1,):
            raise DegenerateInputError("inconsistent envelope arrays")
        if not (bp[1:] > bp[:-1]).all():
            raise DegenerateInputError("breakpoints must be strictly increasing")
        if (es[1:] - es[:-1] < -1e-12 * np.maximum(1.0, np.abs(es[:-1]))).any():
            raise DegenerateInputError("edge slopes must be nondecreasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "hull_values", hv)
        object.__setattr__(self, "edge_slopes", es)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])


@dataclass(frozen=True)
class SubgradientInterval:
    """Closed slope interval [lo, hi] of a convex PWL function at a point."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DegenerateInputError("subgradient bounds must be finite")
        if self.lo > self.hi:
            raise DegenerateInputError("subgradient interval must satisfy lo <= hi")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True, eq=False)
class CaratheodoryDecomposition:
    """Convex combination of sample points realizing an envelope value.

    ``points`` has shape (k,) in 1-d or (k, 2) in 2-d, with k at most one
    more than the ambient dimension.
    """

    weights: np.ndarray
    points: np.ndarray
    point_values: np.ndarray
    target: float | np.ndarray
    envelope_value: float

    def __post_init__(self):
        w = _as_array(self.weights, "weights")
        pts = _as_array(self.points, "support points")
        vals = _as_array(self.point_values, "support values")
        target = np.asarray(self.target, dtype=float)
        if w.ndim != 1 or vals.shape != w.shape or pts.shape[0] != w.size:
            raise DegenerateInputError("inconsistent decomposition arrays")
        _check_splits(w[None], pts[None], vals[None], target[None], np.array([self.envelope_value]))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "point_values", vals)

    @property
    def trivial(self) -> bool:
        return self.weights.size == 1


def _check_splits(weights, points, values, targets, envelope_values) -> None:
    """``CaratheodoryDecomposition``'s checks on a batch: row i splits
    ``targets[i]`` over ``points[i]`` ((k,) or (k, d)) with ``weights[i]``,
    reproducing ``envelope_values[i]`` from ``values[i]``."""
    if np.any(weights < -WEIGHT_TOL):
        raise DegenerateInputError("weights must be nonnegative")
    if np.any(np.abs(weights.sum(axis=1) - 1.0) > WEIGHT_TOL):
        raise DegenerateInputError("weights must sum to one")
    targets = targets.reshape(targets.shape[0], -1)
    mean = np.einsum("nk,nk...->n...", weights, points).reshape(targets.shape)
    scale = 1.0 + np.abs(targets).max(axis=1, initial=0.0)
    if np.any(np.abs(mean - targets).max(axis=1, initial=0.0) > RECONSTRUCTION_TOL * scale):
        raise DegenerateInputError("support points do not average to the target")
    recon = np.einsum("nk,nk->n", weights, values)
    if np.any(np.abs(recon - envelope_values) > RECONSTRUCTION_TOL * (1.0 + np.abs(envelope_values))):
        raise DegenerateInputError("support values do not reproduce the envelope value")


def _hull_vertices(xs: list[float], ys: list[float]) -> list[int]:
    """Lower hull vertex indices of the points (xs[i], ys[i]), xs increasing,
    by Andrew's monotone chain on Python floats: they round as numpy's
    float64 scalars do, at a fraction of the cost per operation."""
    keep: list[int] = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            if (xs[b] - xs[a]) * (y - ys[a]) - (ys[b] - ys[a]) * (x - xs[a]) <= 0.0:
                keep.pop()
            else:
                break
        keep.append(i)
    return keep


def lower_convex_hull(samples: SampledFunction) -> ConvexEnvelope:
    """Lower boundary of the convex hull of the sampled graph.

    Collinear interior samples are dropped: they never change the vertex
    set needed for a decomposition, and keeping the vertex set minimal
    makes subdifferential intervals unambiguous.
    """
    xs = samples.grid.points
    ys = samples.values
    if xs.size < 2:
        raise DegenerateInputError("need at least 2 samples")
    idx = np.array(_hull_vertices(xs.tolist(), ys.tolist()), dtype=int)
    bp = xs[idx]
    hv = ys[idx]
    slopes = np.diff(hv) / np.diff(bp)
    return ConvexEnvelope(bp, hv, slopes)


def _locate(env: ConvexEnvelope, xi: float) -> tuple[int, bool]:
    """Index of the breakpoint at or right of ``xi``; flag marks exact hit."""
    bp = env.breakpoints
    lo, hi = env.domain
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    if xi < lo - tol or xi > hi + tol:
        raise OutOfDomainError(
            f"velocity {xi!r} outside envelope domain [{lo!r}, {hi!r}]"
        )
    xi = min(max(xi, lo), hi)
    i = int(bp.searchsorted(xi))
    if i < bp.size and bp[i] == xi:
        return i, True
    return i, False


def evaluate_envelope(env: ConvexEnvelope, xi: float) -> float:
    """Envelope value at ``xi``: exact at breakpoints, linear in between."""
    i, exact = _locate(env, xi)
    if exact:
        return float(env.hull_values[i])
    xl, xr = env.breakpoints[i - 1], env.breakpoints[i]
    lam = (xr - xi) / (xr - xl)
    return float(lam * env.hull_values[i - 1] + (1.0 - lam) * env.hull_values[i])


def _check_domain(env: ConvexEnvelope, xis: np.ndarray) -> None:
    lo, hi = env.domain
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    if np.any(xis < lo - tol) or np.any(xis > hi + tol):
        raise OutOfDomainError("velocity outside envelope domain")


def evaluate_envelope_many(env: ConvexEnvelope, xis: np.ndarray) -> np.ndarray:
    """Vectorized ``evaluate_envelope`` with the same breakpoint exactness."""
    bp, hv = env.breakpoints, env.hull_values
    xis = np.asarray(xis, dtype=float)
    _check_domain(env, xis)
    clipped = np.clip(xis, *env.domain)
    idx = np.searchsorted(bp, clipped)
    idx = np.clip(idx, 1, bp.size - 1)
    xl, xr = bp[idx - 1], bp[idx]
    lam = (xr - clipped) / (xr - xl)
    out = lam * hv[idx - 1] + (1.0 - lam) * hv[idx]
    exact = np.isin(clipped, bp)
    if np.any(exact):
        pos = np.searchsorted(bp, clipped[exact])
        out[exact] = hv[pos]
    return out


def subdifferential(env: ConvexEnvelope, xi: float) -> SubgradientInterval:
    """Slope interval of the envelope at ``xi``.

    At the domain endpoints the missing outward slope is clamped to the
    extreme edge slope, which keeps the interval finite and matches the
    generalized gradient of the PWL extension by its last edge.
    """
    i, exact = _locate(env, xi)
    slopes = env.edge_slopes
    if exact:
        left = slopes[i - 1] if i > 0 else slopes[0]
        right = slopes[i] if i < slopes.size else slopes[-1]
        return SubgradientInterval(float(left), float(right))
    s = float(slopes[i - 1])
    return SubgradientInterval(s, s)


def slope_bounds(env: ConvexEnvelope, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``subdifferential`` endpoints at in-domain points.

    Points within the domain tolerance outside the domain get the clamped
    extreme edge slope, as ``subdifferential`` gives them.
    """
    bp, slopes = env.breakpoints, env.edge_slopes
    pts = np.asarray(pts, dtype=float)
    idx = np.searchsorted(bp, pts)
    idx = np.clip(idx, 0, bp.size - 1)
    exact = bp[idx] == pts
    # the edge left of each point; at a breakpoint the edge right of it
    # closes the interval
    lo = slopes[np.clip(idx - 1, 0, slopes.size - 1)]
    hi = lo.copy()
    hi[exact] = slopes[np.clip(idx[exact], 0, slopes.size - 1)]
    return lo, hi


def _sample_index(grid: np.ndarray, breakpoint: float) -> int:
    j = int(np.searchsorted(grid, breakpoint))
    if j >= grid.size or grid[j] != breakpoint:
        raise DegenerateInputError("envelope breakpoints are not sample points")
    return j


def caratheodory_decompose(
    samples: SampledFunction, env: ConvexEnvelope, xi: float
) -> CaratheodoryDecomposition:
    """Split ``xi`` across the hull-edge vertices that realize f**(xi).

    A hull vertex decomposes trivially; an edge-interior point splits over
    the two vertices of its edge.  Support values are sampled values, not
    envelope values, so the combination certifies the envelope from above.
    """
    i, exact = _locate(env, xi)
    grid = samples.grid.points
    if exact:
        j = _sample_index(grid, env.breakpoints[i])
        value = float(samples.values[j])
        return CaratheodoryDecomposition(
            weights=np.array([1.0]),
            points=np.array([grid[j]]),
            point_values=np.array([value]),
            target=float(env.breakpoints[i]),
            envelope_value=value,
        )
    xl, xr = env.breakpoints[i - 1], env.breakpoints[i]
    jl = _sample_index(grid, xl)
    jr = _sample_index(grid, xr)
    vl, vr = float(samples.values[jl]), float(samples.values[jr])
    lam = (xr - xi) / (xr - xl)
    return CaratheodoryDecomposition(
        weights=np.array([lam, 1.0 - lam]),
        points=np.array([grid[jl], grid[jr]]),
        point_values=np.array([vl, vr]),
        target=float(xi),
        envelope_value=lam * vl + (1.0 - lam) * vr,
    )


# ---------------------------------------------------------------------------
# Two-dimensional velocity clouds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EpigraphCloud2D:
    """Finite set of (xi in R^2, value) samples; duplicate xi keep the minimum."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = _as_array(self.points, "cloud points")
        vals = _as_array(self.values, "cloud values")
        if pts.ndim != 2 or pts.shape[1] != 2 or vals.shape != (pts.shape[0],):
            raise DegenerateInputError("cloud needs (n, 2) points and (n,) values")
        order = np.lexsort((vals, pts[:, 1], pts[:, 0]))
        pts, vals = pts[order], vals[order]
        keep = np.ones(pts.shape[0], dtype=bool)
        same = np.all(pts[1:] == pts[:-1], axis=1)
        keep[1:][same] = False  # sorted by value, so the minimum survives
        object.__setattr__(self, "points", pts[keep])
        object.__setattr__(self, "values", vals[keep])


def decompose_2d(cloud: EpigraphCloud2D, xi) -> CaratheodoryDecomposition:
    """Split ``xi`` over at most 3 cloud points that realize f**(xi).

    At one target, f**(xi) is the LP min sum lam_i v_i subject to
    sum lam_i p_i = xi, sum lam_i = 1 and lam >= 0, with each equality
    written as a pair of <= rows.  The costs are shifted by min v so they
    are >= 0, as ``_lp_vertex`` needs; a vertex has at most 3 nonzero
    weights, one per equality.  An infeasible LP means the target lies
    outside the cloud's hull.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise DegenerateInputError("2-d target must have shape (2,)")
    pts, vals = cloud.points, cloud.values
    if pts.shape[0] < 3:
        raise DegenerateInputError("need at least 3 cloud points")
    if np.linalg.matrix_rank(pts - pts[0]) < 2:
        raise DegenerateInputError("cloud points are collinear")
    eq = np.vstack([np.ones(pts.shape[0]), pts.T])
    rhs = np.concatenate([[1.0], xi])
    try:
        lam = _lp_vertex(
            vals - vals.min(), np.vstack([eq, -eq]), np.concatenate([rhs, -rhs]), LP_PIVOTS_PER_ROW
        )
    except OutOfDomainError:
        raise OutOfDomainError(f"target {xi.tolist()} outside the projected hull") from None
    keep = lam > WEIGHT_TOL
    lam = lam[keep] / lam[keep].sum()
    return CaratheodoryDecomposition(
        weights=lam,
        points=pts[keep],
        point_values=vals[keep],
        target=xi,
        envelope_value=float(lam @ vals[keep]),
    )


# ---------------------------------------------------------------------------
# Small linear programs.
# ---------------------------------------------------------------------------


def _lp_vertex(
    cost: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, pivots_per_row: int
) -> np.ndarray:
    """A minimizer of cost . y subject to a_ub @ y <= b_ub and y >= 0, for
    cost >= 0.

    The dense simplex runs on the dual, min b_ub . u subject to
    -a_ub.T @ u <= cost and u >= 0, whose origin is feasible because
    cost >= 0.  The entering variable has the most negative reduced cost,
    except right after a degenerate pivot, where Bland's lowest-index rule
    picks it; ties for leaving go to the lowest basic index.  A cycle holds
    only degenerate pivots, so it would run under Bland's rule alone, which
    cannot cycle.  The vertex is then recomputed from the final basis: the
    rows whose multipliers are basic hold with equality, the columns whose
    dual slacks are basic are +0.0, and the other columns solve that square
    system (``_solve_in_column_order``).

    Raises ``OutOfDomainError`` when no y meets the rows (the dual is
    unbounded), and ``CertificateError`` after ``pivots_per_row`` pivots per
    row.
    """
    m, n = a_ub.shape
    tab = np.hstack([-a_ub.T, np.eye(n), cost[:, None]])
    reduced = np.concatenate([b_ub, np.zeros(n)])
    basis = list(range(m, m + n))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(b_ub))), float(np.max(np.abs(a_ub))))
    cap = pivots_per_row * m
    degenerate = False
    for pivot in range(cap + 1):
        entering = np.flatnonzero(reduced < -tol)
        if entering.size == 0:
            break
        if pivot == cap:
            raise CertificateError(f"the simplex took more than {cap} pivots")
        j = int(entering[0]) if degenerate else int(np.argmin(reduced))
        rising = np.flatnonzero(tab[:, j] > tol)
        if rising.size == 0:
            raise OutOfDomainError("the LP is infeasible")
        ratios = tab[rising, -1] / tab[rising, j]
        ties = rising[ratios <= ratios.min() + tol]
        degenerate = ratios.min() <= tol
        i = min(ties, key=lambda r: basis[r])
        tab[i] /= tab[i, j]
        for r in range(n):
            if r != i:
                tab[r] -= tab[r, j] * tab[i]
        reduced -= reduced[j] * tab[i, :-1]
        basis[i] = j

    rows = sorted(k for k in basis if k < m)
    cols = [j for j in range(n) if m + j not in basis]
    y = np.zeros(n)
    y[cols] = _solve_in_column_order(a_ub[np.ix_(rows, cols)], b_ub[rows])
    return np.maximum(y, 0.0) + 0.0  # no -0.0


def _solve_in_column_order(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a square system by Gaussian elimination of its columns in
    order, each on the first remaining row of largest magnitude, then back
    substitution.  A column of units put first is eliminated by exact
    subtractions, so rounding enters only in the columns after it."""
    mat, rhs = mat.copy(), rhs.copy()
    size = rhs.size
    pivots, free = [], list(range(size))
    for c in range(size):
        p = max(free, key=lambda r: abs(mat[r, c]))
        free.remove(p)
        pivots.append(p)
        for r in free:
            factor = mat[r, c] / mat[p, c]
            mat[r, c:] -= factor * mat[p, c:]
            rhs[r] -= factor * rhs[p]
    x = np.zeros(size)
    for c in reversed(range(size)):
        p = pivots[c]
        rest = rhs[p]
        for k in range(c + 1, size):
            rest -= mat[p, k] * x[k]
        x[c] = rest / mat[p, c]
    return x
