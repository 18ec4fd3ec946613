"""Discrete convex analysis over sampled functions.

The central representation is the piecewise-linear lower convex hull of a
sampled graph.  Because everything is finite, each operation (envelope
evaluation, subdifferentials, conjugates, convex-combination splittings)
is exact on the sample data and can be cross-checked by enumeration.

One-dimensional velocity grids are the workhorse; a two-dimensional
variant backed by scipy's 3-d hull covers planar velocity clouds.  scipy
is imported there on first use, so the 1-d path never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, OutOfDomainError

# Absolute tolerance for simplex-weight sums; relative tolerance for
# barycentric reconstruction.  Both are pinned by double-precision hull
# arithmetic, not by problem data.
WEIGHT_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-9


def _as_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
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
        if not np.all(np.diff(bp) > 0):
            raise DegenerateInputError("breakpoints must be strictly increasing")
        if np.any(np.diff(es) < -1e-12 * np.maximum(1.0, np.abs(es[:-1]))):
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
        if np.any(w < -WEIGHT_TOL):
            raise DegenerateInputError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise DegenerateInputError("weights must sum to one")
        mean = np.tensordot(w, pts, axes=(0, 0))
        scale = 1.0 + float(np.max(np.abs(target))) if target.size else 1.0
        if np.max(np.abs(mean - target)) > RECONSTRUCTION_TOL * scale:
            raise DegenerateInputError("support points do not average to the target")
        recon = float(w @ vals)
        if abs(recon - self.envelope_value) > RECONSTRUCTION_TOL * (1.0 + abs(self.envelope_value)):
            raise DegenerateInputError("support values do not reproduce the envelope value")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "point_values", vals)

    @property
    def trivial(self) -> bool:
        return self.weights.size == 1


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
    keep: list[int] = []
    for i in range(xs.size):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            cross = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a])
            if cross <= 0.0:
                keep.pop()
            else:
                break
        keep.append(i)
    idx = np.array(keep, dtype=int)
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


def subgradient_midpoints(env: ConvexEnvelope, xis: np.ndarray) -> np.ndarray:
    """Vectorized ``subdifferential(env, xi).midpoint`` with the same checks."""
    xis = np.asarray(xis, dtype=float)
    _check_domain(env, xis)
    lo, hi = slope_bounds(env, xis)
    if np.any(lo > hi):
        raise DegenerateInputError("subgradient interval must satisfy lo <= hi")
    return 0.5 * (lo + hi)


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


def legendre_conjugate(samples: SampledFunction, p: float) -> float:
    """sup over the grid of ``p*xi - f(xi)``; conjugation kills non-convexity."""
    return float(np.max(p * samples.grid.points - samples.values))


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


@dataclass(frozen=True, eq=False)
class LowerHull2D:
    """Triangulated lower hull of a 2-d epigraph cloud."""

    cloud: EpigraphCloud2D
    facets: np.ndarray  # (m, 3) vertex indices into the cloud

    def facet_vertices(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        idx = self.facets[k]
        return self.cloud.points[idx], self.cloud.values[idx]


def lower_hull_2d(cloud: EpigraphCloud2D) -> LowerHull2D:
    """Downward-facing facets of the 3-d hull of (xi, value) triples.

    A value-affine cloud has a flat 3-d hull that qhull rejects; in that
    case every triangle of the projected triangulation is a valid facet.
    """
    from scipy.spatial import ConvexHull, QhullError

    pts = cloud.points
    vals = cloud.values
    if pts.shape[0] < 3:
        raise DegenerateInputError("need at least 3 cloud points")
    lifted = np.column_stack([pts, vals])
    try:
        hull = ConvexHull(lifted, qhull_options="Qt")
    except QhullError:
        facets = _flat_cloud_facets(pts, vals)
        return LowerHull2D(cloud, facets)
    downward = hull.equations[:, 2] < -1e-12
    facets = np.sort(hull.simplices[downward], axis=1)
    if facets.size == 0:
        raise DegenerateInputError("cloud has no downward-facing facets")
    order = np.lexsort((facets[:, 2], facets[:, 1], facets[:, 0]))
    return LowerHull2D(cloud, facets[order])


def _flat_cloud_facets(pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    from scipy.spatial import Delaunay, QhullError

    coeffs, res, rank, _ = np.linalg.lstsq(
        np.column_stack([np.ones(pts.shape[0]), pts]), vals, rcond=None
    )
    plane = np.column_stack([np.ones(pts.shape[0]), pts]) @ coeffs
    if np.max(np.abs(plane - vals)) > 1e-9 * (1.0 + np.max(np.abs(vals))):
        raise DegenerateInputError("cloud is degenerate but not value-affine")
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise DegenerateInputError("cloud points are collinear") from exc
    facets = np.sort(tri.simplices, axis=1)
    order = np.lexsort((facets[:, 2], facets[:, 1], facets[:, 0]))
    return facets[order]


def decompose_2d(cloud: EpigraphCloud2D, xi) -> CaratheodoryDecomposition:
    """Barycentric splitting of ``xi`` inside the containing lower facet."""
    hull = lower_hull_2d(cloud)
    return decompose_on_hull_2d(hull, xi)


def decompose_on_hull_2d(hull: LowerHull2D, xi) -> CaratheodoryDecomposition:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise DegenerateInputError("2-d target must have shape (2,)")
    scale = 1.0 + float(np.max(np.abs(hull.cloud.points)))
    for k in range(hull.facets.shape[0]):
        pts, vals = hull.facet_vertices(k)
        mat = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        if abs(det) <= 1e-14 * scale * scale:
            continue
        lam12 = np.linalg.solve(mat, xi - pts[0])
        lam = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
        if np.all(lam >= -1e-9):
            lam = np.clip(lam, 0.0, None)
            lam = lam / lam.sum()
            keep = lam > WEIGHT_TOL
            lam = lam[keep] / lam[keep].sum()
            return CaratheodoryDecomposition(
                weights=lam,
                points=pts[keep],
                point_values=vals[keep],
                target=xi,
                envelope_value=float(lam @ vals[keep]),
            )
    raise OutOfDomainError(f"target {xi.tolist()} outside the projected hull")
