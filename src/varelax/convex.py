"""Discrete convex analysis over sampled functions.

The central representation is the piecewise-linear lower convex hull of a
sampled graph.  Because everything is finite, each operation (envelope
evaluation, subgradients, convex-combination splittings) is exact on the
sample data and can be cross-checked by enumeration.

One-dimensional velocity grids are the workhorse: one ``EnvelopeTable``
holds the hulls of many sampled rows over one grid, built by Andrew's
monotone chain, and places (row, velocity) pairs on them by array
gathers; a ``Placement`` answers f**, subgradient and splitting queries
from the located arrays.  A planar velocity cloud is split at one target
by a small linear program, solved by the dense simplex that the drift fit
of the certify stage also uses.  Either way a splitting is a
``CaratheodoryDecomposition``, a batch of rows checked as a whole when it
is built."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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
# Machine epsilon of a double, 2u for the unit roundoff u.
EPS = 2.0**-52


def _as_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size and not np.isfinite(arr).all():
        raise DegenerateInputError(f"{name} must contain finite values only")
    return arr


@dataclass(frozen=True, eq=False)
class CaratheodoryDecomposition:
    """Convex combinations of sample points realizing envelope values, one
    row per target: row i splits ``targets[i]`` over the first
    ``support[i]`` of ``points[i]`` with ``weights[i]``, reproducing
    ``envelope_values[i]`` from ``point_values[i]``; any later column has
    weight 0.  ``points`` has shape (n, k) in 1-d or (n, k, 2) in 2-d,
    with k at most one more than the ambient dimension.
    """

    weights: np.ndarray
    points: np.ndarray
    point_values: np.ndarray
    support: np.ndarray
    targets: np.ndarray
    envelope_values: np.ndarray

    def __post_init__(self):
        w = _as_array(self.weights, "weights")
        pts = _as_array(self.points, "support points")
        vals = _as_array(self.point_values, "support values")
        targets = np.asarray(self.targets, dtype=float)
        envelope = np.asarray(self.envelope_values, dtype=float)
        rows = w.shape[:1]
        shapes = vals.shape, pts.shape[:2], targets.shape, envelope.shape, np.shape(self.support)
        if w.ndim != 2 or shapes != (w.shape, w.shape, rows + pts.shape[2:], rows, rows):
            raise DegenerateInputError("inconsistent decomposition arrays")
        if np.any(w < -WEIGHT_TOL):
            raise DegenerateInputError("weights must be nonnegative")
        if np.any(np.abs(w.sum(axis=1) - 1.0) > WEIGHT_TOL):
            raise DegenerateInputError("weights must sum to one")
        flat = targets.reshape(len(w), -1)
        mean = np.einsum("nk,nk...->n...", w, pts).reshape(flat.shape)
        scale = 1.0 + np.abs(flat).max(axis=1, initial=0.0)
        if np.any(np.abs(mean - flat).max(axis=1, initial=0.0) > RECONSTRUCTION_TOL * scale):
            raise DegenerateInputError("support points do not average to the target")
        recon = np.einsum("nk,nk->n", w, vals)
        if np.any(np.abs(recon - envelope) > RECONSTRUCTION_TOL * (1.0 + np.abs(envelope))):
            raise DegenerateInputError("support values do not reproduce the envelope value")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "point_values", vals)
        object.__setattr__(self, "support", np.asarray(self.support))
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "envelope_values", envelope)

    @property
    def split_count(self) -> int:
        """Rows split over more than one point."""
        return int(np.count_nonzero(self.support > 1))

    @property
    def support_radius(self) -> float:
        """Radius, in the max norm, of the velocity ball that holds every
        support point."""
        return float(np.max(np.abs(self.points)))

    def report(self) -> dict:
        """The splittings as the CLI reports them, one JSON row per target
        with its arrays cut to its support."""
        rows = zip(
            *(a.tolist() for a in (self.weights, self.points, self.point_values)),
            self.support.tolist(), self.targets.tolist(), self.envelope_values.tolist(),
        )
        note = (
            "discrete time grid: the selection behind the splittings is "
            "piecewise constant, one decomposition per interval"
        )
        return {
            "decompositions": [
                {"weights": w[:k], "points": p[:k], "point_values": v[:k],
                 "target": t, "envelope_value": e}
                for w, p, v, k, t, e in rows
            ],
            "selection_note": note,
            "support_radius": self.support_radius,
        }


def _hull_vertices(xs: list[float], ys: list[float]) -> list[int]:
    """Lower hull vertex indices of the points (xs[i], ys[i]), at least two,
    xs increasing, by Andrew's monotone chain on Python floats: they round
    as numpy's float64 scalars do, at a fraction of the cost per operation.
    A middle point is dropped when the cross product is <= 0.0, so a NaN
    one keeps it."""
    keep = [0, 1]
    for i in range(2, len(xs)):
        x, y = xs[i], ys[i]
        # index 0 is only ever first, so a nonzero top has one below it
        while b := keep[-1]:
            a = keep[-2]
            if (xs[b] - xs[a]) * (y - ys[a]) - (ys[b] - ys[a]) * (x - xs[a]) <= 0.0:
                keep.pop()
            else:
                break
        keep.append(i)
    return keep


@dataclass(frozen=True, eq=False)
class EnvelopeTable:
    """A function sampled on a velocity grid, one row per time key, with each
    row's lower convex hull: its vertices are the grid indices
    ``vertices[r, :counts[r]]``, padded with the last, ``rank[r, p]`` counts
    those below grid index p, and ``slopes[r, :counts[r] - 1]`` are its edge
    slopes; collinear interior samples are not vertices.  The queries take
    (row, velocity) pairs, broadcast together; a velocity within 1e-12 of
    the domain scale outside the grid is clamped to the domain end, one
    farther out raises ``OutOfDomainError``.
    """

    grid: np.ndarray
    values: np.ndarray
    vertices: np.ndarray
    counts: np.ndarray
    rank: np.ndarray
    slopes: np.ndarray

    @classmethod
    def of(cls, grid: np.ndarray, values: np.ndarray) -> EnvelopeTable:
        """The hulls of the rows of ``values`` over ``grid``, finite, 1-d and
        strictly increasing with at least two points.  The samples and the
        edge slopes must be finite, and the slopes may fall only by rounding:
        1e-12 of their size, plus what the hull kernel's rounding allows.

        The kernel keeps vertex b between a and c (edge widths w1, w2, slopes
        s1, s2) when its rounded cross product (xb - xa)(yc - ya) -
        (yb - ya)(xc - xa) is positive; exactly, it is w1 w2 (s2 - s1).  Each
        product rounds within 3u of its size and the difference within u
        more, and |yc - ya| <= |s1| w1 + |s2| w2, so s2 - s1 > -4u (|s1| (1 +
        2 w1/w2) + |s2|); rounding the slopes adds 3u (|s1| + |s2|), and the
        check allows 8u on that sum.  So next to a much narrower edge, a
        sample's rounding, about u |f|, may move the slope over width w by
        about u |f| / w."""
        grid = _as_array(grid, "grid points")
        if grid.ndim != 1 or grid.size < 2:
            raise DegenerateInputError("grid needs at least 2 points")
        if not np.all(np.diff(grid) > 0):
            raise DegenerateInputError("grid points must be strictly increasing")
        if not np.isfinite(values).all():
            raise DegenerateInputError("sample values must contain finite values only")
        if values.shape[1:] != grid.shape:
            raise DegenerateInputError("values length must match grid length")
        xs = grid.tolist()
        hulls = [_hull_vertices(xs, row) for row in values.tolist()]
        counts = np.fromiter(map(len, hulls), np.intp, len(hulls))
        flat = np.fromiter(chain.from_iterable(hulls), np.intp, int(counts.sum()))
        # row r's vertices sit at starts[r] .. of flat; pad with the last
        starts = np.cumsum(counts) - counts
        vertices = flat[starts[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)]
        rows = np.arange(len(hulls))[:, None]
        is_vertex = np.zeros(values.shape, dtype=np.intp)
        is_vertex[rows, vertices] = 1
        rank = np.zeros((len(hulls), grid.size + 1), dtype=np.intp)
        np.cumsum(is_vertex, axis=1, out=rank[:, 1:])
        rises, widths = np.diff(values[rows, vertices]), np.diff(grid[vertices])
        edges = np.arange(rises.shape[1]) < counts[:, None] - 1
        slopes = np.divide(rises, widths, out=np.zeros_like(rises), where=edges)
        if not np.isfinite(slopes).all():
            raise DegenerateInputError("edge slopes must contain finite values only")
        s1, s2, pairs = slopes[:, :-1], slopes[:, 1:], edges[:, 1:]
        ratio = np.divide(widths[:, :-1], widths[:, 1:], out=np.zeros_like(s1), where=pairs)
        with np.errstate(over="ignore"):  # an inf allowance admits any fall
            rounding = 4.0 * EPS * (np.abs(s1) * (1.0 + 2.0 * ratio) + np.abs(s2))
        drop = s2 - s1 < -(1e-12 * np.maximum(1.0, np.abs(s1)) + rounding)
        if (drop & pairs).any():
            raise DegenerateInputError("edge slopes must be nondecreasing")
        return cls(grid, values, vertices, counts, rank, slopes)

    def place(self, rows, xis) -> Placement:
        """The velocities ``xis`` located on rows ``rows``: the ``Placement``
        that ``at``, ``subgradients``, ``midpoints`` and ``split`` read.  A
        velocity farther than the domain tolerance outside the grid raises
        ``OutOfDomainError``."""
        rows, xis = np.asarray(rows), np.asarray(xis, dtype=float)
        lo, hi = float(self.grid[0]), float(self.grid[-1])
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        outside = np.flatnonzero((xis < lo - tol) | (xis > hi + tol))
        if outside.size:
            xi = float(xis.flat[outside[0]])
            raise OutOfDomainError(f"velocity {xi!r} outside envelope domain [{lo!r}, {hi!r}]")
        clipped = np.clip(xis, lo, hi)
        p = self.grid.searchsorted(clipped)
        below = _take(self.rank, rows, p)
        exact = (self.grid.take(p) == clipped) & (_take(self.rank, rows, p + 1) > below)
        idx = np.maximum(below, 1)  # the last vertex is at or right of p
        jl, jr = _take(self.vertices, rows, idx - 1), _take(self.vertices, rows, idx)
        right = self.grid.take(jr)
        lam = (right - clipped) / (right - self.grid.take(jl))
        return Placement(self, rows, clipped, p, exact, jl, jr, lam)

    def at(self, rows, xis) -> np.ndarray:
        """``Placement.values`` of ``xis`` on rows ``rows``."""
        return self.place(rows, xis).values

    def subgradients(self, rows, xis) -> tuple[np.ndarray, np.ndarray]:
        """``Placement.subgradients`` of ``xis`` on rows ``rows``."""
        return self.place(rows, xis).subgradients

    def midpoints(self, rows, xis) -> np.ndarray:
        """``Placement.midpoints`` of ``xis`` on rows ``rows``."""
        return self.place(rows, xis).midpoints

    def split(self, rows: np.ndarray, xis) -> CaratheodoryDecomposition:
        """``Placement.split`` of ``xis`` on rows ``rows``."""
        return self.place(rows, xis).split


def _take(table: np.ndarray, rows, cols) -> np.ndarray:
    """``table[rows, cols]`` for in-range indices, as one gather from the
    flat table: cheaper than numpy's two-axis indexing on a path's or a
    grid's worth of points, dearer on a handful."""
    return table.ravel().take(rows * table.shape[1] + cols)


def _read_only(a) -> np.ndarray:
    """A read-only view of ``a``: the caller's own array stays writeable."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Placement:
    """Velocities located on rows of one ``EnvelopeTable``: each velocity
    after the domain check, ``clipped`` to the domain; its grid index
    ``p`` and whether it is a hull vertex there, ``exact``; and the edge
    (``jl``, ``jr``) to interpolate on, with the weight ``lam`` of jl.
    f**, the subgradient ends, their midpoints and the splitting are read
    from these arrays once, on first use.  Every array is read-only, since
    one placement may serve several readers.
    """

    table: EnvelopeTable
    rows: np.ndarray
    clipped: np.ndarray
    p: np.ndarray
    exact: np.ndarray
    jl: np.ndarray
    jr: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for name in ("rows", "clipped", "p", "exact", "jl", "jr", "lam"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @cached_property
    def values(self) -> np.ndarray:
        """f** of each row at its velocity: exact at a vertex, linear in between."""
        values, rows = self.table.values, self.rows
        left, right = _take(values, rows, self.jl), _take(values, rows, self.jr)
        out = self.lam * left + (1.0 - self.lam) * right
        return _read_only(np.where(self.exact, _take(values, rows, self.p), out))

    @cached_property
    def subgradients(self) -> tuple[np.ndarray, np.ndarray]:
        """Ends (lo, hi) of each row's subgradient interval at its velocity:
        both the slope of the edge at an interior point, the slopes of the
        two edges at a vertex; the missing outward slope at a domain end is
        the extreme edge's."""
        table, rows = self.table, self.rows
        idx = _take(table.rank, rows, self.p)  # the vertex at or right of p
        lo = _take(table.slopes, rows, np.maximum(idx - 1, 0))
        hi = _take(table.slopes, rows, np.minimum(idx, table.counts.take(rows) - 2))
        return _read_only(lo), _read_only(np.where(self.exact, hi, lo))

    @cached_property
    def midpoints(self) -> np.ndarray:
        """Midpoint of each row's subgradient interval; its ends are two
        adjacent edge slopes, so they cross at most by the rounding that
        ``EnvelopeTable.of`` allows the slopes."""
        lo, hi = self.subgradients
        return _read_only(0.5 * (lo + hi))

    @cached_property
    def split(self) -> CaratheodoryDecomposition:
        """Each velocity's splitting on its row, checked once, with weights,
        points and point values of shape (n, 2), for one row per velocity.
        A hull vertex splits over itself alone, its second column a copy
        with weight 0; any other point over its edge's vertices."""
        rows, p, exact, lam = self.rows, self.p, self.exact, self.lam
        at_vertex = exact[:, None]
        weights = np.where(at_vertex, [1.0, 0.0], np.stack([lam, 1.0 - lam], axis=1))
        index = np.where(at_vertex, p[:, None], np.stack([self.jl, self.jr], axis=1))
        points = self.table.grid.take(index)
        values = _take(self.table.values, rows[:, None], index)
        # lam * vl + (1 - lam) * vr, and exactly the vertex value at a vertex
        envelope = weights[:, 0] * values[:, 0] + weights[:, 1] * values[:, 1]
        targets = np.where(exact, points[:, 0], self.clipped)
        arrays = weights, points, values, np.where(exact, 1, 2), targets, envelope
        return CaratheodoryDecomposition(*map(_read_only, arrays))


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
    """Split ``xi`` over at most 3 cloud points that realize f**(xi), as a
    batch of one row.

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
        weights=lam[None],
        points=pts[keep][None],
        point_values=vals[keep][None],
        support=np.array([lam.size]),
        targets=xi[None],
        envelope_values=np.array([lam @ vals[keep]]),
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
    cannot cycle.  A row leaves only on a pivot entry 1e3 times the
    optimality tolerance or more: pivoting on an entry of rounding size
    scales the tableau by its inverse and can end the run at a vertex that
    is not optimal.  The vertex is then recomputed from the final basis: the
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
        rising = np.flatnonzero(tab[:, j] > 1e3 * tol)
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
