"""Per-envelope reference for ``EnvelopeTable``: the lower hull of one
sampled row, and f**, the subgradient ends and the splitting at one
velocity on it, by numpy float64 scalar arithmetic and without checks.

``xs`` is the increasing grid, ``ys`` the row and ``keep`` its hull.
"""

import numpy as np


def hull(xs, ys):
    """Lower hull vertex indices by the monotone chain, one numpy operation
    per float operation; collinear interior samples are dropped.  A point
    is popped only when the cross product is <= 0.0, so a NaN one (rows
    near the float range overflow to inf - inf) keeps it."""
    keep = []
    for i in range(xs.size):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            with np.errstate(over="ignore", invalid="ignore"):
                cross = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a])
            if cross <= 0.0:
                keep.pop()
            else:
                break
        keep.append(i)
    return keep


def locate(xs, keep, xi):
    """``xi`` clamped to the domain, the position in ``keep`` of the first
    vertex at or right of it, and whether that vertex is at ``xi``."""
    xi = min(max(xi, xs[0]), xs[-1])
    i = int(np.searchsorted(xs[keep], xi))
    return xi, i, xs[keep[i]] == xi


def split(xs, ys, keep, xi):
    """Weights, points, point values, target and f**(xi): one vertex, or the
    two vertices of the edge around ``xi``."""
    xi, i, exact = locate(xs, keep, xi)
    if exact:
        j = keep[i]
        return [1.0], [xs[j]], [ys[j]], xs[j], ys[j]
    jl, jr = keep[i - 1], keep[i]
    lam = (xs[jr] - xi) / (xs[jr] - xs[jl])
    envelope = lam * ys[jl] + (1.0 - lam) * ys[jr]
    return [lam, 1.0 - lam], [xs[jl], xs[jr]], [ys[jl], ys[jr]], xi, envelope


def value(xs, ys, keep, xi):
    return split(xs, ys, keep, xi)[-1]


def subgradients(xs, ys, keep, xi):
    """(lo, hi); at a domain end the missing outward slope is the extreme
    edge's."""
    _, i, exact = locate(xs, keep, xi)
    slopes = np.diff(ys[keep]) / np.diff(xs[keep])
    if not exact:
        return slopes[i - 1], slopes[i - 1]
    return slopes[max(i - 1, 0)], slopes[min(i, slopes.size - 1)]
