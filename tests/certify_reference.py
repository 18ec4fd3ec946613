"""The certify stage's per-candidate, per-radius and per-time loops, kept as
the oracles of ``classify._fit_bound_line``, ``_pooled_radial_profile`` and
``_midpoint_concave``: one candidate slope, one radius block and one probe
time at a time, with chords and midpoints formed as (a + b) / 2 and g read
by a ``g.value`` call per probe time."""

import numpy as np


def fit_bound_line_reference(r, vmin, vmax, candidate_slopes, tie_key):
    best = None
    for s in candidate_slopes:
        b = float(np.min(vmin - s * r))
        slack = float(np.max(vmax - s * r - b))
        key = (slack,) + tie_key(s, b)
        if best is None or key < best[0]:
            best = (key, s, b, slack)
    return best[1], best[2], best[3]


def pooled_radial_profile_reference(radii, values):
    r = np.abs(np.asarray(radii, dtype=float))
    order = np.argsort(r, kind="stable")
    r_sorted = r[order]
    v_sorted = values[:, order]
    uniq, start = np.unique(r_sorted, return_index=True)
    vmins, vmaxs = [], []
    edges = list(start) + [r_sorted.size]
    for i in range(uniq.size):
        block = v_sorted[:, edges[i] : edges[i + 1]]
        vmins.append(float(block.min()))
        vmaxs.append(float(block.max()))
    return uniq, np.array(vmins), np.array(vmaxs)


def midpoint_concave_reference(problem, probe):
    xi, xj = np.meshgrid(probe.states, probe.states)
    concave = []
    for t, vals in zip(probe.times, probe.g_values):
        vi, vj = np.meshgrid(vals, vals)
        mids = problem.g.value(t, (xi + xj) / 2.0)
        concave.append(bool(np.all(mids >= (vi + vj) / 2.0 - 1e-9)))
    return np.array(concave)
