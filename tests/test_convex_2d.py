"""Two-dimensional lower hulls, through the splittings that realize them.

The oracle enumerates all support triples (and degenerate pairs and
singletons) of the cloud and minimizes the combined value subject to the
mean constraint.
"""

import itertools

import numpy as np
import pytest

from varelax.convex import EpigraphCloud2D, decompose_2d
from varelax.errors import DegenerateInputError, OutOfDomainError


def grid_cloud(side, fn):
    pts = np.array([[x, y] for x in side for y in side], dtype=float)
    return EpigraphCloud2D(pts, fn(pts))


def triple_minimum_oracle(cloud, target):
    pts, vals = cloud.points, cloud.values
    n = pts.shape[0]
    best = np.inf
    for i in range(n):
        if np.all(pts[i] == target):
            best = min(best, vals[i])
    for i, j in itertools.combinations(range(n), 2):
        d = pts[j] - pts[i]
        nrm2 = float(d @ d)
        if nrm2 == 0.0:
            continue
        s = float((target - pts[i]) @ d) / nrm2
        if -1e-12 <= s <= 1 + 1e-12 and np.allclose(pts[i] + s * d, target, atol=1e-12):
            best = min(best, (1 - s) * vals[i] + s * vals[j])
    for i, j, k in itertools.combinations(range(n), 3):
        mat = np.column_stack([pts[j] - pts[i], pts[k] - pts[i]])
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        if abs(det) < 1e-12:
            continue
        lam12 = np.linalg.solve(mat, target - pts[i])
        lam = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
        if np.all(lam >= -1e-12):
            lam = np.clip(lam, 0, None)
            lam /= lam.sum()
            best = min(best, float(lam @ vals[[i, j, k]]))
    return best


class TestLowerHull2D:
    def test_collinear_cloud_rejected(self):
        xs = np.linspace(0, 1, 6)
        cloud = EpigraphCloud2D(np.column_stack([xs, 2 * xs]), xs**2)
        with pytest.raises(DegenerateInputError):
            decompose_2d(cloud, np.array([0.5, 1.0]))

    def test_fewer_than_three_points_rejected(self):
        cloud = EpigraphCloud2D(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
        with pytest.raises(DegenerateInputError):
            decompose_2d(cloud, np.array([0.5, 0.5]))

    def test_affine_cloud_gets_flat_facets(self):
        cloud = grid_cloud(np.linspace(-1, 1, 4), lambda p: 2 * p[:, 0] - p[:, 1] + 1)
        dec = decompose_2d(cloud, np.array([0.1, -0.2]))
        expected = 2 * 0.1 - (-0.2) + 1
        assert dec.envelope_values[0] == pytest.approx(expected, abs=1e-12)

    def test_duplicate_points_keep_minimum(self):
        pts = np.array([[0, 0], [1, 0], [0, 1], [0, 0]], dtype=float)
        cloud = EpigraphCloud2D(pts, np.array([5.0, 1.0, 1.0, 2.0]))
        assert cloud.points.shape[0] == 3
        at_origin = np.all(cloud.points == 0, axis=1)
        assert cloud.values[at_origin].tolist() == [2.0]


class TestDecompose2D:
    def test_sample_vertex_is_trivial(self):
        cloud = grid_cloud(np.linspace(-1, 1, 9), lambda p: (p**2).sum(axis=1))
        dec = decompose_2d(cloud, np.array([0.0, 0.0]))
        assert dec.support[0] == 1
        assert dec.envelope_values[0] == 0.0

    def test_ring_well_flat_at_origin(self):
        # zeros on the unit-circle axis points force a zero envelope inside
        cloud = grid_cloud(
            np.array([-1, -0.5, 0, 0.5, 1]), lambda p: ((p**2).sum(axis=1) - 1) ** 2
        )
        dec = decompose_2d(cloud, np.array([0.0, 0.0]))
        assert dec.weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(dec.point_values, 0.0, atol=1e-12)
        assert dec.envelope_values[0] == pytest.approx(0.0, abs=1e-12)

    def test_outside_hull_rejected(self):
        cloud = grid_cloud(np.linspace(-1, 1, 4), lambda p: (p**2).sum(axis=1))
        with pytest.raises(OutOfDomainError):
            decompose_2d(cloud, np.array([2.0, 0.0]))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_triple_oracle(self, seed):
        rng = np.random.default_rng(seed)
        side = np.sort(rng.uniform(-1.5, 1.5, size=6))
        cloud = grid_cloud(side, lambda p: rng.uniform(0, 2, size=p.shape[0]))
        for _ in range(4):
            lo = cloud.points.min(axis=0)
            hi = cloud.points.max(axis=0)
            target = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=2)
            dec = decompose_2d(cloud, target)
            assert dec.envelope_values[0] == pytest.approx(
                triple_minimum_oracle(cloud, target), abs=1e-9
            )

    def test_oracle_seeds_split_over_at_most_three_points(self):
        # the clouds and targets of acceptance criterion 1
        for seed in range(10):
            sub = np.random.default_rng(seed)
            side = np.sort(sub.uniform(-1.5, 1.5, size=7))
            cloud = grid_cloud(side, lambda p: sub.uniform(0.0, 2.0, size=p.shape[0]))
            lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
            target = lo + (hi - lo) * sub.uniform(0.3, 0.7, size=2)
            assert decompose_2d(cloud, target).weights.size <= 3

    def test_invariants_hold(self):
        cloud = grid_cloud(
            np.array([-1, -0.5, 0, 0.5, 1]), lambda p: ((p**2).sum(axis=1) - 1) ** 2
        )
        target = np.array([0.3, -0.2])
        dec = decompose_2d(cloud, target)
        assert dec.weights.size <= 3
        assert abs(dec.weights.sum() - 1.0) <= 1e-12
        mean = dec.weights[0] @ dec.points[0]
        np.testing.assert_allclose(mean, target, atol=1e-9 * (1 + np.abs(target).max()))
