"""Envelope, subdifferential, conjugate, and splitting checks in 1-d.

Expected values come from three independent sources: closed-form
envelopes (parabola, double well, affine), chord-slope arithmetic done by
hand, and a brute-force enumeration oracle over all support pairs.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varelax.convex import (
    ConvexEnvelope,
    _hull_vertices,
    Grid1D,
    SampledFunction,
    caratheodory_decompose,
    evaluate_envelope,
    evaluate_envelope_many,
    lower_convex_hull,
    subdifferential,
)
from varelax.discretize import EnvelopeTable
from varelax.errors import DegenerateInputError, OutOfDomainError


def legendre_conjugate(samples, p):
    """sup over the grid of ``p*xi - f(xi)``; conjugation kills non-convexity."""
    return float(np.max(p * samples.grid.points - samples.values))


def sampled(points, fn):
    grid = Grid1D(np.asarray(points, dtype=float))
    return SampledFunction(grid, fn(grid.points))


def pair_minimum_oracle(samples, target):
    """Exhaustive minimum over all support pairs and admissible weights."""
    xs = samples.grid.points
    ys = samples.values
    best = np.inf
    for i in range(xs.size):
        if xs[i] == target:
            best = min(best, ys[i])
        for j in range(i + 1, xs.size):
            if xs[i] <= target <= xs[j] and xs[j] > xs[i]:
                lam = (xs[j] - target) / (xs[j] - xs[i])
                best = min(best, lam * ys[i] + (1.0 - lam) * ys[j])
    return best


PARABOLA = sampled([-2, -1, 0, 1, 2], lambda x: x * x)
DOUBLE_WELL = sampled(
    [-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2], lambda x: (x * x - 1.0) ** 2
)


class TestLowerConvexHull:
    def test_convex_input_is_its_own_envelope(self):
        env = lower_convex_hull(PARABOLA)
        np.testing.assert_array_equal(env.breakpoints, PARABOLA.grid.points)
        np.testing.assert_array_equal(env.hull_values, PARABOLA.values)

    def test_double_well_flat_edge(self):
        env = lower_convex_hull(DOUBLE_WELL)
        assert -1.0 in env.breakpoints and 1.0 in env.breakpoints
        k = int(np.searchsorted(env.breakpoints, -1.0))
        assert env.breakpoints[k + 1] == 1.0
        assert env.edge_slopes[k] == 0.0
        for xi in (-1.0, -0.25, 0.0, 0.75, 1.0):
            assert evaluate_envelope(env, xi) == 0.0

    def test_affine_input(self):
        samples = sampled([0, 1], lambda x: -x)
        env = lower_convex_hull(samples)
        np.testing.assert_array_equal(env.hull_values, [0.0, -1.0])
        assert env.edge_slopes.tolist() == [-1.0]

    def test_collinear_interior_points_dropped(self):
        samples = sampled([0, 1, 2, 3], lambda x: 2.0 * x + 1.0)
        env = lower_convex_hull(samples)
        np.testing.assert_array_equal(env.breakpoints, [0.0, 3.0])

    def test_rejects_single_sample(self):
        with pytest.raises(DegenerateInputError):
            Grid1D(np.array([1.0]))

    def test_envelope_dominance_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(2, 40)
            xs = np.sort(rng.uniform(-3, 3, size=n))
            xs = np.unique(xs)
            if xs.size < 2:
                continue
            samples = SampledFunction(Grid1D(xs), rng.uniform(0, 2, size=xs.size))
            env = lower_convex_hull(samples)
            vals = evaluate_envelope_many(env, xs)
            assert np.all(vals <= samples.values + 1e-12)
            hit = np.isin(xs, env.breakpoints)
            np.testing.assert_array_equal(vals[hit], samples.values[hit])
            assert np.all(np.diff(env.edge_slopes) >= -1e-12)


def numpy_scalar_hull(xs, ys):
    """The monotone chain on numpy float64 scalars, one numpy operation per
    float operation: the reference for the Python-float kernel."""
    keep = []
    for i in range(xs.size):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            cross = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a])
            if cross <= 0.0:
                keep.pop()
            else:
                break
        keep.append(i)
    return keep


def chord_oracle(xs, ys):
    """Lower hull vertices of integer points: both ends, and each point
    strictly below the chord of every pair of points around it."""
    n = len(xs)

    def below(j, a, b):
        return (xs[j] - xs[a]) * (ys[b] - ys[a]) - (ys[j] - ys[a]) * (xs[b] - xs[a]) > 0

    return [
        j for j in range(n)
        if j in (0, n - 1) or all(below(j, a, b) for a in range(j) for b in range(j + 1, n))
    ]


class TestHullKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-30, 30), min_size=2, max_size=12, unique=True),
        st.data(),
    )
    def test_integer_points_match_the_chord_oracle(self, xs, data):
        xs = sorted(xs)
        ys = data.draw(st.lists(st.integers(-30, 30), min_size=len(xs), max_size=len(xs)))
        assert _hull_vertices([float(x) for x in xs], [float(y) for y in ys]) == chord_oracle(xs, ys)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 65, 257, 513])
    def test_random_floats_match_the_numpy_scalar_loop(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            xs = np.unique(rng.uniform(-4.0, 4.0, n))
            shapes = [
                rng.normal(size=xs.size),
                (xs * xs - 1.0) ** 2,  # the double well: flat hull edges
                rng.uniform(-1, 1) * xs + rng.uniform(-1, 1),  # collinear up to rounding
                xs * xs + 1e-15 * rng.normal(size=xs.size),  # nearly collinear triples
                np.abs(xs) * 1e300,
            ]
            for ys in shapes:
                assert _hull_vertices(xs.tolist(), ys.tolist()) == numpy_scalar_hull(xs, ys)


class TestConvexEnvelopeValidation:
    """``ConvexEnvelope`` rejects each kind of malformed vertex list with
    its own message."""

    BREAKPOINTS = [-1.0, 0.0, 2.0]
    VALUES = [1.0, 0.0, 2.0]
    SLOPES = [-1.0, 1.0]

    def test_accepts_a_convex_vertex_list(self):
        arrays = map(np.array, (self.BREAKPOINTS, self.VALUES, self.SLOPES))
        assert ConvexEnvelope(*arrays).domain == (-1.0, 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        for field in range(3):
            arrays = [list(self.BREAKPOINTS), list(self.VALUES), list(self.SLOPES)]
            arrays[field][1] = bad
            with pytest.raises(DegenerateInputError, match="must contain finite values only"):
                ConvexEnvelope(*map(np.array, arrays))

    @pytest.mark.parametrize(
        "breakpoints, values, slopes",
        [
            ([0.0], [0.0], []),
            ([-1.0, 0.0, 2.0], [1.0, 0.0], [-1.0, 1.0]),
            ([-1.0, 0.0, 2.0], [1.0, 0.0, 2.0], [-1.0]),
            ([[-1.0, 0.0, 2.0]], [[1.0, 0.0, 2.0]], [[-1.0, 1.0]]),
        ],
    )
    def test_rejects_inconsistent_shapes(self, breakpoints, values, slopes):
        with pytest.raises(DegenerateInputError, match="inconsistent envelope arrays"):
            ConvexEnvelope(np.array(breakpoints), np.array(values), np.array(slopes))

    @pytest.mark.parametrize("breakpoints", [[-1.0, -1.0, 2.0], [-1.0, 2.0, 0.0]])
    def test_rejects_breakpoints_that_do_not_increase(self, breakpoints):
        values, slopes = np.array(self.VALUES), np.array(self.SLOPES)
        with pytest.raises(DegenerateInputError, match="strictly increasing"):
            ConvexEnvelope(np.array(breakpoints), values, slopes)

    def test_rejects_decreasing_slopes(self):
        values, slopes = np.array(self.VALUES), np.array([1.0, -1.0])
        with pytest.raises(DegenerateInputError, match="edge slopes must be nondecreasing"):
            ConvexEnvelope(np.array(self.BREAKPOINTS), values, slopes)
        # a drop within the relative 1e-12 rounding allowance is accepted
        ConvexEnvelope(np.array(self.BREAKPOINTS), values, np.array([1.0, 1.0 - 1e-13]))


class TestEvaluateEnvelope:
    def test_double_well_origin(self):
        env = lower_convex_hull(DOUBLE_WELL)
        assert evaluate_envelope(env, 0.0) == 0.0

    def test_parabola_interpolates_chord(self):
        env = lower_convex_hull(PARABOLA)
        assert evaluate_envelope(env, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_breakpoints_exact(self):
        env = lower_convex_hull(DOUBLE_WELL)
        for bp, hv in zip(env.breakpoints, env.hull_values):
            assert evaluate_envelope(env, bp) == hv

    def test_out_of_domain(self):
        env = lower_convex_hull(PARABOLA)
        with pytest.raises(OutOfDomainError):
            evaluate_envelope(env, 2.5)
        with pytest.raises(OutOfDomainError):
            evaluate_envelope_many(env, np.array([0.0, -2.01]))


class TestSubdifferential:
    def test_parabola_kink_at_origin(self):
        env = lower_convex_hull(PARABOLA)
        sub = subdifferential(env, 0.0)
        assert (sub.lo, sub.hi) == (-1.0, 1.0)

    def test_flat_edge_interior(self):
        env = lower_convex_hull(DOUBLE_WELL)
        sub = subdifferential(env, 0.0)
        assert (sub.lo, sub.hi) == (0.0, 0.0)
        assert sub.degenerate

    def test_affine_everywhere(self):
        env = lower_convex_hull(sampled([0, 0.5, 1], lambda x: 3.0 * x - 1.0))
        for xi in (0.0, 0.3, 1.0):
            sub = subdifferential(env, xi)
            assert (sub.lo, sub.hi) == (3.0, 3.0)

    def test_boundary_clamped(self):
        env = lower_convex_hull(PARABOLA)
        left = subdifferential(env, -2.0)
        right = subdifferential(env, 2.0)
        assert left.lo == left.hi == -3.0
        assert right.lo == right.hi == 3.0

    def test_nested_monotone(self):
        rng = np.random.default_rng(11)
        xs = np.sort(rng.uniform(-2, 2, size=25))
        xs = np.unique(xs)
        samples = SampledFunction(Grid1D(xs), rng.uniform(0, 1, size=xs.size))
        env = lower_convex_hull(samples)
        probes = np.sort(rng.uniform(xs[0], xs[-1], size=40))
        subs = [subdifferential(env, x) for x in probes]
        for a, b in zip(subs, subs[1:]):
            assert a.hi <= b.lo + 1e-12


class TestCaratheodoryDecompose:
    def test_double_well_origin_splits_half_half(self):
        env = lower_convex_hull(DOUBLE_WELL)
        dec = caratheodory_decompose(DOUBLE_WELL, env, 0.0)
        np.testing.assert_array_equal(dec.weights, [0.5, 0.5])
        np.testing.assert_array_equal(dec.points, [-1.0, 1.0])
        assert dec.envelope_value == 0.0

    def test_hull_vertex_is_trivial(self):
        env = lower_convex_hull(PARABOLA)
        dec = caratheodory_decompose(PARABOLA, env, -2.0)
        assert dec.trivial
        assert dec.points.tolist() == [-2.0]
        assert dec.envelope_value == 4.0

    def test_matches_pair_oracle_on_random_data(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(4, 64))
            xs = np.unique(rng.uniform(-4, 4, size=n))
            if xs.size < 4:
                continue
            samples = SampledFunction(Grid1D(xs), rng.uniform(0, 2, size=xs.size))
            env = lower_convex_hull(samples)
            for target in rng.uniform(xs[0], xs[-1], size=5):
                dec = caratheodory_decompose(samples, env, float(target))
                assert dec.envelope_value == pytest.approx(
                    pair_minimum_oracle(samples, float(target)), abs=1e-12
                )

    def test_decomposition_invariants(self):
        env = lower_convex_hull(DOUBLE_WELL)
        dec = caratheodory_decompose(DOUBLE_WELL, env, 0.37)
        assert abs(dec.weights.sum() - 1.0) <= 1e-12
        assert abs(float(dec.weights @ dec.points) - 0.37) <= 1e-9 * 1.37
        assert abs(float(dec.weights @ dec.point_values) - dec.envelope_value) <= 1e-9


class TestLegendreConjugate:
    def test_parabola_fine_grid(self):
        fine = sampled(np.linspace(-4, 4, 801), lambda x: x * x)
        # true conjugate of x^2 is p^2/4; grid pitch bounds the error
        assert legendre_conjugate(fine, 2.0) == pytest.approx(1.0, abs=1e-4)

    def test_affine_at_its_slope(self):
        samples = sampled([-1, 0, 1, 2], lambda x: 3.0 * x + 2.0)
        assert legendre_conjugate(samples, 3.0) == -2.0

    def test_abs_inside_unit_slope(self):
        samples = sampled(np.linspace(-3, 3, 13), np.abs)
        assert legendre_conjugate(samples, 0.5) == 0.0

    def test_conjugate_consistency_with_envelope(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            xs = np.unique(rng.uniform(-3, 3, size=20))
            if xs.size < 3:
                continue
            samples = SampledFunction(Grid1D(xs), rng.uniform(0, 2, size=xs.size))
            env = lower_convex_hull(samples)
            env_samples = SampledFunction(Grid1D(env.breakpoints), env.hull_values)
            for p in rng.uniform(-5, 5, size=7):
                assert legendre_conjugate(samples, p) == legendre_conjugate(
                    env_samples, p
                )

    def test_fenchel_young_on_grid(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            xs = np.unique(rng.uniform(-3, 3, size=24))
            if xs.size < 3:
                continue
            samples = SampledFunction(Grid1D(xs), rng.uniform(0, 2, size=xs.size))
            env = lower_convex_hull(samples)
            for xi in xs:
                sub = subdifferential(env, float(xi))
                for p in (sub.lo, sub.hi, sub.midpoint):
                    lhs = evaluate_envelope(env, float(xi)) + legendre_conjugate(
                        samples, p
                    )
                    assert lhs == pytest.approx(p * xi, abs=1e-9)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def envelope_and_points(draw):
    """A random sampled graph's envelope, with random in-domain points, every
    breakpoint, both domain ends and points inside the domain tolerance."""
    coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    xs = np.sort(np.array(draw(st.lists(coord, min_size=2, max_size=24, unique=True))))
    assume(np.all(np.diff(xs) > 1e-9))
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    ys = np.array(draw(st.lists(value, min_size=xs.size, max_size=xs.size)))
    try:
        env = lower_convex_hull(SampledFunction(Grid1D(xs), ys))
    except DegenerateInputError:
        assume(False)
    lo, hi = env.domain
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    inner = draw(st.lists(st.floats(lo, hi), max_size=24))
    ends = [lo, hi, lo - 0.5 * tol, hi + 0.5 * tol]
    points = np.concatenate([np.array(inner, dtype=float), xs, env.breakpoints, ends])
    return env, draw(st.permutations(list(points)))


class TestVectorizedAgainstScalar:
    """The vectorized envelope and midpoint evaluations give the scalar bits;
    the vectorized midpoints are the envelope table's."""

    @settings(max_examples=200, deadline=None)
    @given(envelope_and_points())
    def test_evaluate_envelope_many(self, case):
        env, points = case
        scalar = [evaluate_envelope(env, float(xi)) for xi in points]
        assert bits(evaluate_envelope_many(env, np.array(points))) == bits(scalar)

    @staticmethod
    def midpoints(env, points):
        """The envelope table's midpoints on one row: the envelope's vertices,
        whose hull is the envelope again."""
        table = EnvelopeTable.of(env.breakpoints, env.hull_values[None])
        return table.midpoints(np.zeros(len(points), dtype=np.intp), np.array(points))

    @settings(max_examples=200, deadline=None)
    @given(envelope_and_points())
    def test_subgradient_midpoints(self, case):
        env, points = case
        try:
            scalar = [subdifferential(env, float(xi)).midpoint for xi in points]
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError):
                self.midpoints(env, points)
            return
        assert bits(self.midpoints(env, points)) == bits(scalar)

    def test_out_of_domain_rejected(self):
        env = lower_convex_hull(PARABOLA)
        with pytest.raises(OutOfDomainError):
            self.midpoints(env, [0.0, 2.5])
