"""Envelope, subgradient, conjugate, and splitting checks in 1-d, on
one-row envelope tables.

Expected values come from three independent sources: closed-form
envelopes (parabola, double well, affine), chord-slope arithmetic done by
hand, and a brute-force enumeration oracle over all support pairs; bit
for bit, the table also matches the per-envelope reference of
``envelope_reference``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import envelope_reference as ref
from varelax import convex
from varelax.convex import EnvelopeTable, _hull_vertices
from varelax.errors import DegenerateInputError, OutOfDomainError


def legendre_conjugate(xs, ys, p):
    """sup over the grid of ``p*xi - f(xi)``; conjugation kills non-convexity."""
    return float(np.max(p * xs - ys))


def sampled(points, fn):
    xs = np.asarray(points, dtype=float)
    return xs, fn(xs)


def one_row(xs, ys):
    return EnvelopeTable.of(xs, ys[None])


def vertex_indices(table):
    return table.vertices[0, : table.counts[0]]


def pair_minimum_oracle(xs, ys, target):
    """Exhaustive minimum over all support pairs and admissible weights."""
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
        table = one_row(*PARABOLA)
        assert vertex_indices(table).tolist() == list(range(PARABOLA[0].size))

    def test_double_well_flat_edge(self):
        table = one_row(*DOUBLE_WELL)
        breakpoints = table.grid[vertex_indices(table)]
        assert -1.0 in breakpoints and 1.0 in breakpoints
        k = int(np.searchsorted(breakpoints, -1.0))
        assert breakpoints[k + 1] == 1.0
        assert table.slopes[0, k] == 0.0
        values = table.place(0, np.array([-1.0, -0.25, 0.0, 0.75, 1.0])).values
        assert values.tolist() == [0.0] * 5

    def test_affine_input(self):
        table = one_row(*sampled([0, 1], lambda x: -x))
        np.testing.assert_array_equal(table.values[0, vertex_indices(table)], [0.0, -1.0])
        assert table.slopes[0, : table.counts[0] - 1].tolist() == [-1.0]

    def test_collinear_interior_points_dropped(self):
        table = one_row(*sampled([0, 1, 2, 3], lambda x: 2.0 * x + 1.0))
        np.testing.assert_array_equal(table.grid[vertex_indices(table)], [0.0, 3.0])

    def test_rejects_single_sample(self):
        # such a grid once built a table whose queries raised IndexError
        with pytest.raises(DegenerateInputError):
            EnvelopeTable.of(np.array([1.0]), np.array([[0.0]]))

    def test_rejects_a_decreasing_grid(self):
        # such a grid once gave the reversed domain [1.0, 0.0]
        with pytest.raises(DegenerateInputError):
            EnvelopeTable.of(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))

    def test_envelope_dominance_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(2, 40)
            xs = np.sort(rng.uniform(-3, 3, size=n))
            xs = np.unique(xs)
            if xs.size < 2:
                continue
            ys = rng.uniform(0, 2, size=xs.size)
            table = one_row(xs, ys)
            vals = table.place(0, xs).values
            assert np.all(vals <= ys + 1e-12)
            hit = vertex_indices(table)
            np.testing.assert_array_equal(vals[hit], ys[hit])
            assert np.all(np.diff(table.slopes[0, : table.counts[0] - 1]) >= -1e-12)


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
                np.abs(xs) * 4e307,  # cross products overflow to inf - inf, NaN
            ]
            for ys in shapes:
                assert _hull_vertices(xs.tolist(), ys.tolist()) == ref.hull(xs, ys)


def reference_table(xs, rows):
    """``vertices``, ``counts``, ``rank`` and ``slopes`` of an envelope
    table, row by row from ``envelope_reference.hull``."""
    hulls = [ref.hull(xs, ys) for ys in rows]
    width = max(map(len, hulls))
    vertices = np.array([keep + keep[-1:] * (width - len(keep)) for keep in hulls])
    rank = np.zeros((len(hulls), xs.size + 1), dtype=np.intp)
    slopes = np.zeros((len(hulls), width - 1))
    for r, (ys, keep) in enumerate(zip(rows, hulls)):
        rank[r, np.array(keep) + 1] = 1
        slopes[r, : len(keep) - 1] = np.diff(ys[keep]) / np.diff(xs[keep])
    return vertices, np.array(list(map(len, hulls))), np.cumsum(rank, axis=1), slopes


@st.composite
def grouped_rows(draw):
    """A grid and the rows of a multi-row table, of three kinds: base +
    c * mod with c across a sign change, so rows fall into several hull
    groups; a row that is affine on an integer grid and copies of it one
    ulp off at one sample, near-collinear triples whose outcomes part; and
    rows near the float range, whose cross products overflow to inf - inf."""
    kind = draw(st.sampled_from(["sign change", "one ulp", "overflow"]))
    n = draw(st.integers(3, 33))
    if kind == "one ulp":
        xs = np.arange(n, dtype=float) - n // 2
        a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        rows = [a * xs + b]
        for j, up in draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=6)):
            row = rows[0].copy()
            row[j] = np.nextafter(row[j], np.inf if up else -np.inf)
            rows.append(row)
        return xs, np.array(draw(st.permutations(rows)))
    xs = np.linspace(-4.0, 4.0, n)
    if kind == "overflow":
        # |x - shift| <= 8, so the samples stay below 1.6e308
        scales = st.floats(1e306, 2e307)
        shifts = st.sampled_from(xs.tolist())
        pairs = draw(st.lists(st.tuples(scales, shifts), min_size=2, max_size=8))
        return xs, np.array([np.abs(xs - shift) * scale for scale, shift in pairs])
    shapes = {
        "double well": (xs * xs - 1.0) ** 2,
        "parabola": xs * xs,
        "abs": np.abs(xs),
        "sine": np.sin(2.0 * xs),
        "line": xs,
    }
    base, mod = (shapes[draw(st.sampled_from(sorted(shapes)))] for _ in range(2))
    lo, hi = draw(st.floats(-3.0, -1e-3)), draw(st.floats(1e-3, 3.0))
    c = np.linspace(lo, hi, draw(st.integers(2, 40)))
    return xs, base + c[:, None] * mod


class TestGroupedRuns:
    """A multi-row table runs the hull kernel once per group of rows with
    the same test outcomes, and every row has its own hull's bits."""

    @settings(max_examples=300, deadline=None)
    @given(grouped_rows())
    def test_rows_match_the_reference_hulls(self, case):
        xs, rows = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the replay warns of nothing
            table = EnvelopeTable.of(xs, rows)
        vertices, counts, rank, slopes = reference_table(xs, rows)
        assert table.vertices.tolist() == vertices.tolist()
        assert table.counts.tolist() == counts.tolist()
        assert table.rank.tolist() == rank.tolist()
        assert bits(table.slopes) == bits(slopes)

    def test_one_ulp_rows_fall_back_to_their_own_runs(self, monkeypatch):
        # the middle sample of a line one ulp up or down: the replay of the
        # line's run settles neither copy, the next replay only its leader,
        # and the last row runs alone
        runs = []
        build = convex._hull_vertices

        def counting(xs, ys, *tests):
            runs.append(ys)
            return build(xs, ys, *tests)

        monkeypatch.setattr(convex, "_hull_vertices", counting)
        xs = np.arange(5.0)
        line = 3.0 * xs - 1.0
        up, down = line.copy(), line.copy()
        up[2], down[2] = np.nextafter(5.0, 6.0), np.nextafter(5.0, 4.0)
        table = EnvelopeTable.of(xs, np.array([line, line, up, down]))
        assert table.counts.tolist() == [2, 2, 2, 3]
        assert [ys[2] for ys in runs] == [5.0, up[2], down[2]]


class TestConvexEnvelopeValidation:
    """The envelope table rejects each kind of malformed input with its own
    message in ``EnvelopeTable.of``: its grid, its rows and the edge slopes
    it derives from them."""

    BREAKPOINTS = [-1.0, 0.0, 2.0]
    VALUES = [1.0, 0.0, 2.0]
    SLOPES = [-1.0, 1.0]

    @staticmethod
    def table(breakpoints, values):
        return EnvelopeTable.of(np.array(breakpoints), np.array([values]))

    def test_accepts_a_convex_vertex_list(self):
        table = self.table(self.BREAKPOINTS, self.VALUES)
        assert (table.grid[0], table.grid[-1]) == (-1.0, 2.0)
        assert table.vertices.tolist() == [[0, 1, 2]]
        assert table.slopes.tolist() == [self.SLOPES]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        for field in range(2):
            arrays = [list(self.BREAKPOINTS), list(self.VALUES)]
            arrays[field][1] = bad
            with pytest.raises(DegenerateInputError, match="must contain finite values only"):
                self.table(*arrays)

    @pytest.mark.parametrize(
        "breakpoints, values, message",
        [
            ([0.0], [0.0], "grid needs at least 2 points"),
            ([-1.0, 0.0, 2.0], [1.0, 0.0], "values length must match grid length"),
            ([-1.0, 0.0, 2.0], [1.0, 0.0, 2.0, 3.0], "values length must match grid length"),
            ([[-1.0, 0.0, 2.0]], [[1.0, 0.0, 2.0]], "grid needs at least 2 points"),
        ],
    )
    def test_rejects_inconsistent_shapes(self, breakpoints, values, message):
        with pytest.raises(DegenerateInputError, match=message):
            self.table(breakpoints, values)

    @pytest.mark.parametrize("breakpoints", [[-1.0, -1.0, 2.0], [-1.0, 2.0, 0.0]])
    def test_rejects_breakpoints_that_do_not_increase(self, breakpoints):
        with pytest.raises(DegenerateInputError, match="strictly increasing"):
            self.table(breakpoints, self.VALUES)

    def test_rejects_decreasing_slopes(self, monkeypatch):
        # a kernel that keeps every sample: its slopes follow the samples
        keep_all = lambda xs, ys, tests=None: list(range(len(xs)))  # noqa: E731
        monkeypatch.setattr(convex, "_hull_vertices", keep_all)
        with pytest.raises(DegenerateInputError, match="edge slopes must be nondecreasing"):
            self.table(self.BREAKPOINTS, [0.0, 1.0, -1.0])  # slopes 1, -1
        # a drop within the relative 1e-12 rounding allowance is accepted
        table = self.table(self.BREAKPOINTS, [0.0, 1.0, 3.0 - 2e-13])
        assert 0.0 < table.slopes[0, 0] - table.slopes[0, 1] < 1e-12


class TestEvaluateEnvelope:
    def test_double_well_origin(self):
        assert one_row(*DOUBLE_WELL).place(0, 0.0).values == 0.0

    def test_parabola_interpolates_chord(self):
        assert one_row(*PARABOLA).place(0, 0.5).values == pytest.approx(0.5, abs=1e-15)

    def test_breakpoints_exact(self):
        table = one_row(*DOUBLE_WELL)
        for j in vertex_indices(table):
            assert table.place(0, table.grid[j]).values == table.values[0, j]

    def test_out_of_domain(self):
        table = one_row(*PARABOLA)
        with pytest.raises(OutOfDomainError):
            table.place(0, 2.5)
        with pytest.raises(OutOfDomainError):
            table.place(0, np.array([0.0, -2.01]))


class TestSubdifferential:
    def test_parabola_kink_at_origin(self):
        lo, hi = one_row(*PARABOLA).place(0, 0.0).subgradients
        assert (lo, hi) == (-1.0, 1.0)

    def test_flat_edge_interior(self):
        lo, hi = one_row(*DOUBLE_WELL).place(0, 0.0).subgradients
        assert (lo, hi) == (0.0, 0.0)

    def test_affine_everywhere(self):
        table = one_row(*sampled([0, 0.5, 1], lambda x: 3.0 * x - 1.0))
        lo, hi = table.place(0, np.array([0.0, 0.3, 1.0])).subgradients
        assert lo.tolist() == hi.tolist() == [3.0, 3.0, 3.0]

    def test_boundary_clamped(self):
        lo, hi = one_row(*PARABOLA).place(0, np.array([-2.0, 2.0])).subgradients
        assert lo.tolist() == hi.tolist() == [-3.0, 3.0]

    def test_nested_monotone(self):
        rng = np.random.default_rng(11)
        xs = np.sort(rng.uniform(-2, 2, size=25))
        xs = np.unique(xs)
        table = one_row(xs, rng.uniform(0, 1, size=xs.size))
        probes = np.sort(rng.uniform(xs[0], xs[-1], size=40))
        lo, hi = table.place(0, probes).subgradients
        assert np.all(hi[:-1] <= lo[1:] + 1e-12)


class TestCaratheodoryDecompose:
    @staticmethod
    def split(samples, xi):
        """The weights, points and point values of one splitting, cut to its
        support, then its envelope value."""
        dec = one_row(*samples).place(np.zeros(1, dtype=np.intp), [xi]).split
        k = dec.support[0]
        cut = dec.weights[0, :k], dec.points[0, :k], dec.point_values[0, :k]
        return (*cut, dec.envelope_values[0])

    def test_double_well_origin_splits_half_half(self):
        weights, points, _, envelope = self.split(DOUBLE_WELL, 0.0)
        np.testing.assert_array_equal(weights, [0.5, 0.5])
        np.testing.assert_array_equal(points, [-1.0, 1.0])
        assert envelope == 0.0

    def test_hull_vertex_is_trivial(self):
        weights, points, _, envelope = self.split(PARABOLA, -2.0)
        assert weights.tolist() == [1.0]
        assert points.tolist() == [-2.0]
        assert envelope == 4.0

    def test_matches_pair_oracle_on_random_data(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(4, 64))
            xs = np.unique(rng.uniform(-4, 4, size=n))
            if xs.size < 4:
                continue
            ys = rng.uniform(0, 2, size=xs.size)
            for target in rng.uniform(xs[0], xs[-1], size=5):
                envelope = self.split((xs, ys), float(target))[-1]
                assert envelope == pytest.approx(
                    pair_minimum_oracle(xs, ys, float(target)), abs=1e-12
                )

    def test_decomposition_invariants(self):
        weights, points, values, envelope = self.split(DOUBLE_WELL, 0.37)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert abs(float(weights @ points) - 0.37) <= 1e-9 * 1.37
        assert abs(float(weights @ values) - envelope) <= 1e-9


def batch_fields(**changes):
    """A valid 1-d batch of two rows, the origin split over the double
    well's wells and the vertex 2 over itself, with ``changes`` applied."""
    fields = dict(
        weights=[[0.5, 0.5], [1.0, 0.0]],
        points=[[-1.0, 1.0], [2.0, 2.0]],
        point_values=[[0.0, 0.0], [9.0, 9.0]],
        support=[2, 1],
        targets=[0.0, 2.0],
        envelope_values=[0.0, 9.0],
    )
    fields.update(changes)
    return {k: np.array(v) for k, v in fields.items()}


def planar_fields(**changes):
    """A valid 2-d batch of one row: (0.25, 0.25) over three corners of the
    unit square, with ``changes`` applied."""
    fields = dict(
        weights=[[0.5, 0.25, 0.25]],
        points=[[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]],
        point_values=[[0.0, 1.0, 3.0]],
        support=[3],
        targets=[[0.25, 0.25]],
        envelope_values=[1.0],
    )
    fields.update(changes)
    return {k: np.array(v) for k, v in fields.items()}


class TestCaratheodoryBatch:
    """One constructor checks every row of a batch, 1-d or 2-d."""

    def test_valid_batches(self):
        line = convex.CaratheodoryDecomposition(**batch_fields())
        assert line.split_count == 1 and line.support_radius == 2.0
        plane = convex.CaratheodoryDecomposition(**planar_fields())
        assert plane.split_count == 1 and plane.support_radius == 1.0

    @pytest.mark.parametrize(
        "fields, message",
        [
            (batch_fields(weights=[[0.5, 0.5], [1.5, -0.5]]), "weights must be nonnegative"),
            (batch_fields(weights=[[0.5, 0.4], [1.0, 0.0]]), "weights must sum to one"),
            (batch_fields(targets=[0.0, 2.1]), "support points do not average to the target"),
            (
                batch_fields(envelope_values=[0.1, 9.0]),
                "support values do not reproduce the envelope value",
            ),
            (batch_fields(weights=[[0.5, np.nan], [1.0, 0.0]]), "weights must contain finite"),
            (batch_fields(points=[[-1.0, np.inf], [2.0, 2.0]]), "support points must contain"),
            (batch_fields(point_values=[[0.0, 0.0], [np.nan, 9.0]]), "support values must contain"),
            (batch_fields(weights=[0.5, 0.5]), "inconsistent decomposition arrays"),
            (batch_fields(support=[2]), "inconsistent decomposition arrays"),
            (batch_fields(targets=[0.0]), "inconsistent decomposition arrays"),
            (batch_fields(point_values=[[0.0], [9.0]]), "inconsistent decomposition arrays"),
            (batch_fields(envelope_values=[[0.0], [9.0]]), "inconsistent decomposition arrays"),
            (planar_fields(weights=[[0.75, 0.5, -0.25]]), "weights must be nonnegative"),
            (planar_fields(targets=[[0.25, 0.3]]), "support points do not average to the target"),
            (
                planar_fields(envelope_values=[1.5]),
                "support values do not reproduce the envelope value",
            ),
            (planar_fields(points=[[[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]]]), "support points"),
            (planar_fields(targets=[0.25]), "inconsistent decomposition arrays"),
            (planar_fields(points=[[0.0, 1.0, 0.0]]), "inconsistent decomposition arrays"),
        ],
    )
    def test_malformed_batch_rejected(self, fields, message):
        with pytest.raises(DegenerateInputError, match=message):
            convex.CaratheodoryDecomposition(**fields)


class TestLegendreConjugate:
    def test_parabola_fine_grid(self):
        fine = sampled(np.linspace(-4, 4, 801), lambda x: x * x)
        # true conjugate of x^2 is p^2/4; grid pitch bounds the error
        assert legendre_conjugate(*fine, 2.0) == pytest.approx(1.0, abs=1e-4)

    def test_affine_at_its_slope(self):
        samples = sampled([-1, 0, 1, 2], lambda x: 3.0 * x + 2.0)
        assert legendre_conjugate(*samples, 3.0) == -2.0

    def test_abs_inside_unit_slope(self):
        samples = sampled(np.linspace(-3, 3, 13), np.abs)
        assert legendre_conjugate(*samples, 0.5) == 0.0

    def test_conjugate_consistency_with_envelope(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            xs = np.unique(rng.uniform(-3, 3, size=20))
            if xs.size < 3:
                continue
            ys = rng.uniform(0, 2, size=xs.size)
            hull = vertex_indices(one_row(xs, ys))
            for p in rng.uniform(-5, 5, size=7):
                assert legendre_conjugate(xs, ys, p) == legendre_conjugate(xs[hull], ys[hull], p)

    def test_fenchel_young_on_grid(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            xs = np.unique(rng.uniform(-3, 3, size=24))
            if xs.size < 3:
                continue
            ys = rng.uniform(0, 2, size=xs.size)
            table = one_row(xs, ys)
            placed = table.place(0, xs)
            los, his = placed.subgradients
            for xi, value, lo, hi in zip(xs, placed.values, los, his):
                for p in (lo, hi, 0.5 * (lo + hi)):
                    lhs = value + legendre_conjugate(xs, ys, p)
                    assert lhs == pytest.approx(p * xi, abs=1e-9)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def envelope_and_points(draw):
    """A random sampled graph with its one-row table, and random in-domain
    points, every sample, both domain ends and points inside the domain
    tolerance."""
    coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    xs = np.sort(np.array(draw(st.lists(coord, min_size=2, max_size=24, unique=True))))
    assume(np.all(np.diff(xs) > 1e-9))
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    ys = np.array(draw(st.lists(value, min_size=xs.size, max_size=xs.size)))
    try:
        table = one_row(xs, ys)
    except DegenerateInputError:
        assume(False)
    lo, hi = float(xs[0]), float(xs[-1])
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    inner = draw(st.lists(st.floats(lo, hi), max_size=24))
    ends = [lo, hi, lo - 0.5 * tol, hi + 0.5 * tol]
    points = np.concatenate([np.array(inner, dtype=float), xs, ends])
    return xs, ys, table, np.array(draw(st.permutations(list(points))))


class TestVectorizedAgainstScalar:
    """The table's values and midpoints give the per-point reference's bits."""

    @settings(max_examples=200, deadline=None)
    @given(envelope_and_points())
    def test_evaluate_envelope_many(self, case):
        xs, ys, table, points = case
        keep = ref.hull(xs, ys)
        scalar = [ref.value(xs, ys, keep, xi) for xi in points]
        assert bits(table.place(0, points).values) == bits(scalar)

    @settings(max_examples=200, deadline=None)
    @given(envelope_and_points())
    def test_subgradient_midpoints(self, case):
        xs, ys, table, points = case
        keep = ref.hull(xs, ys)
        ends = [ref.subgradients(xs, ys, keep, xi) for xi in points]
        scalar = [0.5 * (lo + hi) for lo, hi in ends]
        lo, hi = table.place(0, points).subgradients
        assert bits(0.5 * (lo + hi)) == bits(scalar)

    def test_out_of_domain_rejected(self):
        with pytest.raises(OutOfDomainError):
            one_row(*PARABOLA).place(0, [0.0, 2.5])


@st.composite
def tables_and_points(draw):
    """``envelope_and_points``' table, or a table of rows that are affine up
    to rounding on a uniform grid, where the chain keeps vertices whose
    edge slopes fall by an ulp; with points all over the domain."""
    if draw(st.booleans()):
        _, _, table, points = draw(envelope_and_points())
        return table, points
    n = draw(st.integers(3, 65))
    xs = np.linspace(-draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 8.0)), n)
    coeff = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    rows = [a * xs + b for a, b in draw(st.lists(st.tuples(coeff, coeff), min_size=1, max_size=4))]
    table = EnvelopeTable.of(xs, np.array(rows))
    inner = draw(st.lists(st.floats(float(xs[0]), float(xs[-1])), max_size=24))
    return table, np.concatenate([np.array(inner, dtype=float), xs])


class TestSubgradientOrder:
    """The ends of a subgradient interval are two adjacent edge slopes of
    one row, so they cross at most by the fall that ``of`` allows the
    slopes; their midpoint therefore needs no order check of its own."""

    @settings(max_examples=300, deadline=None)
    @given(tables_and_points())
    def test_ends_cross_only_within_the_slope_allowance(self, case):
        table, points = case
        rows = np.arange(table.values.shape[0])[:, None]
        lo, hi = table.place(rows, points).subgradients
        assert np.all(hi - lo >= -1e-12 * np.maximum(1.0, np.abs(lo)))
