"""k-means clustering."""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.analysis.kmeans as kmeans_module
from repro.analysis.kmeans import kmeans_array
from tests.oracles import analysis as oracle
from tests.oracles.analysis import kmeans

EMPTIED_MID_RUN = [
    [6.0, 9.0], [6.0, 9.0], [6.0, 6.0], [12.0, 9.0], [9.0, 10.0],
    [4.0, 2.0], [7.0, 9.0], [3.0, 6.0], [6.0, 5.0], [3.0, 7.0],
    [3.0, 12.0], [11.0, 0.0]]


def blob(center, n, spread, rng):
    return [[c + rng.uniform(-spread, spread) for c in center]
            for _ in range(n)]


def as_bytes(result):
    """Every output of a k-means run, floats as their IEEE bytes."""
    flat = [x for centroid in result.centroids for x in centroid]
    return (struct.pack(f"<{len(flat)}d", *flat), result.assignments,
            struct.pack("<d", result.inertia), result.iterations)


# a 1-D cluster empties mid-run: its centroid lands in a gap between
# points while both neighbours take its members (random search finds
# about one case in 60 000)
EMPTIED_MID_RUN_1D = [
    6.0, 12.0, 6.0, 13.0, 30.0, 2.0, 25.0, 6.0, 29.0, 8.0, 6.0, 35.0,
    30.0, 1.0, 28.0, 5.0]


def point_lists(dims, coordinate):
    return st.lists(st.lists(coordinate, min_size=dims, max_size=dims),
                    min_size=1, max_size=40)


@st.composite
def midpoint_ties(draw, dims):
    """Two integer groups an even distance apart plus points exactly
    half-way: once the groups' centroids settle on them, the midpoints
    are equidistant and the lowest centroid index must win."""
    low = draw(st.lists(st.integers(-10, 10), min_size=dims,
                        max_size=dims))
    half = draw(st.lists(st.integers(0, 5), min_size=dims, max_size=dims))
    groups = [[float(a) for a in low],
              [float(a + 2 * h) for a, h in zip(low, half)],
              [float(a + h) for a, h in zip(low, half)]]
    sizes = draw(st.tuples(st.integers(1, 8), st.integers(1, 8),
                           st.integers(1, 3)))
    points = [list(g) for g, size in zip(groups, sizes)
              for _ in range(size)]
    return draw(st.permutations(points))


@st.composite
def kmeans_cases(draw, dims=st.integers(2, 3)):
    dims = draw(dims)
    points = draw(st.one_of(
        # integer-valued and duplicate-heavy: k often exceeds the
        # number of distinct values
        point_lists(dims, st.integers(-4, 4).map(float)),
        midpoint_ties(dims),
        # identical points: degenerate seeding, empty clusters
        st.builds(lambda p, n: [p] * n,
                  st.lists(st.integers(-3, 3).map(float), min_size=dims,
                           max_size=dims),
                  st.integers(1, 12)),
        point_lists(dims, st.floats(-100.0, 100.0))))
    return points, draw(st.integers(1, 8)), draw(st.integers(0, 2**16))


@st.composite
def long_columns(draw):
    """Up to 2048 values from a few modes: integral and duplicate-heavy
    (the stat engine's populations), or shifted off the integers so the
    centroid sums take the point-order ``bincount`` path."""
    n = draw(st.integers(1, 2048))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = rng.choice(rng.integers(-50, 5000, size=4).astype(float),
                       size=n)
    column = np.round(rng.normal(modes, draw(st.sampled_from([0.0, 3.0,
                                                              90.0]))))
    if draw(st.booleans()):
        column = column + draw(st.sampled_from([0.1, 1 / 3, 2.0 ** -30]))
    return [[v] for v in column.tolist()]


def one_column(values):
    return st.lists(values.map(lambda v: [v]), min_size=1, max_size=60)


def column_cases():
    near_2_53 = st.integers(-12, 12).map(lambda d: float(2 ** 53 + 2 * d))
    return st.tuples(
        st.one_of(
            one_column(st.integers(-4, 4).map(float)),
            midpoint_ties(1),
            one_column(st.floats(-100.0, 100.0)),
            # magnitudes where n * max|x| reaches 2**53 (the exactness
            # bound: at 2**48 from n = 32 on) and where rounding ties
            # distances far from the midpoint between close centroids
            one_column(st.one_of(near_2_53, near_2_53.map(lambda v: -v),
                                 st.integers(-3, 3).map(float))),
            one_column(st.integers(2 ** 48, 2 ** 48 + 6).map(float)),
            one_column(st.floats(1.0, 1.0 + 2.0 ** -48)),
            one_column(st.sampled_from([-0.0, 0.0, -1.0, 1.0, -2.5, 2.5])),
            long_columns()),
        st.integers(1, 12), st.integers(0, 2**16))


class TestKMeans:
    def test_recovers_separated_clusters(self):
        rng = random.Random(1)
        points = blob([0.0], 20, 0.5, rng) + blob([100.0], 20, 0.5, rng)
        result = kmeans(points, k=2, seed=0)
        left = {result.assignments[i] for i in range(20)}
        right = {result.assignments[i] for i in range(20, 40)}
        assert len(left) == 1 and len(right) == 1 and left != right
        centers = sorted(c[0] for c in result.centroids)
        assert centers[0] == pytest.approx(0.0, abs=1.0)
        assert centers[1] == pytest.approx(100.0, abs=1.0)

    def test_two_dimensional(self):
        rng = random.Random(2)
        points = (blob([0, 0], 15, 1.0, rng)
                  + blob([10, 10], 15, 1.0, rng)
                  + blob([0, 10], 15, 1.0, rng))
        result = kmeans(points, k=3, seed=3)
        assert sorted(result.cluster_sizes()) == [15, 15, 15]

    def test_deterministic_for_seed(self):
        rng = random.Random(3)
        points = blob([0.0], 30, 5.0, rng)
        a = kmeans(points, k=3, seed=42)
        b = kmeans(points, k=3, seed=42)
        assert a.assignments == b.assignments
        assert a.centroids == b.centroids

    def test_k_clamped_to_points(self):
        result = kmeans([[1.0], [2.0]], k=10, seed=0)
        assert result.k == 2

    def test_single_point(self):
        result = kmeans([[7.0]], k=1)
        assert result.centroids == [[7.0]]
        assert result.inertia == 0.0

    def test_identical_points(self):
        result = kmeans([[3.0]] * 10, k=2, seed=0)
        assert result.inertia == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kmeans([], k=1)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            kmeans([[1.0]], k=0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="point 2 is not finite"):
            kmeans([[1.0], [2.0], [bad], [50.0], [51.0]], k=2)

    def test_inertia_not_worse_than_single_cluster(self):
        rng = random.Random(4)
        points = blob([0.0], 20, 3.0, rng) + blob([50.0], 20, 3.0, rng)
        one = kmeans(points, k=1, seed=0)
        two = kmeans(points, k=2, seed=0)
        assert two.inertia < one.inertia

    def test_assignment_is_nearest_centroid(self):
        rng = random.Random(5)
        points = blob([0.0, 0.0], 25, 4.0, rng) + blob([20.0, 5.0], 25, 4.0, rng)
        result = kmeans(points, k=2, seed=1)
        for point, assigned in zip(points, result.assignments):
            distances = [sum((x - c) ** 2 for x, c in zip(point, centroid))
                         for centroid in result.centroids]
            assert distances[assigned] == min(distances)


class TestOracleMultidimensional:
    """2-D and 3-D points are the oracle's alone: ``kmeans_array``
    clusters one column and refuses more."""

    @settings(max_examples=100, deadline=None)
    @given(case=kmeans_cases())
    @example(case=(EMPTIED_MID_RUN, 8, 900))
    def test_oracle_is_deterministic_and_consistent(self, case):
        points, k, seed = case
        result = kmeans(points, k, seed=seed)
        assert as_bytes(result) == as_bytes(kmeans(points, k, seed=seed))
        assert result.k == min(k, len(points))
        assert all(0 <= a < result.k for a in result.assignments)
        assert result.inertia == sum(
            sum((x - c) * (x - c)
                for x, c in zip(point, result.centroids[a]))
            for point, a in zip(points, result.assignments))
        with pytest.raises(ValueError, match="one column"):
            kmeans_array(points, k, seed=seed)

    @pytest.mark.parametrize("shape", [(5, 2), (3, 3), (4, 1, 1), (4, 0)])
    def test_array_refuses_more_than_one_dimension(self, shape):
        with pytest.raises(ValueError, match="one column"):
            kmeans_array(np.zeros(shape), 2)


class TestVectorizedKMeans:
    """kmeans_array must be bit-identical to the scalar reference."""

    def _assert_identical(self, points, k, seed):
        assert (as_bytes(kmeans_array(points, k, seed=seed))
                == as_bytes(kmeans(points, k, seed=seed)))

    def test_bitwise_equal_to_scalar(self, monkeypatch):
        # the oracle's kmeans calls max() only in its empty-cluster re-seed
        reseeds = []

        def counting_max(*args, **kwargs):
            reseeds.append(1)
            return max(*args, **kwargs)

        monkeypatch.setattr(oracle, "max", counting_max, raising=False)

        @settings(max_examples=300, deadline=None)
        @given(case=column_cases())
        @example(case=([[v] for v in EMPTIED_MID_RUN_1D], 6, 5775))
        @example(case=([[7.5]], 3, 0))
        def check(case):
            points, k, seed = case
            self._assert_identical(points, k, seed)

        check()
        assert reseeds, "no example emptied a cluster"

    def test_a_cluster_empties_mid_run(self, monkeypatch):
        reseeds = []

        def counting_max(*args, **kwargs):
            reseeds.append(1)
            return max(*args, **kwargs)

        points = [[v] for v in EMPTIED_MID_RUN_1D]
        seeds = oracle._seed_centroids(points, 6, random.Random(5775))
        assert len({c[0] for c in seeds}) == 6   # no duplicate seed
        monkeypatch.setattr(oracle, "max", counting_max, raising=False)
        self._assert_identical(points, 6, 5775)
        assert reseeds

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(
               st.integers(-6, 6).map(float), st.floats(-1e3, 1e3),
               st.floats(1.0, 1.0 + 2.0 ** -44),
               st.floats(-2.0 ** 60, 2.0 ** 60),
               st.floats(-1e300, 1e300)), min_size=1, max_size=50),
           centroids=st.lists(st.one_of(
               st.integers(-6, 6).map(float), st.floats(-1e3, 1e3),
               st.floats(1.0, 1.0 + 2.0 ** -44),
               st.sampled_from([-0.0, 0.0])), min_size=1, max_size=8))
    # rounding ties the point just below the midpoint, and the upper
    # centroid's lower index takes it: the boundary walks down
    @example(values=[-1.5885683833831, -0.2936140902934297,
                     -0.29361409029342966, 1.0013402027962406],
             centroids=[1.0013402027962406, -1.5885683833831])
    def test_cells_are_the_first_minimum(self, values, centroids):
        """One assignment step on the sorted column, both the interval
        search and the dense rows behind its gap guard, against the
        oracle's strict ``<`` scan of every centroid."""
        x = np.array(values)
        xs = np.sort(x)
        with np.errstate(over="ignore"):   # squares past 1e308 are inf
            runs = kmeans_module._cells(xs, centroids)
        labels = kmeans_module._point_labels(x, xs, runs)
        expected = []
        for v in values:
            best, best_d = 0, math.inf
            for j, c in enumerate(centroids):
                d = (v - c) * (v - c)
                if d < best_d:
                    best, best_d = j, d
            expected.append(best)
        assert labels.tolist() == expected

    def test_identical_at_the_workload_shape(self):
        # the stat engine's call: one observable of a 2048-trajectory cut
        rng = np.random.default_rng(0)
        modes = rng.choice([1200.0, 1500.0, 2100.0, 2600.0], size=2048)
        values = np.round(rng.normal(modes, 90.0))
        self._assert_identical([[v] for v in values.tolist()], 4, 0)

    def test_identical_on_random_blobs_1d(self):
        rng = random.Random(3)
        points = blob([0.0], 30, 2.0, rng) + blob([50.0], 25, 3.0, rng)
        for seed in range(5):
            self._assert_identical(points, 2, seed)

    def test_identical_on_random_blobs_2d(self):
        # the stat engine clusters one observable of a multi-observable
        # cut: each coordinate column of 2-D blobs on its own
        rng = random.Random(4)
        points = (blob([0, 0], 20, 1.5, rng) + blob([10, 0], 20, 1.5, rng)
                  + blob([5, 9], 20, 1.5, rng))
        for column in zip(*points):
            for seed in range(5):
                for k in (1, 2, 3, 5):
                    self._assert_identical([[v] for v in column], k, seed)

    def test_identical_on_uniform_noise(self):
        rng = random.Random(5)
        values = [rng.uniform(0, 100) for _ in range(128)]
        for seed in range(4):
            self._assert_identical([[v] for v in values], 4, seed)

    def test_identical_with_identical_points(self):
        # degenerate seeding path (total distance 0 -> rng.randrange)
        points = [[7.0]] * 10
        self._assert_identical(points, 3, 0)

    def test_identical_with_duplicate_heavy_data(self):
        rng = random.Random(6)
        base = [[float(rng.randint(0, 3))] for _ in range(40)]
        for seed in range(4):
            self._assert_identical(base, 3, seed)

    def test_1d_flat_input_equals_tupled_input(self):
        values = [1.0, 2.0, 50.0, 51.0, 52.0, 0.5]
        flat = kmeans_array(values, 2, seed=0)
        tupled = kmeans_array([(v,) for v in values], 2, seed=0)
        assert flat.centroids == tupled.centroids
        assert flat.assignments == tupled.assignments

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN used to run 50 iterations to a NaN centroid that differed
        # from the scalar engine's
        with pytest.raises(ValueError, match="point 2 is not finite"):
            kmeans_array([1.0, 2.0, bad, 50.0, 51.0], 2)
        with pytest.raises(ValueError, match="point 1 is not finite"):
            kmeans_array([[0.0], [bad], [3.0]], 2)

    def test_k_clamped_and_validation(self):
        result = kmeans_array([[1.0], [2.0]], 5, seed=0)
        assert result.k == 2
        with pytest.raises(ValueError):
            kmeans_array([], 2)
        with pytest.raises(ValueError):
            kmeans_array([[1.0]], 0)
