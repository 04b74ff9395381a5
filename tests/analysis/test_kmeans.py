"""k-means clustering."""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
def kmeans_cases(draw):
    dims = draw(st.integers(1, 3))
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
        @given(case=kmeans_cases())
        # a cluster empties mid-run, away from every point (random search
        # finds this in about one case in 7 000)
        @example(case=(EMPTIED_MID_RUN, 8, 900))
        def check(case):
            points, k, seed = case
            self._assert_identical(points, k, seed)

        check()
        assert reseeds, "no example emptied a cluster"

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
        rng = random.Random(4)
        points = (blob([0, 0], 20, 1.5, rng) + blob([10, 0], 20, 1.5, rng)
                  + blob([5, 9], 20, 1.5, rng))
        for seed in range(5):
            for k in (1, 2, 3, 5):
                self._assert_identical(points, k, seed)

    def test_identical_on_uniform_noise(self):
        rng = random.Random(5)
        points = [[rng.uniform(0, 100), rng.uniform(0, 100)]
                  for _ in range(64)]
        for seed in range(4):
            self._assert_identical(points, 4, seed)

    def test_identical_with_identical_points(self):
        # degenerate seeding path (total distance 0 -> rng.randrange)
        points = [[7.0, 7.0]] * 10
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
            kmeans_array([[0.0, 1.0], [2.0, bad], [bad, 3.0]], 2)

    def test_k_clamped_and_validation(self):
        result = kmeans_array([[1.0], [2.0]], 5, seed=0)
        assert result.k == 2
        with pytest.raises(ValueError):
            kmeans_array([], 2)
        with pytest.raises(ValueError):
            kmeans_array([[1.0]], 0)
