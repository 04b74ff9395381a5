"""The scalar analysis plane, frozen as the columnar plane's oracle.

:class:`ScalarTrajectoryAligner` -> :class:`ScalarSlidingWindowNode` ->
:class:`ScalarStatEngineNode` is the chain the runtime ran before it
went columnar: a dict-of-tuples aligner emitting one
:class:`~repro.sim.trajectory.Cut` per grid point and accepting results
in any order, a windower over Python lists of cuts (:class:`CutWindow`),
and a stat engine that summarises each cut with
:func:`~repro.analysis.stats.cut_statistics`, averages each trajectory
with ``math.fsum`` into an :class:`~repro.analysis.stats.OnlineStats`,
and clusters and bins ``cut.observable`` lists with the list-based
:func:`kmeans`.  ``TrajectoryAligner``, ``SlidingWindowNode``,
``StatEngineNode`` and ``kmeans_array`` are checked against this copy,
which they do not share.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from repro.analysis.engines import WindowStatistics
from repro.analysis.filters import moving_average
from repro.analysis.histogram import histogram
from repro.analysis.kmeans import KMeansResult
from repro.analysis.stats import OnlineStats, ci_half_width, cut_statistics
from repro.ff.node import GO_ON, Node
from repro.sim.alignment import _check_ids
from repro.sim.task import ResultBlock
from repro.sim.trajectory import Cut, CutBlock


class ScalarTrajectoryAligner(Node):
    """Reference collector emitting one :class:`Cut` per grid point.

    The pre-columnar implementation, kept as the oracle the equivalence
    tests (and the analysis-throughput benchmark baseline) compare
    :class:`TrajectoryAligner` against.  It reads a block member by
    member and sample by sample, and accepts results in any order.
    """

    def __init__(self, n_trajectories: int, name: str = "align"):
        super().__init__(name=name)
        if n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        self.n_trajectories = n_trajectories
        # grid index -> {task_id: values}; times recorded separately
        self._pending: dict[int, dict[int, tuple[float, ...]]] = {}
        self._times: dict[int, float] = {}
        self._next_emit = 0
        self.cuts_emitted = 0
        self.max_buffered = 0

    def svc_init(self) -> None:
        self._pending.clear()
        self._times.clear()
        self._next_emit = 0
        self.cuts_emitted = 0
        self.max_buffered = 0

    def svc(self, block: ResultBlock):
        try:
            ids = _check_ids(block, self.n_trajectories)
            times = block._times.tolist()
            for task_id, rows in zip(ids, block._values.tolist()):
                for k, (time, values) in enumerate(zip(times, rows)):
                    grid_index = block.grid_start + k
                    if grid_index < self._next_emit:
                        raise ValueError(
                            f"task {task_id} re-reported grid point "
                            f"{grid_index} (already emitted)")
                    column = self._pending.setdefault(grid_index, {})
                    if task_id in column:
                        raise ValueError(
                            f"task {task_id} reported grid point "
                            f"{grid_index} twice")
                    column[task_id] = tuple(values)
                    self._times[grid_index] = time
        finally:
            if isinstance(block, ResultBlock):
                block.release()
        self.max_buffered = max(self.max_buffered, len(self._pending))
        self._emit_ready()
        return GO_ON

    def _emit_ready(self) -> None:
        while True:
            column = self._pending.get(self._next_emit)
            if column is None or len(column) < self.n_trajectories:
                return
            time = self._times.pop(self._next_emit)
            del self._pending[self._next_emit]
            values = [column[task_id]
                      for task_id in range(self.n_trajectories)]
            self.ff_send_out(Cut(grid_index=self._next_emit, time=time,
                                 values=values))
            self.cuts_emitted += 1
            self.trace_incr("align.cuts", 1)
            self._next_emit += 1

    def svc_end(self) -> None:
        self._pending.clear()
        self._times.clear()


class CutWindow:
    """``size`` consecutive cuts as a Python list; ``index`` counts
    emitted windows.  ``times`` / ``grid_indices`` / ``data`` are the
    columnar window's arrays, stacked from the cuts."""

    def __init__(self, index: int, cuts: Sequence[Cut]):
        self.index = index
        self.cuts = list(cuts)
        self.times = np.array([c.time for c in self.cuts], dtype=float)
        self.grid_indices = np.array(
            [c.grid_index for c in self.cuts], dtype=np.int64)
        self.data = (np.stack([c.data for c in self.cuts])
                     if self.cuts else np.empty((0, 0, 0)))

    @property
    def start_time(self) -> float:
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.cuts)


class ScalarSlidingWindowNode(Node):
    """Reference windower over Python lists of cuts (the oracle).

    Mirrors :class:`SlidingWindowNode`'s observable behaviour on a plain
    list buffer; a slide is a single slice deletion (the historical
    one-``popleft``-per-slide loop was O(slide) per emission).
    """

    def __init__(self, size: int, slide: int | None = None,
                 emit_partial_tail: bool = True, name: str = "windows"):
        super().__init__(name=name)
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = size
        self.slide = slide if slide is not None else size
        if self.slide < 1 or self.slide > size:
            raise ValueError(
                f"slide must be in [1, size], got {self.slide}")
        self.emit_partial_tail = emit_partial_tail
        self._buffer: list[Cut] = []
        self._emitted = 0

    def svc_init(self) -> None:
        self._buffer = []
        self._emitted = 0

    def svc(self, item):
        if isinstance(item, CutBlock):
            incoming = list(item)
        elif isinstance(item, Cut):
            incoming = [item]
        else:
            raise TypeError(
                f"window node received {type(item).__name__}, "
                "expected Cut or CutBlock")
        for cut in incoming:
            self._buffer.append(cut)
            if len(self._buffer) == self.size:
                self.ff_send_out(CutWindow(self._emitted,
                                           list(self._buffer)))
                self._emitted += 1
                del self._buffer[:self.slide]  # one slice op per slide
        return GO_ON

    def svc_end(self) -> None:
        if (self.emit_partial_tail and self._buffer
                and (self._emitted == 0 or self.slide == self.size
                     or len(self._buffer) > self.size - self.slide)):
            self.ff_send_out(CutWindow(self._emitted, list(self._buffer)))
            self._emitted += 1
        self._buffer = []


def _sq_distance(a: Sequence[float], b: Sequence[float]) -> float:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def _seed_centroids(points: Sequence[Sequence[float]], k: int,
                    rng: random.Random) -> list[list[float]]:
    """k-means++ seeding."""
    centroids = [list(points[rng.randrange(len(points))])]
    while len(centroids) < k:
        distances = [
            min(_sq_distance(p, c) for c in centroids) for p in points]
        total = sum(distances)
        if total <= 0.0:
            # all points identical to some centroid: duplicate arbitrarily
            centroids.append(list(points[rng.randrange(len(points))]))
            continue
        pick = rng.random() * total
        acc = 0.0
        for point, d in zip(points, distances):
            acc += d
            if pick < acc:
                centroids.append(list(point))
                break
        else:
            centroids.append(list(points[-1]))
    return centroids


def kmeans(points: Sequence[Sequence[float]], k: int,
           max_iterations: int = 50, seed: int | None = 0,
           tolerance: float = 1e-9) -> KMeansResult:
    """Lloyd's algorithm; deterministic for a fixed ``seed``.

    ``k`` is clamped to the number of points.  Raises on empty or
    non-finite input.
    """
    if not points:
        raise ValueError("kmeans needs at least one point")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for i, point in enumerate(points):
        if not all(map(math.isfinite, point)):
            raise ValueError(f"point {i} is not finite: {list(point)}")
    k = min(k, len(points))
    rng = random.Random(seed)
    centroids = _seed_centroids(points, k, rng)
    assignments = [0] * len(points)
    best_ds = [0.0] * len(points)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        moved = False
        for i, point in enumerate(points):
            best, best_d = 0, math.inf
            for j, centroid in enumerate(centroids):
                d = _sq_distance(point, centroid)
                if d < best_d:
                    best, best_d = j, d
            best_ds[i] = best_d
            if assignments[i] != best:
                assignments[i] = best
                moved = True
        # recompute centroids
        dims = len(points[0])
        sums = [[0.0] * dims for _ in range(k)]
        counts = [0] * k
        for point, a in zip(points, assignments):
            counts[a] += 1
            for d in range(dims):
                sums[a][d] += point[d]
        shift = 0.0
        for j in range(k):
            if counts[j] == 0:
                # re-seed an empty cluster at the point farthest from its
                # assigned centroid, reusing the distances of the
                # assignment pass (no second distance scan)
                far_i = max(range(len(points)), key=lambda i: best_ds[i])
                new = list(points[far_i])
            else:
                new = [s / counts[j] for s in sums[j]]
            shift += _sq_distance(new, centroids[j])
            centroids[j] = new
        if not moved and shift <= tolerance:
            break
    inertia = sum(
        _sq_distance(point, centroids[a])
        for point, a in zip(points, assignments))
    return KMeansResult(centroids=centroids, assignments=assignments,
                        inertia=inertia, iterations=iterations)


class ScalarStatEngineNode(Node):
    """The stat engine's per-cut path over a :class:`CutWindow`.

    Per-cut statistics are one :func:`cut_statistics` per cut; the
    confidence interval pushes each trajectory's ``math.fsum`` window
    average into an :class:`OnlineStats`; k-means and histograms read
    the last cut's ``observable`` lists.
    """

    def __init__(self, kmeans_k: int | None = None,
                 filter_width: int | None = None,
                 histogram_bins: int | None = None,
                 kmeans_seed: int = 0, confidence: float = 0.95,
                 name: str = "stat-eng"):
        super().__init__(name=name)
        self.kmeans_k = kmeans_k
        self.filter_width = filter_width
        self.histogram_bins = histogram_bins
        self.kmeans_seed = kmeans_seed
        self.confidence = confidence

    def _window_ci(self, cuts: list[Cut]
                   ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        if not cuts or not cuts[0].values:
            return (), ()
        n_traj = len(cuts[0].values)
        n_obs = len(cuts[0].values[0])
        means, half_widths = [], []
        for obs in range(n_obs):
            acc = OnlineStats()
            for traj in range(n_traj):
                acc.push(math.fsum(cut.values[traj][obs] for cut in cuts)
                         / len(cuts))
            means.append(acc.mean)
            half_widths.append(
                ci_half_width(acc.variance, acc.n, self.confidence))
        return tuple(means), tuple(half_widths)

    def svc(self, window: CutWindow) -> WindowStatistics:
        stats = [cut_statistics(cut) for cut in window.cuts]
        window_mean, half_width = self._window_ci(window.cuts)
        result = WindowStatistics(
            window_index=window.index,
            start_time=window.start_time,
            end_time=window.end_time,
            cuts=stats,
            ci_half_width=half_width,
            window_mean=window_mean,
            ci_confidence=self.confidence)
        n_observables = len(stats[0].mean) if stats else 0
        last = window.cuts[-1]
        if self.kmeans_k is not None and stats:
            for obs in range(n_observables):
                points = [(v,) for v in last.observable(obs)]
                result.clusters[obs] = kmeans(
                    points, self.kmeans_k, seed=self.kmeans_seed)
        if self.filter_width is not None:
            for obs in range(n_observables):
                result.filtered_mean[obs] = moving_average(
                    result.mean_series(obs), self.filter_width)
        if self.histogram_bins is not None and stats:
            for obs in range(n_observables):
                result.histograms[obs] = histogram(
                    last.observable(obs), n_bins=self.histogram_bins)
        return result
