"""k-means clustering of trajectories (the ``k-means`` stat engine).

Clustering the per-cut (or per-window) trajectory values discovers
multi-stable behaviour on-line: for a bistable system the cuts separate
into two clusters long before a human would spot it in raw traces.

:func:`kmeans_array` is Lloyd's algorithm with k-means++ seeding,
vectorised over NumPy (``k`` distance rows, first-minimum assignment,
``bincount`` centroid updates).  It consumes the RNG and accumulates
floating point in the same order as the list-based ``kmeans`` it
replaced (the test oracle in ``tests/oracles/analysis.py``), so results
are **bit-identical** to it for a fixed seed (pinned by a property
test).  It rejects non-finite input, on which "nearest" is not defined.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np


@dataclass
class KMeansResult:
    centroids: list[list[float]]
    assignments: list[int]
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        return len(self.centroids)

    def cluster_sizes(self) -> list[int]:
        sizes = [0] * len(self.centroids)
        for a in self.assignments:
            sizes[a] += 1
        return sizes


def _sq_distance_rows(columns: np.ndarray, centroids: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """``out[j, i]`` = squared distance of point ``i`` to ``centroids[j]``
    for ``columns`` of shape ``(dims, n)``.  Dimensions are added one at a
    time like the oracle's ``sum``; starting from the first square rather
    than from zero is exact because ``0.0 + x == x`` for ``x >= 0``.
    Row by row, because a ``(k, 1)`` broadcast is about twice as slow."""
    for row, centroid in zip(out, centroids.tolist()):
        np.subtract(columns[0], centroid[0], out=row)
        np.multiply(row, row, out=row)
        for column, c in zip(columns[1:], centroid[1:]):
            diff = column - c
            row += diff * diff
    return out


def kmeans_array(points, k: int, max_iterations: int = 50,
                 seed: int | None = 0,
                 tolerance: float = 1e-9) -> KMeansResult:
    """Lloyd's algorithm; deterministic for a fixed ``seed``.

    ``points`` is array-like ``(n, dims)`` (1-D input is treated as
    ``(n, 1)``); ``k`` is clamped to the number of points.  Assignment
    is the first minimum over ``k`` preallocated distance rows; centroid
    updates are per-dimension ``bincount`` reductions, which add members
    in point order exactly like a scalar loop.  Raises on empty or
    non-finite input.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, dims = pts.shape
    if n == 0:
        raise ValueError("kmeans needs at least one point")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"point {bad} is not finite: {pts[bad].tolist()}")
    k = min(k, n)
    columns = np.ascontiguousarray(pts.T)
    dist = np.empty((k, n))
    rng = random.Random(seed)

    # k-means++ seeding, RNG calls and sums as in the oracle's
    centroids = np.empty((k, dims))
    centroids[0] = pts[rng.randrange(n)]
    for j in range(1, k):
        row = _sq_distance_rows(columns, centroids[j - 1:j],
                                dist[j - 1:j])[0]
        dmin = row if j == 1 else np.minimum(dmin, row)
        cumulative = np.cumsum(dmin)
        total = float(cumulative[-1])
        if total <= 0.0:
            centroids[j] = pts[rng.randrange(n)]
            continue
        pick = rng.random() * total
        idx = int(np.searchsorted(cumulative, pick, side="right"))
        centroids[j] = pts[min(idx, n - 1)]  # fp tail: the oracle's for-else

    assignments = np.zeros(n, dtype=np.intp)
    best = np.empty(n)
    sums = np.empty((k, dims))
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        _sq_distance_rows(columns, centroids, dist)
        # first minimum, like argmin and the oracle's strict `<`: a point's
        # centroid index is the number of leading rows that miss `best`
        np.minimum.reduce(dist, axis=0, out=best)
        missed = dist[0] != best
        new_assignments = missed.astype(np.intp)
        for j in range(1, k - 1):
            missed &= dist[j] != best
            new_assignments += missed
        moved = not np.array_equal(new_assignments, assignments)
        assignments = new_assignments
        counts = np.bincount(assignments, minlength=k)
        for d, column in enumerate(columns):
            sums[:, d] = np.bincount(assignments, weights=column,
                                     minlength=k)
        new_centroids = sums / np.maximum(counts, 1)[:, None]
        if not counts.all():
            # re-seed at the point farthest from its assigned centroid
            new_centroids[counts == 0] = pts[int(np.argmax(best))]
        converged = False
        if not moved:
            # the shift only decides convergence; summed per centroid
            # with sum() like the oracle, then across centroids
            shift = 0.0
            for squares in ((new_centroids - centroids) ** 2).tolist():
                shift += sum(squares)
            converged = shift <= tolerance
        centroids = new_centroids
        if converged:
            break
    _sq_distance_rows(columns, centroids, dist)
    # cumsum accumulates left-to-right like the builtin sum
    inertia = float(np.cumsum(dist[assignments, np.arange(n)])[-1])
    return KMeansResult(centroids=centroids.tolist(),
                        assignments=assignments.tolist(),
                        inertia=inertia, iterations=iterations)
