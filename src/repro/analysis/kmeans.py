"""k-means clustering of trajectories (the ``k-means`` stat engine).

Clustering the per-cut (or per-window) trajectory values discovers
multi-stable behaviour on-line: for a bistable system the cuts separate
into two clusters long before a human would spot it in raw traces.

:func:`kmeans_array` is Lloyd's algorithm with k-means++ seeding over
one column of values, the only shape the stat engine clusters (one
observable at a window's last cut).  It consumes the RNG and rounds
every distance, sum and quotient exactly like the list-based ``kmeans``
it replaced (the test oracle in ``tests/oracles/analysis.py``), so
results are **bit-identical** to it for a fixed seed (pinned by a
property test).  It rejects non-finite input, on which "nearest" is not
defined, and more than one dimension.

Lloyd's loop runs on the column sorted once per call.  ``fl(x - c)`` is
monotone in ``x``, so a centroid's first-minimum cell is an interval of
the sorted points, and the cells follow the centroids' values.  Each
iteration finds the k - 1 cell boundaries by binary search at the
midpoints between neighbouring centroids and checks each with the
oracle's own ``(x - c) * (x - c)`` / strict ``<`` test (walking it when
the midpoint rounded the other way), then compares ``(start, label)``
runs instead of n labels.  This is exact only while neighbouring
centroids are far enough apart that rounding cannot tie two distances
away from the centroids' midpoint (gap >= 2**-48 of the largest
|x - c|); otherwise the iteration assigns with ``k`` dense distance rows
and an ``argmin`` instead.

Centroid sums are differences of prefix sums over the sorted column
when they are exact: integral values with ``n * max|x| < 2**53`` make
every partial sum an integer below 2**53, in any order.  Otherwise they
are ``bincount`` reductions in point order, which add members exactly
like the oracle's loop.
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


def _upper_takes(x: float, a: float, b: float, ties_up: bool) -> bool:
    """Whether ``x`` prefers centroid value ``b`` over ``a < b`` under
    the first-minimum rule (``ties_up``: ``b``'s index is the lower)."""
    da = (x - a) * (x - a)
    db = (x - b) * (x - b)
    return db <= da if ties_up else db < da


def _cells(xs: np.ndarray, centroids: list[float]) -> tuple[tuple, tuple]:
    """First-minimum assignment of the sorted column ``xs`` as runs: the
    ``(starts, labels)`` of each maximal run of sorted positions that
    share a centroid (a label is a function of the value, so equal values
    never straddle a run start)."""
    n = xs.shape[0]
    # distinct centroid values, each labelled with its lowest index
    # (equal centroids tie on every point, and the first one wins)
    vals: list[float] = []
    reps: list[int] = []
    for j in sorted(range(len(centroids)), key=centroids.__getitem__):
        if not vals or centroids[j] != vals[-1]:
            vals.append(centroids[j])
            reps.append(j)
    if len(vals) == 1:
        return (0,), (reps[0],)
    bound = (max(abs(xs.item(0)), abs(xs.item(-1)))
             + max(abs(vals[0]), abs(vals[-1])))
    gap = min(b - a for a, b in zip(vals, vals[1:]))
    if bound > 2.0 ** 300 or gap < max(bound * 2.0 ** -48, 2.0 ** -300):
        # rounding may tie far-apart distances: cells need not be
        # intervals, so take the first minimum of every point
        diff = xs - np.asarray(centroids)[:, None]
        labels = (diff * diff).argmin(axis=0)
        starts = np.flatnonzero(labels[1:] != labels[:-1]) + 1
        starts = np.concatenate(([0], starts))
        return tuple(starts.tolist()), tuple(labels[starts].tolist())
    guesses = xs.searchsorted(
        [(a + b) * 0.5 for a, b in zip(vals, vals[1:])]).tolist()
    starts, labels = [], []
    lo = 0
    for t, p in enumerate(guesses):
        a, b = vals[t], vals[t + 1]
        ties_up = reps[t + 1] < reps[t]
        p = max(p, lo)
        # walk a boundary the midpoint rounded to the wrong side
        while p < n and not _upper_takes(xs.item(p), a, b, ties_up):
            p = int(xs.searchsorted(xs[p], side="right"))
        while p > lo and _upper_takes(xs.item(p - 1), a, b, ties_up):
            p = int(xs.searchsorted(xs[p - 1], side="left"))
        if p > lo:
            starts.append(lo)
            labels.append(reps[t])
        lo = p
    if lo < n:
        starts.append(lo)
        labels.append(reps[-1])
    return tuple(starts), tuple(labels)


def _point_labels(x: np.ndarray, xs: np.ndarray,
                  runs: tuple[tuple, tuple]) -> np.ndarray:
    """Each point's label, in point order, from the sorted runs."""
    starts, labels = runs
    run = np.searchsorted(xs[list(starts[1:])], x, side="right")
    return np.asarray(labels, dtype=np.intp)[run]


def kmeans_array(points, k: int, max_iterations: int = 50,
                 seed: int | None = 0,
                 tolerance: float = 1e-9) -> KMeansResult:
    """Lloyd's algorithm on one column; deterministic for a fixed ``seed``.

    ``points`` is array-like ``(n,)`` or ``(n, 1)``; ``k`` is clamped to
    the number of points.  Raises on empty, non-finite or
    multi-dimensional input.  See the module docstring for the sorted
    assignment and the exact centroid sums.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 2 and x.shape[1] == 1:
        x = x[:, 0]
    if x.ndim != 1:
        raise ValueError(
            f"kmeans_array clusters one column, got shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise ValueError("kmeans needs at least one point")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    finite = np.isfinite(x)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"point {bad} is not finite: [{x[bad]}]")
    k = min(k, n)
    rng = random.Random(seed)

    # k-means++ seeding, RNG calls and sums as in the oracle's
    seeds = np.empty(k)
    seeds[0] = x[rng.randrange(n)]
    for j in range(1, k):
        row = x - seeds[j - 1]
        row *= row
        dmin = row if j == 1 else np.minimum(dmin, row)
        cumulative = np.cumsum(dmin)
        total = float(cumulative[-1])
        if total <= 0.0:
            seeds[j] = x[rng.randrange(n)]
            continue
        pick = rng.random() * total
        idx = int(np.searchsorted(cumulative, pick, side="right"))
        seeds[j] = x[min(idx, n - 1)]  # fp tail: the oracle's for-else

    xs = np.sort(x)
    exact = (bool((np.floor(xs) == xs).all())
             and n * max(-xs.item(0), xs.item(-1)) < 2.0 ** 53)
    if exact:
        # prefix[i] is the sum of the i smallest values
        prefix = np.concatenate(([0.0], xs)).cumsum()
    centroids = seeds.tolist()
    runs = ((0,), (0,))   # the oracle starts with every point in cluster 0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_runs = _cells(xs, centroids)
        moved = new_runs != runs
        runs = new_runs
        labels = None
        counts = [0] * k
        sums = [0.0] * k
        ends = runs[0][1:] + (n,)
        for start, end, label in zip(runs[0], ends, runs[1]):
            counts[label] += end - start
            if exact:
                sums[label] += prefix.item(end) - prefix.item(start)
        if not exact:
            labels = _point_labels(x, xs, runs)
            sums = np.bincount(labels, weights=x, minlength=k).tolist()
        if 0 in counts:
            # re-seed at the point farthest from its assigned centroid
            if labels is None:
                labels = _point_labels(x, xs, runs)
            diff = x - np.asarray(centroids)[labels]
            far = float(x[int(np.argmax(diff * diff))])
        new_centroids = [s / c if c else far for s, c in zip(sums, counts)]
        converged = False
        if not moved:
            # the shift only decides convergence; summed like the oracle's
            shift = 0.0
            for new, old in zip(new_centroids, centroids):
                shift += (new - old) * (new - old)
            converged = shift <= tolerance
        centroids = new_centroids
        if converged:
            break
    labels = _point_labels(x, xs, runs)
    diff = x - np.asarray(centroids)[labels]
    # cumsum accumulates left-to-right like the builtin sum
    inertia = float(np.cumsum(diff * diff)[-1])
    return KMeansResult(centroids=[[c] for c in centroids],
                        assignments=labels.tolist(),
                        inertia=inertia, iterations=iterations)
