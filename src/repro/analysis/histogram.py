"""Histograms of molecular populations across the sampled realisations.

StochSimGPU (related work the paper cites) "allows computation of
averages and histograms of the molecular populations across the sampled
realisations"; the same capability plugs into our statistical-engine farm
as an optional per-window analysis: the distribution of each observable
over trajectories at the window's last cut, which is how multimodality
shows up without committing to a cluster count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass
class Histogram:
    """Fixed-width binning of one observable across trajectories."""

    low: float
    high: float
    counts: list[int]

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def bin_edges(self) -> list[float]:
        width = (self.high - self.low) / self.n_bins
        return [self.low + i * width for i in range(self.n_bins + 1)]

    def bin_centers(self) -> list[float]:
        edges = self.bin_edges()
        return [(a + b) / 2 for a, b in zip(edges, edges[1:])]

    def mode_bins(self, threshold_fraction: float = 0.1) -> list[int]:
        """Indices of local maxima holding at least ``threshold_fraction``
        of the samples -- a quick multimodality detector."""
        threshold = max(1, int(self.total * threshold_fraction))
        modes = []
        for i, count in enumerate(self.counts):
            left = self.counts[i - 1] if i > 0 else -1
            right = self.counts[i + 1] if i < self.n_bins - 1 else -1
            if count >= threshold and count > left and count >= right:
                modes.append(i)
        return modes


def histogram(values: Sequence[float], n_bins: int = 20,
              low: Optional[float] = None,
              high: Optional[float] = None) -> Histogram:
    """Bin ``values`` into ``n_bins`` equal-width bins.

    The range defaults to the data range (widened to a unit span for
    degenerate data so every value lands in a valid bin).  Raises on
    non-finite values, which have no bin.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if len(values) == 0:
        raise ValueError("cannot histogram an empty sample")
    sample = np.asarray(values, dtype=float)
    finite = np.isfinite(sample)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"value {bad} is not finite: {sample[bad]}")
    lo = float(sample.min()) if low is None else low
    hi = float(sample.max()) if high is None else high
    if hi <= lo:
        hi = lo + 1.0
    width = (hi - lo) / n_bins
    # truncation toward zero matches the scalar int() cast; out-of-range
    # values are clamped into the edge bins exactly as before
    indices = ((sample - lo) / width).astype(np.int64)
    np.clip(indices, 0, n_bins - 1, out=indices)
    counts = np.bincount(indices, minlength=n_bins)
    return Histogram(low=lo, high=hi, counts=counts.tolist())
