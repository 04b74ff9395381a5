"""Statistical engines: the workers of the analysis farm (``stat eng``).

Each engine receives a :class:`~repro.analysis.windows.Window` and runs
the configured analyses over it: per-cut mean/variance/min/max/median,
optional k-means clustering of the trajectories (on the window's last
cut), and optional smoothing of the window mean.  Results are gathered,
re-ordered by window index (the farm runs *ordered*) and streamed toward
the user interface / storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.analysis.filters import moving_average
from repro.analysis.histogram import Histogram, histogram
from repro.analysis.kmeans import KMeansResult, kmeans_array
from repro.analysis.stats import (CutStatistics, ci_half_width,
                                  sample_variance)
from repro.analysis.windows import Window
from repro.ff.node import Node


@dataclass
class WindowStatistics:
    """Everything one stat engine mined out of one window."""

    window_index: int
    start_time: float
    end_time: float
    #: per-cut summary, in grid order
    cuts: list[CutStatistics]
    #: k-means of trajectories at the window's last cut (one per
    #: observable), when clustering is enabled
    clusters: dict[int, KMeansResult] = field(default_factory=dict)
    #: smoothed window mean per observable, when filtering is enabled
    filtered_mean: dict[int, list[float]] = field(default_factory=dict)
    #: per-observable population histogram at the window's last cut,
    #: when histogramming is enabled
    histograms: dict[int, Histogram] = field(default_factory=dict)
    #: per-observable half-width of the ``ci_confidence`` confidence
    #: interval on the ensemble mean over this window.  Each trajectory
    #: contributes its window-average as one independent sample (cuts
    #: *within* a trajectory are autocorrelated, trajectories are not),
    #: so the half-width is ``z * sqrt(var_across_trajectories / n)`` --
    #: the signal the adaptive convergence-stop policy consumes.  0 for
    #: a single-trajectory fleet, per the Welford variance convention.
    ci_half_width: tuple[float, ...] = ()
    #: per-observable ensemble mean of the per-trajectory window
    #: averages (the point estimate ``ci_half_width`` brackets)
    window_mean: tuple[float, ...] = ()
    ci_confidence: float = 0.95

    def mean_series(self, observable: int) -> list[float]:
        return [c.mean[observable] for c in self.cuts]

    def ci_relative(self, observable: int, floor: float = 1e-12) -> float:
        """``ci_half_width`` over ``|window_mean|`` for one observable
        (NaN-free: means below ``floor`` in magnitude use the floor)."""
        hw = self.ci_half_width[observable]
        mean = self.window_mean[observable]
        return hw / max(abs(mean), floor)


class StatEngineNode(Node):
    """Analysis-farm worker; see module docstring.

    ``kmeans_k`` enables trajectory clustering (``None`` disables);
    ``filter_width`` enables moving-average smoothing of the window mean.

    Per-cut statistics are the window's ``cut_stats`` (computed once per
    cut by the sliding window, shared by every overlapping window); the
    confidence interval, clustering (:func:`kmeans_array`) and
    histograms read the window's ``data`` array.
    """

    def __init__(self, kmeans_k: Optional[int] = None,
                 filter_width: Optional[int] = None,
                 histogram_bins: Optional[int] = None,
                 kmeans_seed: int = 0,
                 confidence: float = 0.95,
                 name: str = "stat-eng"):
        super().__init__(name=name)
        if kmeans_k is not None and kmeans_k < 1:
            raise ValueError(f"kmeans_k must be >= 1, got {kmeans_k}")
        if histogram_bins is not None and histogram_bins < 1:
            raise ValueError(
                f"histogram_bins must be >= 1, got {histogram_bins}")
        if not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}")
        self.kmeans_k = kmeans_k
        self.filter_width = filter_width
        self.histogram_bins = histogram_bins
        self.kmeans_seed = kmeans_seed
        self.confidence = confidence
        self.windows_processed = 0

    def svc_init(self) -> None:
        self.windows_processed = 0

    def _window_ci(self, window: Window
                   ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """``(window_mean, ci_half_width)`` per observable; see the
        :class:`WindowStatistics` field docs for the estimator."""
        traj_means = window.data.mean(axis=0)        # (n_traj, n_obs)
        n_traj = traj_means.shape[0]
        variances = sample_variance(traj_means, axis=0)
        means = traj_means.mean(axis=0)
        return (tuple(means.tolist()),
                tuple(ci_half_width(float(v), n_traj, self.confidence)
                      for v in variances.tolist()))

    def svc(self, window: Window) -> WindowStatistics:
        stats = list(window.cut_stats)
        window_mean, half_width = self._window_ci(window)
        result = WindowStatistics(
            window_index=window.index,
            start_time=window.start_time,
            end_time=window.end_time,
            cuts=stats,
            ci_half_width=half_width,
            window_mean=window_mean,
            ci_confidence=self.confidence)
        n_observables = len(stats[0].mean) if stats else 0
        if self.kmeans_k is not None and stats:
            # the clock is read only for a traced run
            started = perf_counter() if self._tracer is not None else None
            for obs in range(n_observables):
                clustered = kmeans_array(
                    window.data[-1, :, obs], self.kmeans_k,
                    seed=self.kmeans_seed)
                result.clusters[obs] = clustered
                self.trace_incr("analysis.kmeans_iterations",
                                clustered.iterations)
            if started is not None:
                self.trace_incr("analysis.kmeans_s",
                                perf_counter() - started)
        if self.filter_width is not None:
            for obs in range(n_observables):
                result.filtered_mean[obs] = moving_average(
                    result.mean_series(obs), self.filter_width)
        if self.histogram_bins is not None and stats:
            for obs in range(n_observables):
                result.histograms[obs] = histogram(
                    window.data[-1, :, obs], n_bins=self.histogram_bins)
        self.windows_processed += 1
        return result


class GatherNode(Node):
    """Analysis-farm collector: counts and forwards results (re-ordering
    is done by the ordered farm's reorder buffer before this node runs).
    Keeps the latest result available for a steering front-end."""

    def __init__(self, name: str = "gather"):
        super().__init__(name=name)
        self.results_gathered = 0
        self.latest: Optional[WindowStatistics] = None

    def svc_init(self) -> None:
        self.results_gathered = 0
        self.latest = None

    def svc(self, stats: WindowStatistics) -> WindowStatistics:
        self.results_gathered += 1
        self.latest = stats
        return stats
