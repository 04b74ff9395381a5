"""Oscillation mining: peak detection and local-period estimation.

The paper's cloud experiment (Section V-B) "compute[s] the period of each
oscillation and plot[s] the moving average of more than 200 simulations of
the local period".  These helpers implement that measurement for the
Neurospora circadian model: smooth a trajectory, find its peaks, convert
consecutive peak distances into *local periods*, and average across
simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.filters import moving_average_array
from repro.analysis.stats import OnlineStats


def find_peaks(times: Sequence[float], values: Sequence[float],
               min_prominence: float = 0.0,
               smooth_width: int = 1) -> list[int]:
    """Indices of local maxima, optionally on a smoothed copy.

    ``min_prominence`` filters out ripples: a peak must rise at least that
    much above the highest of the two valley minima flanking it.
    Candidate detection is one vectorised comparison; the prominence
    check runs per candidate (candidates are few).
    """
    if len(times) != len(values):
        raise ValueError("times and values must have the same length")
    series = (moving_average_array(values, smooth_width)
              if smooth_width > 1 else np.asarray(values, dtype=float))
    n = len(series)
    if n < 3:
        return []
    inner = series[1:-1]
    candidates = (np.nonzero((series[:-2] < inner)
                             & (inner >= series[2:]))[0] + 1).tolist()
    if min_prominence <= 0.0:
        return candidates
    peaks = []
    for i in candidates:
        left_min = series[_prev_higher(series, i):i + 1].min()
        right_min = series[i:_next_higher(series, i) + 1].min()
        prominence = series[i] - max(left_min, right_min)
        if prominence >= min_prominence:
            peaks.append(i)
    return peaks


def _prev_higher(series: np.ndarray, i: int) -> int:
    higher = np.nonzero(series[:i] > series[i])[0]
    return int(higher[-1]) if len(higher) else 0


def _next_higher(series: np.ndarray, i: int) -> int:
    higher = np.nonzero(series[i + 1:] > series[i])[0]
    return int(higher[0]) + i + 1 if len(higher) else len(series) - 1


def local_periods(times: Sequence[float], values: Sequence[float],
                  min_prominence: float = 0.0,
                  smooth_width: int = 1) -> list[tuple[float, float]]:
    """``(mid_time, period)`` for every pair of consecutive peaks."""
    peaks = find_peaks(times, values, min_prominence=min_prominence,
                       smooth_width=smooth_width)
    out = []
    for a, b in zip(peaks, peaks[1:]):
        out.append(((times[a] + times[b]) / 2.0, times[b] - times[a]))
    return out


@dataclass
class PeriodEstimate:
    mean: float
    std: float
    n_periods: int


def ensemble_period(trajectories: Sequence[tuple[Sequence[float], Sequence[float]]],
                    min_prominence: float = 0.0,
                    smooth_width: int = 1,
                    discard_transient: float = 0.0) -> PeriodEstimate:
    """Moving-average-style ensemble estimate over many simulations: pool
    every local period of every trajectory (the paper's >200-simulation
    moving average of the local period)."""
    acc = OnlineStats()
    count = 0
    for times, values in trajectories:
        for t, p in local_periods(times, values,
                                  min_prominence=min_prominence,
                                  smooth_width=smooth_width):
            if t >= discard_transient:
                acc.push(p)
                count += 1
    return PeriodEstimate(mean=acc.mean, std=acc.std, n_periods=count)
