"""Filters and oscillation mining."""

import math

import pytest

from repro.analysis.filters import moving_average
from repro.analysis.peaks import (
    ensemble_period,
    find_peaks,
    local_periods,
)


class TestMovingAverage:
    def test_constant_unchanged(self):
        assert moving_average([5.0] * 6, 3) == [5.0] * 6

    def test_width_one_identity(self):
        data = [1.0, 9.0, 2.0]
        assert moving_average(data, 1) == data

    def test_centred_window(self):
        out = moving_average([0.0, 3.0, 6.0], 3)
        assert out[1] == pytest.approx(3.0)

    def test_border_truncation(self):
        out = moving_average([0.0, 10.0], 5)
        assert out == [5.0, 5.0]

    def test_same_length(self):
        assert len(moving_average(list(range(17)), 4)) == 17

    def test_width_validation(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)


def sine(period, t_end, dt, phase=0.0, amplitude=1.0, offset=2.0):
    times = [i * dt for i in range(int(t_end / dt) + 1)]
    values = [offset + amplitude * math.sin(
        2 * math.pi * (t / period + phase)) for t in times]
    return times, values


class TestPeaks:
    def test_clean_sine_peaks(self):
        times, values = sine(period=10.0, t_end=50.0, dt=0.1)
        peaks = find_peaks(times, values)
        peak_times = [times[i] for i in peaks]
        assert len(peak_times) == 5
        for i, t in enumerate(peak_times):
            assert t == pytest.approx(2.5 + 10.0 * i, abs=0.2)

    def test_prominence_filters_ripples(self):
        times, values = sine(period=10.0, t_end=30.0, dt=0.1)
        rippled = [v + 0.05 * math.sin(40 * t)
                   for t, v in zip(times, values)]
        noisy = find_peaks(times, rippled)
        clean = find_peaks(times, rippled, min_prominence=0.5)
        assert len(clean) < len(noisy)
        assert len(clean) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            find_peaks([1.0], [1.0, 2.0])

    def test_monotone_has_no_peaks(self):
        times = list(range(10))
        assert find_peaks(times, [float(t) for t in times]) == []


class TestPeriods:
    def test_local_periods_of_sine(self):
        times, values = sine(period=7.5, t_end=60.0, dt=0.05)
        for _mid, period in local_periods(times, values):
            assert period == pytest.approx(7.5, abs=0.1)

    def test_estimate_period(self):
        times, values = sine(period=21.5, t_end=200.0, dt=0.25)
        estimate = ensemble_period([(times, values)])
        assert estimate.mean == pytest.approx(21.5, abs=0.3)
        assert estimate.n_periods >= 7

    def test_discard_transient(self):
        times, values = sine(period=10.0, t_end=100.0, dt=0.1)
        full = ensemble_period([(times, values)])
        late = ensemble_period([(times, values)], discard_transient=50.0)
        assert late.n_periods < full.n_periods

    def test_ensemble_pools_trajectories(self):
        series = [sine(period=10.0, t_end=60.0, dt=0.1, phase=p)
                  for p in (0.0, 0.3, 0.7)]
        estimate = ensemble_period(series)
        assert estimate.mean == pytest.approx(10.0, abs=0.1)
        single = ensemble_period(series[:1])
        assert estimate.n_periods > single.n_periods
