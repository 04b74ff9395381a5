"""Autocorrelation period mining and population histograms."""

import math

import pytest

from repro.analysis.histogram import histogram
from repro.analysis.periodogram import (
    autocorrelation,
    period_by_autocorrelation,
)


def sine(period, t_end, dt, noise=0.0, seed=0):
    import random
    rng = random.Random(seed)
    times = [i * dt for i in range(int(t_end / dt) + 1)]
    values = [math.sin(2 * math.pi * t / period)
              + (rng.gauss(0, noise) if noise else 0.0) for t in times]
    return times, values


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        assert autocorrelation([1.0, 5.0, 2.0])[0] == 1.0

    def test_constant_series(self):
        acf = autocorrelation([3.0] * 10)
        assert acf[0] == 1.0
        assert all(v == 0.0 for v in acf[1:])

    def test_alternating_series(self):
        acf = autocorrelation([1.0, -1.0] * 20, max_lag=4)
        assert acf[1] == pytest.approx(-0.975, abs=0.05)
        assert acf[2] == pytest.approx(0.95, abs=0.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation([])

    def test_sine_acf_peaks_at_period(self):
        times, values = sine(10.0, 200.0, 0.5)
        acf = autocorrelation(values)
        lag_of_period = 20  # 10.0 / 0.5
        assert acf[lag_of_period] > 0.9


class TestPeriodByAcf:
    def test_clean_sine(self):
        times, values = sine(21.5, 120.0, 0.25)
        result = period_by_autocorrelation(times, values, min_period=5.0)
        assert result is not None
        assert result.period == pytest.approx(21.5, abs=0.3)

    def test_robust_to_noise(self):
        times, values = sine(10.0, 100.0, 0.25, noise=0.5, seed=4)
        result = period_by_autocorrelation(times, values, min_period=3.0)
        assert result is not None
        assert result.period == pytest.approx(10.0, abs=1.0)

    def test_no_oscillation_returns_none(self):
        import random
        rng = random.Random(0)
        times = [i * 0.5 for i in range(100)]
        values = [rng.gauss(0, 1) for _ in times]
        result = period_by_autocorrelation(times, values, min_period=5.0)
        # white noise: either None or a weak spurious peak
        assert result is None or result.acf_value < 0.5

    def test_agrees_with_peak_counting_on_neurospora(self, neurospora_small):
        """Two independent period estimators must agree on the real
        stochastic circadian trajectory."""
        from repro.analysis.peaks import estimate_period
        from repro.cwc.network import FlatSimulator
        result = FlatSimulator(neurospora_small, seed=6).run(96.0, 0.5)
        m = result.column("M")
        by_acf = period_by_autocorrelation(result.times, m, min_period=10.0)
        by_peaks = estimate_period(result.times, m, smooth_width=5,
                                   min_prominence=4.0)
        assert by_acf is not None
        assert by_acf.period == pytest.approx(by_peaks.mean, rel=0.2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            period_by_autocorrelation([1.0], [1.0, 2.0])

    def test_too_short_returns_none(self):
        assert period_by_autocorrelation([0.0, 1.0], [1.0, 2.0]) is None


class TestHistogram:
    def test_counts_and_range(self):
        h = histogram([0.0, 1.0, 2.0, 3.0, 4.0], n_bins=5)
        assert h.counts == [1, 1, 1, 1, 1]
        assert h.total == 5
        assert h.low == 0.0 and h.high == 4.0

    def test_out_of_range_clamped(self):
        h = histogram([5.0, 15.0], n_bins=2, low=0.0, high=10.0)
        assert sum(h.counts) == 2

    def test_degenerate_data(self):
        h = histogram([7.0, 7.0, 7.0], n_bins=4)
        assert h.total == 3

    def test_bin_edges_and_centers(self):
        h = histogram([0.0, 10.0], n_bins=2)
        assert h.bin_edges() == [0.0, 5.0, 10.0]
        assert h.bin_centers() == [2.5, 7.5]

    def test_mode_detection_bimodal(self):
        data = [1.0] * 20 + [9.0] * 15
        h = histogram(data, n_bins=10, low=0.0, high=10.0)
        assert len(h.mode_bins()) == 2

    def test_mode_detection_unimodal(self):
        import random
        rng = random.Random(1)
        data = [rng.gauss(5, 1) for _ in range(200)]
        h = histogram(data, n_bins=10, low=0.0, high=10.0)
        assert len(h.mode_bins(threshold_fraction=0.15)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([], n_bins=3)
        with pytest.raises(ValueError):
            histogram([1.0], n_bins=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN used to reach the int cast (RuntimeWarning, garbage bin)
        with pytest.raises(ValueError, match="value 2 is not finite"):
            histogram([1.0, 2.0, bad, 50.0, bad], n_bins=4, low=0.0,
                      high=60.0)


class TestHistogramInWorkflow:
    def test_stat_engine_produces_histograms(self, toggle_small):
        from repro.pipeline import WorkflowConfig, run_workflow
        cfg = WorkflowConfig(
            n_simulations=10, t_end=20.0, sample_every=1.0, quantum=5.0,
            n_sim_workers=3, window_size=21, histogram_bins=8, seed=2)
        result = run_workflow(toggle_small, cfg)
        final = result.windows[-1]
        assert set(final.histograms) == {0, 1}
        assert final.histograms[0].total == 10
