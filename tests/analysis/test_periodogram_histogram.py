"""Population histograms."""

import math

import pytest

from repro.analysis.histogram import histogram


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
