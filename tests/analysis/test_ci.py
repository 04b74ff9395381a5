"""Confidence-interval math: moment pooling, the inverse normal CDF,
per-window CI fields, and the single-trajectory variance regression."""

import math

import numpy as np
import pytest

from repro.analysis.engines import StatEngineNode
from repro.analysis.stats import (OnlineStats, block_statistics,
                                  ci_half_width, cut_statistics,
                                  normal_ppf, sample_variance)
from repro.analysis.windows import SlidingWindowNode
from repro.sim.trajectory import Cut, CutBlock
from repro.ff import Pipeline, run
from tests.oracles.analysis import (ScalarSlidingWindowNode,
                                    ScalarStatEngineNode)


class TestFromMoments:
    def test_roundtrip(self):
        data = [1.5, -2.0, 3.25, 0.5, 7.0]
        direct = OnlineStats().extend(data)
        rebuilt = OnlineStats.from_moments(
            direct.n, direct.mean, direct.variance, direct.min, direct.max)
        assert rebuilt.n == direct.n
        assert rebuilt.mean == pytest.approx(direct.mean, rel=1e-12)
        assert rebuilt.variance == pytest.approx(direct.variance, rel=1e-12)
        assert (rebuilt.min, rebuilt.max) == (direct.min, direct.max)

    def test_merge_of_moment_pools_matches_flat_welford(self):
        rng = np.random.default_rng(7)
        chunks = [rng.normal(size=n).tolist() for n in (5, 17, 1, 32)]
        pooled = OnlineStats()
        for chunk in chunks:
            summary = OnlineStats().extend(chunk)
            pooled.merge(OnlineStats.from_moments(
                summary.n, summary.mean, summary.variance,
                summary.min, summary.max))
        flat = OnlineStats().extend([x for c in chunks for x in c])
        assert pooled.n == flat.n
        assert pooled.mean == pytest.approx(flat.mean, rel=1e-12)
        assert pooled.variance == pytest.approx(flat.variance, rel=1e-10)

    def test_single_value_has_zero_variance(self):
        acc = OnlineStats.from_moments(1, 4.2, 0.0)
        assert acc.variance == 0.0

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            OnlineStats.from_moments(-1, 0.0, 0.0)


class TestNormalPpf:
    @pytest.mark.parametrize("p,z", [
        (0.5, 0.0),
        (0.975, 1.959963985),
        (0.995, 2.575829304),
        (0.84134474, 1.0),
    ])
    def test_known_quantiles(self, p, z):
        assert normal_ppf(p) == pytest.approx(z, abs=1e-6)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.45):
            assert normal_ppf(p) == pytest.approx(-normal_ppf(1 - p),
                                                  rel=1e-9)

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                normal_ppf(p)


class TestCiHalfWidth:
    def test_matches_manual_formula(self):
        var, n = 4.0, 25
        expected = 1.959963985 * math.sqrt(var / n)
        assert ci_half_width(var, n) == pytest.approx(expected, rel=1e-6)

    def test_no_samples_is_nan_single_sample_is_zero(self):
        assert math.isnan(ci_half_width(0.0, 0))
        assert ci_half_width(0.0, 1) == 0.0

    def test_shrinks_with_sample_count(self):
        widths = [ci_half_width(1.0, n) for n in (4, 16, 64, 256)]
        assert widths == sorted(widths, reverse=True)
        assert widths[0] / widths[-1] == pytest.approx(8.0, rel=1e-9)


class TestSingleTrajectoryVarianceRegression:
    """The adaptive CI math divides by these variances: a single-trajectory
    fleet must report variance 0 (the Welford convention), never NaN."""

    def _cuts(self, n_traj):
        rng = np.random.default_rng(11)
        return [Cut(grid_index=g, time=0.5 * g,
                    values=[tuple(rng.integers(0, 50, size=2).tolist())
                            for _ in range(n_traj)])
                for g in range(6)]

    def test_vectorised_matches_scalar_oracle_for_one_trajectory(self):
        cuts = self._cuts(1)
        data = np.array([[list(v) for v in c.values] for c in cuts],
                        dtype=float)
        grid = np.array([c.grid_index for c in cuts])
        times = np.array([c.time for c in cuts])
        block = block_statistics(grid, times, data)
        scalar = [cut_statistics(c) for c in cuts]
        for vec, ref in zip(block, scalar):
            assert vec.variance == ref.variance == (0.0, 0.0)
            assert not any(math.isnan(v) for v in vec.variance)
            assert vec.mean == pytest.approx(ref.mean)

    def test_sample_variance_guard(self):
        one = np.zeros((4, 1, 3))
        assert not np.isnan(sample_variance(one, axis=1)).any()
        assert (sample_variance(one, axis=1) == 0.0).all()
        many = np.random.default_rng(0).normal(size=(4, 7, 3))
        expected = many.var(axis=1, ddof=1)
        np.testing.assert_allclose(sample_variance(many, axis=1), expected)


class TestWindowCiFields:
    def _block(self, n_traj, seed=5):
        rng = np.random.default_rng(seed)
        return CutBlock(0, 0.5 * np.arange(8),
                        rng.normal(10.0, 2.0, size=(8, n_traj, 2)))

    def _window(self, n_traj, seed=5):
        """One window of 8 cuts, as the sliding window emits it."""
        (window,) = run(Pipeline([[self._block(n_traj, seed)],
                                  SlidingWindowNode(8)]))
        return window

    def test_vectorised_matches_scalar_path(self):
        block = self._block(6)
        (rv,) = run(Pipeline([[block], SlidingWindowNode(8),
                              StatEngineNode()]))
        (rs,) = run(Pipeline([[block], ScalarSlidingWindowNode(8),
                              ScalarStatEngineNode()]))
        assert rv.window_mean == pytest.approx(rs.window_mean, rel=1e-9)
        assert rv.ci_half_width == pytest.approx(rs.ci_half_width, rel=1e-9)

    def test_half_width_matches_manual_estimator(self):
        window = self._window(6)
        (result,) = run(Pipeline([[window], StatEngineNode()]))
        traj_means = window.data.mean(axis=0)  # (n_traj, n_obs)
        for obs in range(2):
            acc = OnlineStats().extend(traj_means[:, obs].tolist())
            expected = ci_half_width(acc.variance, acc.n)
            assert result.ci_half_width[obs] == pytest.approx(
                expected, rel=1e-9)
            assert result.window_mean[obs] == pytest.approx(
                acc.mean, rel=1e-9)

    def test_single_trajectory_fleet_is_zero_not_nan(self):
        window = self._window(1)
        (result,) = run(Pipeline([[window], StatEngineNode()]))
        assert result.ci_half_width == (0.0, 0.0)

    def test_ci_relative(self):
        window = self._window(6)
        (result,) = run(Pipeline([[window], StatEngineNode()]))
        for obs in range(2):
            expected = (result.ci_half_width[obs]
                        / abs(result.window_mean[obs]))
            assert result.ci_relative(obs) == pytest.approx(expected)

    def test_end_to_end_windows_carry_ci(self, neurospora_small):
        from repro.pipeline.builder import run_workflow
        from repro.pipeline.config import WorkflowConfig
        cfg = WorkflowConfig(n_simulations=4, t_end=10.0, sample_every=0.5,
                             quantum=2.0, window_size=5, seed=0,
                             backend="sequential")
        result = run_workflow(neurospora_small, cfg)
        assert result.windows
        for window in result.windows:
            assert len(window.ci_half_width) == len(window.window_mean) > 0
            assert all(hw >= 0.0 for hw in window.ci_half_width)
            assert window.ci_confidence == 0.95
