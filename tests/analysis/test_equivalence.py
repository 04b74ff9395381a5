"""Scalar-oracle vs vectorised-engine equivalence.

The columnar analysis plane must reproduce the scalar reference:
exactly where the floating-point accumulation order is preserved
(k-means, histogram binning, moving average), and to tight tolerance
where NumPy's pairwise summation reorders additions (per-cut
statistics).  The workflow-level tests assert ``run_workflow`` (the
columnar plane, on every backend) against the scalar reference chain
driven by hand from the same tasks.
"""

import random

import numpy as np
import pytest

from repro.analysis.filters import moving_average, moving_average_array
from repro.analysis.histogram import histogram
from repro.analysis.stats import block_statistics, cut_statistics
from repro.sim.trajectory import Cut

REL = 1e-12


def random_block(rng, n_cuts, n_traj, n_obs):
    return np.array([[[rng.uniform(0, 500) for _ in range(n_obs)]
                      for _ in range(n_traj)]
                     for _ in range(n_cuts)])


class TestBlockStatistics:
    def test_matches_scalar_cut_statistics(self):
        rng = random.Random(0)
        data = random_block(rng, 6, 33, 3)
        grids = np.arange(10, 16)
        times = np.linspace(5.0, 7.5, 6)
        block = block_statistics(grids, times, data)
        for i, got in enumerate(block):
            cut = Cut(int(grids[i]), float(times[i]), data=data[i])
            ref = cut_statistics(cut)
            assert got.grid_index == ref.grid_index
            assert got.time == ref.time
            assert got.n_trajectories == ref.n_trajectories
            assert got.minimum == ref.minimum  # order-free: exact
            assert got.maximum == ref.maximum
            for a, b in zip(got.mean, ref.mean):
                assert a == pytest.approx(b, rel=REL)
            for a, b in zip(got.variance, ref.variance):
                assert a == pytest.approx(b, rel=REL)
            for a, b in zip(got.median, ref.median):
                assert a == pytest.approx(b, rel=REL)

    def test_single_trajectory_variance_zero(self):
        data = np.array([[[4.0, 5.0]]])
        stats = block_statistics(np.array([0]), np.array([0.0]), data)
        assert stats[0].variance == (0.0, 0.0)
        ref = cut_statistics(Cut(0, 0.0, data=data[0]))
        assert stats[0].variance == ref.variance

    def test_empty_block(self):
        assert block_statistics(np.array([]), np.array([]),
                                np.empty((0, 4, 2))) == []

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            block_statistics(np.array([0]), np.array([0.0]),
                             np.zeros((2, 2)))


class TestFiltersHistogramExact:
    def test_moving_average_matches_python_prefix_loop(self):
        rng = random.Random(1)
        values = [rng.uniform(-10, 10) for _ in range(257)]
        for width in (1, 2, 3, 5, 10, 257, 500):
            got = moving_average(values, width)
            # scalar reference: truncated centred mean per index
            half = width // 2
            ref = []
            for i in range(len(values)):
                lo, hi = max(0, i - half), min(len(values), i + half + 1)
                ref.append(sum(values[lo:hi]) / (hi - lo))
            assert got == pytest.approx(ref, rel=REL)
            assert list(moving_average_array(values, width)) == got

    def test_histogram_binning_matches_int_cast(self):
        rng = random.Random(2)
        values = [rng.uniform(-5, 5) for _ in range(1000)]
        got = histogram(values, n_bins=13)
        lo = min(values)
        hi = max(values)
        width = (hi - lo) / 13
        ref = [0] * 13
        for v in values:
            ref[min(12, max(0, int((v - lo) / width)))] += 1
        assert got.counts == ref  # exact: same truncation semantics
        assert got.total == 1000

    def test_histogram_accepts_ndarray(self):
        arr = np.array([0.0, 1.0, 2.0, 2.0])
        h = histogram(arr, n_bins=2)
        assert h.counts == histogram(list(arr), n_bins=2).counts


class _Feed:
    """Outbox handing one node's emissions to the next stage."""

    def __init__(self, consume):
        self.send = consume


def scalar_windows(model, config):
    """The scalar reference plane -- ScalarTrajectoryAligner ->
    ScalarSlidingWindowNode -> ScalarStatEngineNode -- fed, quantum by
    quantum, by the tasks ``config`` describes."""
    from repro.sim.task import make_tasks
    from tests.oracles.analysis import (ScalarSlidingWindowNode,
                                        ScalarStatEngineNode,
                                        ScalarTrajectoryAligner)
    aligner = ScalarTrajectoryAligner(config.n_simulations)
    window = ScalarSlidingWindowNode(config.window_size, config.window_slide)
    engine = ScalarStatEngineNode(kmeans_k=config.kmeans_k,
                                  filter_width=config.filter_width,
                                  histogram_bins=config.histogram_bins)
    windows = []
    aligner._outbox = _Feed(window.svc)
    window._outbox = _Feed(lambda w: windows.append(engine.svc(w)))
    pending = make_tasks(model, config.n_simulations, config.t_end,
                         config.quantum, config.sample_every,
                         seed=config.seed, engine=config.engine,
                         batch_size=config.batch_size)
    while pending:
        for task in pending:
            aligner.svc(task.run_quantum())
        pending = [task for task in pending if not task.done]
    window.svc_end()
    return windows


class TestWorkflowEquivalence:
    """The workflow (columnar plane) vs the scalar reference chain, end
    to end, per backend."""

    def _config(self, backend, **overrides):
        from repro.pipeline import WorkflowConfig
        base = dict(n_simulations=6, t_end=6.0, sample_every=0.5,
                    quantum=2.0, n_sim_workers=2, window_size=5,
                    window_slide=3, kmeans_k=2, histogram_bins=8,
                    filter_width=3, seed=0, backend=backend)
        base.update(overrides)
        return WorkflowConfig(**base)

    def _run_pair(self, model, backend, **overrides):
        from repro.pipeline import run_workflow
        config = self._config(backend, **overrides)
        return (run_workflow(model, config).windows,
                scalar_windows(model, config))

    def _assert_equivalent(self, columnar, scalar):
        assert len(columnar) == len(scalar) > 0
        for wc, ws in zip(columnar, scalar):
            assert wc.window_index == ws.window_index
            assert wc.start_time == ws.start_time
            assert wc.end_time == ws.end_time
            assert len(wc.cuts) == len(ws.cuts)
            for sc, ss in zip(wc.cuts, ws.cuts):
                assert sc.grid_index == ss.grid_index
                assert sc.minimum == ss.minimum
                assert sc.maximum == ss.maximum
                assert sc.mean == pytest.approx(ss.mean, rel=REL)
                assert sc.variance == pytest.approx(ss.variance, rel=REL)
                assert sc.median == pytest.approx(ss.median, rel=REL)
            # k-means is bit-identical (fixed seed, same RNG consumption)
            assert set(wc.clusters) == set(ws.clusters)
            for obs in wc.clusters:
                assert wc.clusters[obs].assignments == \
                    ws.clusters[obs].assignments
                assert wc.clusters[obs].centroids == \
                    ws.clusters[obs].centroids
            # histograms bin identically (same truncation semantics)
            for obs in wc.histograms:
                assert wc.histograms[obs].counts == \
                    ws.histograms[obs].counts
            for obs in wc.filtered_mean:
                assert wc.filtered_mean[obs] == pytest.approx(
                    ws.filtered_mean[obs], rel=REL)

    def test_threads(self, neurospora_small):
        self._assert_equivalent(
            *self._run_pair(neurospora_small, "threads"))

    def test_sequential(self, neurospora_small):
        self._assert_equivalent(
            *self._run_pair(neurospora_small, "sequential"))

    def test_processes(self, neurospora_small):
        self._assert_equivalent(
            *self._run_pair(neurospora_small, "processes"))

    def test_cluster(self, neurospora_small):
        self._assert_equivalent(
            *self._run_pair(neurospora_small, "cluster"))

    def test_batch_engine_columnar_wire(self, neurospora_small):
        """The batch engine ships one ResultBlock per quantum; the
        analysis output must match the scalar path all the same."""
        self._assert_equivalent(*self._run_pair(
            neurospora_small, "threads", engine="batch", batch_size=3))
