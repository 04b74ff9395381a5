"""run_sweep orchestration: the accumulator, tracing and steering."""

import os

import numpy as np
import pytest

from repro.cwc.batch import clear_network_cache
from repro.distributed.net import KillWorkerAfter
from repro.distributed.shm import SEGMENT_PREFIX, leaked_segments
from repro.ff.trace import Tracer
from repro.models import neurospora_network
from repro.sim.trajectory import Cut, CutBlock
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.runner import SweepAccumulator

POINTS = [{"translation": 0.3}, {"translation": 0.7}]


class TestAccumulator:
    def _make(self, P=2, T=3, n_cuts=4, n_obs=2):
        return SweepAccumulator(P, T, n_cuts, n_obs)

    def test_cut_block_reduction(self):
        acc = self._make()
        # (n_cuts, P*T, n_obs): point 0 rows constant 1, point 1 rows 2
        data = np.concatenate(
            [np.full((2, 3, 2), 1.0), np.full((2, 3, 2), 2.0)], axis=1)
        acc.svc(CutBlock(grid_start=1, times=np.array([0.5, 1.0]),
                         data=data))
        assert np.array_equal(acc.mean[0, 1:3], np.full((2, 2), 1.0))
        assert np.array_equal(acc.mean[1, 1:3], np.full((2, 2), 2.0))
        assert np.array_equal(acc.variance[:, 1:3], np.zeros((2, 2, 2)))
        assert acc.times[1] == 0.5 and acc.times[2] == 1.0
        assert np.isnan(acc.times[0]) and np.isnan(acc.times[3])
        assert acc.cuts_seen == 2

    def test_cut_block_sample_variance(self):
        acc = self._make(P=1, T=3, n_cuts=1, n_obs=1)
        data = np.array([[[1.0], [2.0], [3.0]]])  # one cut, 3 rows
        acc.svc(CutBlock(grid_start=0, times=np.array([0.0]), data=data))
        assert acc.variance[0, 0, 0] == pytest.approx(1.0)  # ddof=1

    def test_single_trajectory_uses_population_variance(self):
        acc = self._make(P=2, T=1, n_cuts=1, n_obs=1)
        data = np.array([[[4.0], [6.0]]])
        acc.svc(CutBlock(grid_start=0, times=np.array([0.0]), data=data))
        assert np.array_equal(acc.variance[:, 0, 0], np.zeros(2))

    def test_scalar_cut_path(self):
        acc = self._make(P=2, T=2, n_cuts=2, n_obs=1)
        cut = Cut(1, 0.5, data=np.array([[1.0], [3.0], [5.0], [7.0]]))
        acc.svc(cut)
        assert np.array_equal(acc.mean[:, 1, 0], [2.0, 6.0])
        assert acc.times[1] == 0.5

    def test_rejects_foreign_items(self):
        with pytest.raises(TypeError, match="sweep accumulator"):
            self._make().svc(object())


class TestRunSweep:
    def test_shapes_and_grid(self, neurospora_small):
        spec = SweepSpec(POINTS, n_trajectories=4, seed=1)
        result = run_sweep(neurospora_small, spec, t_end=2.0,
                           quantum=1.0, sample_every=0.5,
                           n_sim_workers=2)
        assert result.observable_names == ("M", "FC", "FN")
        assert result.mean.shape == (2, 5, 3)
        assert result.variance.shape == (2, 5, 3)
        assert np.array_equal(result.times, np.arange(5) * 0.5)
        assert result.n_points == 2 and result.n_cuts == 5

    def test_point_matrix_views(self, neurospora_small):
        spec = SweepSpec(POINTS, n_trajectories=4, seed=1)
        result = run_sweep(neurospora_small, spec, t_end=2.0,
                           quantum=1.0, sample_every=0.5,
                           n_sim_workers=2)
        assert np.array_equal(result.point_matrix("M"),
                              result.mean[:, :, 0])
        assert np.array_equal(result.point_matrix(2, "variance"),
                              result.variance[:, :, 2])
        with pytest.raises(ValueError):
            result.observable_index("nope")

    def test_trace_counters(self, neurospora_small):
        clear_network_cache()
        spec = SweepSpec(POINTS, n_trajectories=4, seed=1,
                         points_per_block=1)
        kwargs = dict(t_end=2.0, quantum=1.0, sample_every=0.5,
                      n_sim_workers=2)
        run_sweep(neurospora_small, spec, **kwargs)  # warm the cache
        tracer = Tracer()
        result = run_sweep(neurospora_small, spec, tracer=tracer,
                           **kwargs)
        assert result.trace_report is not None
        counters = tracer.report().counters
        assert counters.get("sweep.cuts", 0) == result.n_cuts
        # the warm run compiled this network; the traced run hits
        assert counters.get("sim.network_cache_hits", 0) >= 1

    def test_stop_requested_drains_early(self, neurospora_small):
        spec = SweepSpec(POINTS, n_trajectories=4, seed=1)
        result = run_sweep(neurospora_small, spec, t_end=50.0,
                           quantum=0.5, sample_every=0.5,
                           n_sim_workers=2,
                           stop_requested=lambda: True)
        # cancelled before the horizon: unreached cuts stay NaN
        assert np.isnan(result.times).any()

    def test_stop_requested_drains_a_processes_sweep(self, neurospora_small):
        spec = SweepSpec(POINTS, n_trajectories=4, seed=1)
        result = run_sweep(neurospora_small, spec, t_end=50.0,
                           quantum=0.5, sample_every=0.5,
                           n_sim_workers=2, backend="processes",
                           stop_requested=lambda: True)
        assert np.isnan(result.times).any()


def grid_sweep(points_per_block, method="exact", **kwargs):
    """8 points x 16 trajectories: one 128-row block, or four of 32."""
    spec = SweepSpec([{"translation": 0.2 + 0.1 * p} for p in range(8)],
                     n_trajectories=16, seed=3,
                     points_per_block=points_per_block)
    # at omega=20 every tau step falls back to exact SSA: leap for real
    omega = 200 if method == "tau" else 20
    return run_sweep(neurospora_network(omega=omega), spec, t_end=4.0,
                     quantum=1.0, sample_every=0.5, n_sim_workers=2,
                     method=method, **kwargs)


def assert_byte_equal(result, reference):
    for name in ("times", "mean", "variance"):
        assert getattr(result, name).tobytes() \
            == getattr(reference, name).tobytes(), name
    assert leaked_segments(f"{SEGMENT_PREFIX}-{os.getpid()}") == []


@pytest.fixture(scope="module")
def sequential():
    """The single-threaded reference, per stepping method."""
    return {method: grid_sweep(2, method=method, backend="sequential")
            for method in ("exact", "tau")}


class TestBackends:
    """A sweep runs on whatever runs a workflow, to the same bytes."""

    @pytest.mark.parametrize("method", ["exact", "tau"])
    @pytest.mark.parametrize("backend", ["threads", "processes", "cluster"])
    def test_byte_equal_to_sequential(self, sequential, backend, method):
        assert_byte_equal(grid_sweep(2, method=method, backend=backend),
                          sequential[method])

    @pytest.mark.parametrize("method", ["exact", "tau"])
    def test_killed_worker_replays_its_fused_blocks(self, sequential,
                                                    method):
        chaos = KillWorkerAfter(n_results=3, worker_id=0)
        result = grid_sweep(2, method=method, backend="processes",
                            fault_hook=chaos, trace=True)
        assert chaos.fired and chaos.master.workers_failed == 1
        assert result.trace_report.counters["sim.tasks_generated"] == 4
        assert chaos.master.reassignments >= 1
        assert_byte_equal(result, sequential[method])

    @pytest.mark.parametrize("points_per_block, shared", [(8, True),
                                                          (2, False)])
    def test_wide_blocks_come_back_through_shm(self, sequential,
                                               points_per_block, shared):
        """A 128-row block's quantum is above ``SHM_MIN_BYTES``, a
        32-row block's below: the data plane is the workflow's."""
        result = grid_sweep(points_per_block, backend="processes",
                            trace=True)
        counters = result.trace_report.counters
        assert (0 < counters["net.shm_blocks"] <= counters["sim.quanta"]
                if shared else "net.shm_blocks" not in counters)
        assert_byte_equal(result, sequential["exact"])
