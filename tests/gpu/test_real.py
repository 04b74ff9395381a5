"""The real-GPU bridge: import-safe everywhere, live only with CuPy."""

import numpy as np
import pytest

from repro.cwc.batch import BatchFlatSimulator
from repro.cwc.kernels import KernelUnavailable
from repro.gpu import DevicePool, RealGpuDevice, real_gpu_available
from repro.pipeline import WorkflowConfig, run_workflow

needs_gpu = pytest.mark.skipif(not real_gpu_available(),
                               reason="cupy not installed or no device")


class TestWithoutDevice:
    def test_probe_is_bool(self):
        assert real_gpu_available() in (True, False)

    def test_device_raises_kernel_unavailable(self):
        if real_gpu_available():
            pytest.skip("a real device is present")
        with pytest.raises(KernelUnavailable, match="cupy"):
            RealGpuDevice()

    def test_simulator_raises_kernel_unavailable(self, neurospora_small):
        if real_gpu_available():
            pytest.skip("a real device is present")
        with pytest.raises(KernelUnavailable):
            BatchFlatSimulator(neurospora_small, 8, seed=0, kernel="cupy")


@needs_gpu
class TestWithDevice:
    def test_batched_launch_runs_a_quantum(self, neurospora_small):
        from repro.sim.task import SimulationTask
        device = RealGpuDevice()
        sim = BatchFlatSimulator(neurospora_small, 32, seed=0, kernel="cupy")
        task = SimulationTask(range(32), sim, t_end=5.0,
                              quantum=2.5, sample_every=0.5)
        results, stats = device.launch_map_batched(
            lambda t: t.run_quantum(), task,
            lambda t, _r: t.simulator.steps)
        assert len(results) == 32
        assert stats.n_items == 32
        assert stats.duration > 0
        assert device.kernels_launched == 1

    def test_gpu_trajectories_statistically_sane(self, neurospora_small):
        sim = BatchFlatSimulator(neurospora_small, 16, seed=1, kernel="cupy")
        sim.advance_to(np.full(16, 5.0))
        assert (sim.times >= 5.0 - 1e-9).all()
        assert (sim.counts >= 0).all()

    def test_pool_run_equals_the_threads_run(self, neurospora_small):
        cfg = WorkflowConfig(n_simulations=8, t_end=4.0, quantum=1.0,
                             sample_every=0.5, engine="batch",
                             engine_kernel="cupy", window_size=4)
        pool = DevicePool([RealGpuDevice()])
        pooled = run_workflow(neurospora_small, cfg, pool=pool)
        assert pooled.windows == run_workflow(neurospora_small, cfg).windows
        assert pool.counters()["gpu.kernels"] > 0
