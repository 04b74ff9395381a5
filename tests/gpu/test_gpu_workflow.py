"""The GPU-offloaded workflow (``run_workflow`` on a device pool) must
equal the CPU workflow exactly."""

from repro.gpu.device import tesla_k40
from repro.gpu.map_cuda import DevicePool
from repro.gpu.simt import SimtDevice
from repro.pipeline import WorkflowConfig, run_workflow


def config(**overrides):
    base = dict(n_simulations=6, t_end=6.0, sample_every=0.5, quantum=2.0,
                n_sim_workers=2, window_size=5, seed=0, keep_cuts=True)
    base.update(overrides)
    return WorkflowConfig(**base)


def statistics(result):
    return [(s.grid_index, s.mean, s.variance)
            for s in result.cut_statistics()]


class TestGpuWorkflow:
    def test_identical_to_cpu_workflow(self, neurospora_small):
        cpu = run_workflow(neurospora_small, config())
        gpu = run_workflow(neurospora_small, config(),
                           pool=DevicePool([SimtDevice(tesla_k40())]))
        assert statistics(gpu) == statistics(cpu)

    def test_multi_device_split(self, neurospora_small):
        devices = [SimtDevice(tesla_k40()) for _ in range(2)]
        gpu = run_workflow(neurospora_small, config(),
                           pool=DevicePool(devices))
        assert all(d.kernels_launched > 0 for d in devices)
        cpu = run_workflow(neurospora_small, config())
        assert statistics(gpu) == statistics(cpu)
