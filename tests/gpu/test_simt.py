"""The SIMT execution model: divergence, scheduling, re-balancing."""

import pytest

from repro.gpu.device import GPUSpec, tesla_k40
from repro.gpu.simt import SimtDevice, _schedule_warps, simulate_gpu_run
from repro.perfsim.workload import TrajectoryWorkload


def device(**overrides):
    spec = dict(name="test-gpu", warp_size=4, resident_warps=2,
                thread_slowdown=1.0, kernel_launch_overhead=0.0,
                unified_memory_cost_per_byte=0.0)
    spec.update(overrides)
    return SimtDevice(GPUSpec(**spec), step_cost=1.0)


class TestWarpScheduling:
    def test_single_warp(self):
        assert _schedule_warps([5.0], slots=4) == 5.0

    def test_parallel_warps(self):
        assert _schedule_warps([3.0, 4.0], slots=2) == 4.0

    def test_waves(self):
        # 4 equal warps on 2 slots: two waves
        assert _schedule_warps([2.0] * 4, slots=2) == 4.0

    def test_greedy_packing(self):
        # earliest-free-slot: [5] then [2,2,2] -> slot2 takes all the 2s
        assert _schedule_warps([5.0, 2.0, 2.0, 2.0], slots=2) == 6.0

    def test_empty(self):
        assert _schedule_warps([], slots=2) == 0.0


class TestKernelTiming:
    def test_uniform_threads_no_divergence(self):
        dev = device()
        stats = dev.launch_modeled([3.0, 3.0, 3.0, 3.0])
        assert stats.duration == 3.0
        assert stats.divergence_loss == 0.0
        assert stats.n_warps == 1

    def test_divergence_is_max_minus_mean(self):
        dev = device()
        stats = dev.launch_modeled([1.0, 1.0, 1.0, 5.0])
        assert stats.duration == 5.0  # lockstep: warp runs at the max
        assert stats.divergence_loss == pytest.approx(5.0 * 4 - 8.0)
        assert 0.0 < stats.divergence_ratio < 1.0

    def test_partial_warp_burns_lanes(self):
        dev = device()
        stats = dev.launch_modeled([2.0, 2.0])  # half a warp
        assert stats.duration == 2.0
        assert stats.divergence_loss == pytest.approx(0.0)

    def test_multiple_warps_and_waves(self):
        dev = device()
        # 3 warps of 4 threads on 2 slots
        stats = dev.launch_modeled([1.0] * 12)
        assert stats.n_warps == 3
        assert stats.duration == 2.0  # two waves

    def test_launch_overhead_added(self):
        dev = device(kernel_launch_overhead=10.0)
        assert dev.launch_modeled([1.0]).duration == 11.0

    def test_memory_traffic_added(self):
        dev = device(unified_memory_cost_per_byte=0.5)
        stats = dev.launch_modeled([1.0], bytes_moved=4.0)
        assert stats.duration == 3.0

    def test_slowdown_scales_thread_time(self):
        dev = device(thread_slowdown=4.0)
        assert dev.launch_modeled([2.0]).duration == 8.0

    def test_counters_accumulate(self):
        dev = device()
        dev.launch_modeled([1.0])
        dev.launch_modeled([1.0])
        assert dev.kernels_launched == 2
        assert dev.total_device_time == 2.0


class TestLaunchMap:
    def test_functional_execution(self):
        dev = device()
        results, stats = dev.launch_map_batched(
            lambda xs: [x * x for x in xs], [1, 2, 3, 4, 5],
            work_of=lambda items, results: items)
        assert results == [1, 4, 9, 16, 25]
        assert stats.n_items == 5
        assert stats.n_warps == 2


class TestGpuRun:
    def make_workload(self, n=64, quantum=1.0):
        return TrajectoryWorkload(
            n_trajectories=n, t_end=8.0, quantum=quantum, sample_every=0.5,
            oscillation_amplitude=0.5, seed=2)

    def test_rebalance_reduces_divergence(self):
        # needs more warps than warp slots: with few warps the kernel
        # makespan is the global max thread regardless of grouping
        wl = self.make_workload(n=1024)
        spec = tesla_k40()
        with_rb = simulate_gpu_run(wl, SimtDevice(spec), rebalance=True)
        without = simulate_gpu_run(wl, SimtDevice(spec), rebalance=False)
        assert with_rb.mean_divergence_ratio < without.mean_divergence_ratio
        assert with_rb.total_time < without.total_time

    def test_kernel_per_quantum(self):
        wl = self.make_workload(quantum=2.0)
        stats = simulate_gpu_run(wl, SimtDevice(tesla_k40()))
        assert stats.n_kernels == wl.n_quanta

    def test_more_sims_more_time(self):
        small = simulate_gpu_run(self.make_workload(n=512),
                                 SimtDevice(tesla_k40()))
        big = simulate_gpu_run(self.make_workload(n=2048),
                               SimtDevice(tesla_k40()))
        assert big.total_time > small.total_time

    def test_collection_barrier_counted(self):
        stats = simulate_gpu_run(self.make_workload(),
                                 SimtDevice(tesla_k40()))
        assert stats.collection_time > 0
        assert stats.collection_time < stats.total_time
