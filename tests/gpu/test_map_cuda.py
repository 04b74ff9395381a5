"""The mapCUDA offloading node: functional equivalence with CPU engines."""

import pytest

from repro.cwc.network import FlatSimulator
from repro.ff import Farm, GO_ON, MasterWorkerEmitter, Pipeline, run
from repro.gpu.device import tesla_k40
from repro.gpu.map_cuda import MapCUDANode
from repro.gpu.simt import SimtDevice
from repro.sim.task import make_tasks
from repro.sim.alignment import TrajectoryAligner
from repro.sim.trajectory import assemble_trajectories, iter_cuts


class _BlockEmitter(MasterWorkerEmitter):
    """Streams whole blocks of simulations (the GPU version's unit)."""

    def is_complete(self, block):
        return all(task.done for task in block)


def gpu_block_workflow(network, n, t_end, quantum, sample_every, seed):
    """generation -> mapCUDA (with feedback) -> alignment."""
    device = SimtDevice(tesla_k40(), step_cost=1e-6)
    tasks = make_tasks(network, n, t_end, quantum, sample_every, seed=seed)
    farm = Farm([MapCUDANode(device)], emitter=_BlockEmitter(),
                collector=TrajectoryAligner(n), feedback=True)
    cuts = list(iter_cuts(run(Pipeline([[tasks], farm]),
                              backend="sequential")))
    return cuts, device


class TestMapCUDAFunctional:
    def test_results_identical_to_cpu_engine(self, neurospora_small):
        """Offloaded execution is functionally the CPU computation: every
        trajectory matches a direct run with the same seed."""
        n, t_end, dt, seed = 4, 4.0, 1.0, 3
        cuts, _device = gpu_block_workflow(
            neurospora_small, n, t_end, quantum=2.0, sample_every=dt,
            seed=seed)
        trajectories = assemble_trajectories(cuts, n)
        for task_id, trajectory in enumerate(trajectories):
            direct = FlatSimulator(neurospora_small,
                                   seed=seed + task_id).run(t_end, dt)
            assert trajectory.samples == direct.samples

    def test_device_time_accounted(self, neurospora_small):
        _cuts, device = gpu_block_workflow(
            neurospora_small, 4, 4.0, quantum=1.0, sample_every=1.0, seed=0)
        assert device.kernels_launched == 4  # one per quantum
        assert device.total_device_time > 0

    def test_all_cuts_produced(self, neurospora_small):
        cuts, _ = gpu_block_workflow(
            neurospora_small, 3, 6.0, quantum=1.5, sample_every=0.5, seed=1)
        assert [c.grid_index for c in cuts] == list(range(13))

    def test_local_loop_without_feedback(self, neurospora_small):
        """Without a feedback edge the node loops the block internally."""
        device = SimtDevice(tesla_k40(), step_cost=1e-6)
        node = MapCUDANode(device)
        tasks = make_tasks(neurospora_small, 2, 3.0, 1.0, 1.0, seed=0)
        collected = []

        class _Out:
            def send(self, item):
                collected.append(item)

        node._outbox = _Out()
        node.svc(tasks)
        assert all(task.done for task in tasks)
        grids = sorted(g for r in collected for g, _t, _v in r.samples)
        assert grids == sorted(list(range(4)) * 2)

    def test_empty_block(self):
        node = MapCUDANode(SimtDevice(tesla_k40()))
        assert node.svc([]) is GO_ON


class TestMapCUDABatchBlocks:
    """The batched kernel path: one BatchSimulationTask per stream item."""

    def _workflow(self, network, n, t_end, quantum, sample_every, seed):
        from repro.gpu.workflow import BlockEmitter
        from repro.sim.task import make_batch_tasks
        device = SimtDevice(tesla_k40(), step_cost=1e-6)
        tasks = make_batch_tasks(network, n, t_end, quantum, sample_every,
                                 seed=seed, batch_size=n)
        farm = Farm([MapCUDANode(device)], emitter=BlockEmitter(n_devices=1),
                    collector=TrajectoryAligner(n), feedback=True)
        cuts = list(iter_cuts(run(Pipeline([tasks, farm]),
                                  backend="sequential")))
        return cuts, device

    def test_all_cuts_produced(self, neurospora_small):
        n = 4
        cuts, device = self._workflow(
            neurospora_small, n, 6.0, quantum=1.5, sample_every=0.5, seed=1)
        assert [c.grid_index for c in cuts] == list(range(13))
        assert all(len(c.values) == n for c in cuts)
        assert device.kernels_launched > 0

    def test_one_kernel_per_quantum(self, neurospora_small):
        _cuts, device = self._workflow(
            neurospora_small, 4, 4.0, quantum=1.0, sample_every=1.0, seed=0)
        assert device.kernels_launched == 4

    def test_batch_local_loop_without_feedback(self, neurospora_small):
        from repro.sim.task import make_batch_tasks
        device = SimtDevice(tesla_k40(), step_cost=1e-6)
        node = MapCUDANode(device)
        block = make_batch_tasks(neurospora_small, 2, 3.0, 1.0, 1.0,
                                 seed=0, batch_size=2)[0]
        collected = []

        class _Out:
            def send(self, item):
                collected.append(item)

        node._outbox = _Out()
        node.svc(block)
        assert block.done
        grids = sorted(g for b in collected for r in b.unpack()
                       for g, _t, _v in r.samples)
        assert grids == sorted(list(range(4)) * 2)

    def test_launch_map_batched_stats(self, neurospora_small):
        from repro.cwc.batch import BatchFlatSimulator
        device = SimtDevice(tesla_k40(), step_cost=1e-6)
        batch = BatchFlatSimulator(neurospora_small, 8, seed=3)
        result, stats = device.launch_map_batched(
            lambda b: b.advance(1.0), batch,
            lambda b, _r: [float(s) for s in b.steps])
        assert stats.n_items == 8
        assert stats.duration > 0
        assert device.kernels_launched == 1


class TestStencilReduce:
    def test_heat_diffusion_converges(self):
        from repro.gpu.stencil_reduce import stencil_reduce
        device = SimtDevice(tesla_k40(), step_cost=1e-9)
        grid = [0.0] * 16 + [100.0] + [0.0] * 16

        def stencil(current, i):
            left = current[i - 1] if i > 0 else current[i]
            right = current[i + 1] if i < len(current) - 1 else current[i]
            return 0.25 * left + 0.5 * current[i] + 0.25 * right

        def spread(a, b):
            return max(a, b)

        final, peak, iterations = stencil_reduce(
            device, grid, stencil, spread,
            until=lambda reduced, _i: reduced < 20.0)
        assert peak < 20.0
        assert iterations > 1
        # total mass conserved by the symmetric stencil
        assert sum(final) == pytest.approx(100.0)

    def test_max_iterations_bound(self):
        from repro.gpu.stencil_reduce import stencil_reduce
        device = SimtDevice(tesla_k40(), step_cost=1e-9)
        _final, _red, iterations = stencil_reduce(
            device, [1.0, 2.0], lambda cur, i: cur[i], max,
            until=lambda *_: False, max_iterations=7)
        assert iterations == 7

    def test_empty_grid_rejected(self):
        from repro.gpu.stencil_reduce import stencil_reduce
        with pytest.raises(ValueError):
            stencil_reduce(SimtDevice(tesla_k40()), [], None, None, None)
