"""The device pool (``ff_mapCUDA``): the one workflow, its quanta run as
kernels on modeled devices, must equal the threads run bit for bit."""

import numpy as np
import pytest

from repro.cwc.network import FlatSimulator
from repro.ff.errors import NodeError
from repro.gpu.device import tesla_k40
from repro.gpu.map_cuda import DevicePool
from repro.gpu.simt import SimtDevice
from repro.pipeline import WorkflowConfig, run_workflow
from repro.sim.task import SimulationTask, make_tasks
from repro.sweep import SweepSpec, run_sweep


def config(**overrides):
    base = dict(n_simulations=6, t_end=6.0, sample_every=0.5, quantum=2.0,
                n_sim_workers=2, window_size=5, seed=0, keep_cuts=True)
    base.update(overrides)
    return WorkflowConfig(**base)


def k40():
    return SimtDevice(tesla_k40(), step_cost=1e-6)


def pool_run(model, cfg, n_devices=1):
    pool = DevicePool([k40() for _ in range(n_devices)])
    return run_workflow(model, cfg, pool=pool), pool


class TestMapCUDAFunctional:
    """Scalar tasks: one-thread launches."""

    def test_results_identical_to_cpu_engine(self, neurospora_small):
        """Offloaded execution is functionally the CPU computation: every
        trajectory matches a direct run with the same seed."""
        n, t_end, dt, seed = 4, 4.0, 1.0, 3
        result, _pool = pool_run(neurospora_small, config(
            n_simulations=n, t_end=t_end, quantum=2.0, sample_every=dt,
            seed=seed, engine="flat"))
        for task_id, trajectory in enumerate(result.trajectories()):
            direct = FlatSimulator(neurospora_small,
                                   seed=seed + task_id).run(t_end, dt)
            assert trajectory.samples == direct.samples

    def test_device_time_accounted(self, neurospora_small):
        _result, pool = pool_run(neurospora_small, config(
            n_simulations=4, t_end=4.0, quantum=1.0, sample_every=1.0,
            engine="flat"))
        # four one-thread tasks, four quanta each
        assert pool.counters()["gpu.kernels"] == 16
        assert pool.devices[0].kernels_launched == 16
        assert pool.counters()["gpu.device_s"] > 0

    def test_all_cuts_produced(self, neurospora_small):
        result, _pool = pool_run(neurospora_small, config(
            n_simulations=3, t_end=6.0, quantum=1.5, sample_every=0.5,
            seed=1, engine="flat"))
        assert [c.grid_index for c in result.cuts] == list(range(13))


class TestMapCUDABatchBlocks:
    """Batch tasks: one vectorized kernel advances the whole block."""

    def test_all_cuts_produced(self, neurospora_small):
        n = 4
        result, pool = pool_run(neurospora_small, config(
            n_simulations=n, t_end=6.0, quantum=1.5, sample_every=0.5,
            seed=1, engine="batch", batch_size=n))
        assert [c.grid_index for c in result.cuts] == list(range(13))
        assert all(len(c.values) == n for c in result.cuts)
        assert pool.counters()["gpu.kernels"] > 0

    def test_one_kernel_per_quantum(self, neurospora_small):
        _result, pool = pool_run(neurospora_small, config(
            n_simulations=4, t_end=4.0, quantum=1.0, sample_every=1.0,
            engine="batch", batch_size=4))
        assert pool.devices[0].kernels_launched == 4

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


class TestDevicePool:
    @pytest.mark.parametrize("n_devices", [1, 2])
    @pytest.mark.parametrize("backend", ["threads", "sequential"])
    @pytest.mark.parametrize("method", ["exact", "tau", "hybrid"])
    def test_windows_equal_the_threads_run(self, neurospora_small, method,
                                           backend, n_devices):
        batch = dict(engine="batch", batch_size=2, method=method)
        pooled, _pool = pool_run(
            neurospora_small, config(backend=backend, **batch), n_devices)
        threads = run_workflow(neurospora_small, config(**batch))
        assert pooled.windows == threads.windows
        assert [t.samples for t in pooled.trajectories()] == \
            [t.samples for t in threads.trajectories()]

    def test_sweep_equals_the_threads_sweep(self, enzyme_small):
        first = enzyme_small.reactions[0].name
        spec = SweepSpec.grid({first: [0.5, 1.0, 2.0]}, n_trajectories=3,
                              seed=4, points_per_block=1)
        args = (enzyme_small, spec, 3.0, 1.0, 0.5)
        threads = run_sweep(*args, n_sim_workers=2)
        pooled = run_sweep(*args, n_sim_workers=2,
                           pool=DevicePool([k40(), k40()]))
        for name in ("times", "mean", "variance"):
            assert np.array_equal(getattr(pooled, name),
                                  getattr(threads, name), equal_nan=True)

    @pytest.mark.parametrize("quantum", [2.0, 0.25])
    def test_kernels_are_quanta(self, neurospora_small, quantum):
        """A chain of q quanta counts q kernels; ``quantum`` 0.25 <
        ``sample_every`` 0.5 chains two quanta per dispatch."""
        cfg = config(engine="batch", batch_size=2, quantum=quantum,
                     trace=True)
        result, pool = pool_run(neurospora_small, cfg, 2)
        counters = result.trace_report.counters
        # two fused tasks of three trajectories, t_end 6
        assert counters["gpu.kernels"] == counters["sim.quanta"] \
            == 2 * 6.0 / quantum
        launches = sum(d.kernels_launched for d in pool.devices)
        assert launches == counters["sim.quanta_dispatched"]
        assert counters["gpu.device_s"] == pool.counters()["gpu.device_s"]
        assert counters["gpu.divergence_s"] > 0
        cfg.trace = False
        assert result.windows == run_workflow(neurospora_small, cfg).windows

    def test_one_device_runs_one_lockstep_task(self, neurospora_small):
        """The pool decides the width: one device fuses four seed blocks
        into one 256-row kernel per quantum, whatever ``n_sim_workers``
        (left at its default 4) says."""
        cfg = WorkflowConfig(n_simulations=256, t_end=4.0, quantum=1.0,
                             sample_every=1.0, window_size=5, seed=0,
                             engine="batch", batch_size=64, trace=True)
        assert cfg.n_sim_workers == 4
        result, _pool = pool_run(neurospora_small, cfg)
        counters = result.trace_report.counters
        assert counters["sim.seed_blocks"] == 4
        assert counters["sim.tasks_generated"] == 1
        assert counters["sim.lockstep_rows_max"] == 256
        assert counters["gpu.kernels"] == counters["sim.quanta"] == 4
        cfg.trace = False
        assert result.windows == run_workflow(neurospora_small, cfg).windows

    def test_kernel_exception_is_the_runs_error(self, neurospora_small,
                                                monkeypatch):
        def fault(task):
            raise RuntimeError("kernel fault")

        (task,) = make_tasks(neurospora_small, 1, 1.0, 1.0, 1.0)
        future = DevicePool([k40()]).submit(fault, task)
        assert isinstance(future.exception(), RuntimeError)

        monkeypatch.setattr(SimulationTask, "run_quantum", fault)
        with pytest.raises(NodeError, match="kernel fault"):
            pool_run(neurospora_small, config(engine="batch"))

    def test_needs_a_device(self):
        with pytest.raises(ValueError):
            DevicePool([])


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
