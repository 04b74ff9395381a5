"""Multi-GPU offloading: one engine per device, as the paper describes
("wrapping it into ff_mapCUDA nodes, one for each GPGPU available")."""

import sys
import threading

from repro.cwc.network import FlatSimulator
from repro.gpu.device import tesla_k40
from repro.gpu.map_cuda import DevicePool
from repro.gpu.simt import SimtDevice
from repro.pipeline import WorkflowConfig, run_workflow
from repro.sim.engine import run_quantum
from repro.sim.task import make_tasks


class _RecordingDevice(SimtDevice):
    """A K40 that remembers which scalar tasks it ran."""

    def __init__(self):
        super().__init__(tesla_k40(), step_cost=1e-6)
        self.task_ids = set()

    def launch_map_batched(self, kernel, batch, work_of, bytes_moved=0.0):
        self.task_ids.add(batch.task_id)
        return super().launch_map_batched(kernel, batch, work_of,
                                          bytes_moved)


def scalar_config(**overrides):
    base = dict(n_simulations=4, t_end=6.0, quantum=1.0, sample_every=1.0,
                n_sim_workers=2, seed=0, engine="flat", keep_cuts=True)
    base.update(overrides)
    return WorkflowConfig(**base)


class TestMultiGPU:
    def test_two_devices_share_the_blocks(self, neurospora_small):
        n, t_end, dt, seed = 6, 4.0, 1.0, 9
        devices = [SimtDevice(tesla_k40(), step_cost=1e-6)
                   for _ in range(2)]
        result = run_workflow(neurospora_small, scalar_config(
            n_simulations=n, t_end=t_end, quantum=2.0, sample_every=dt,
            seed=seed), pool=DevicePool(devices))

        # functional equality with direct simulation
        for task_id, trajectory in enumerate(result.trajectories()):
            direct = FlatSimulator(neurospora_small,
                                   seed=seed + task_id).run(t_end, dt)
            assert trajectory.samples == direct.samples

        # both devices really executed kernels
        assert all(device.kernels_launched > 0 for device in devices)
        total_kernels = sum(d.kernels_launched for d in devices)
        assert total_kernels == n * 2  # one-thread tasks x 2 quanta each

    def test_block_affinity_is_stable(self, neurospora_small):
        devices = [_RecordingDevice(), _RecordingDevice()]
        run_workflow(neurospora_small, scalar_config(),
                     pool=DevicePool(devices))
        first, second = (d.task_ids for d in devices)
        assert first and second and not first & second
        assert first | second == set(range(4))
        # six quanta per task, all on the task's own device
        assert [d.kernels_launched for d in devices] == [12, 12]

    def test_concurrent_submits_keep_counts_and_affinity(self, enzyme_small):
        """More submitting threads than devices, switching often: every
        quantum is counted once and every task stays on one device."""
        devices = [_RecordingDevice(), _RecordingDevice()]
        pool = DevicePool(devices)
        tasks = make_tasks(enzyme_small, 16, 2.0, 0.25, 0.5, seed=1)

        def drive(mine):
            for task in mine:
                while not task.done:
                    pool.submit(run_quantum, task).result()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive, args=(tasks[i::8],))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert pool.counters()["gpu.kernels"] == sum(t.quanta for t in tasks)
        first, second = (d.task_ids for d in devices)
        assert not first & second and first | second == set(range(16))
