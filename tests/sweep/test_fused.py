"""The fused sweep plane's bit-identity contract.

A P-point fused block -- per-row rates, per-point RNG streams, coalesced
results -- must reproduce, per point, the exact trajectories of the P
solo ``engine="batch"`` runs it replaces: same sample values, same
member clocks, same step counters, byte for byte.  Verified across the
inline numpy path, the un-jitted :class:`PythonKernel` proxy (the numba
algorithm without the JIT) and, where installed, the real numba kernel.
"""

import numpy as np
import pytest

from repro.cwc.batch import BatchFlatSimulator, compile_network
from repro.cwc.kernels import kernel_available
from repro.pipeline.builder import run_workflow
from repro.pipeline.config import WorkflowConfig
from repro.sim.task import SimulationTask
from repro.sweep import SweepSpec, make_fused_tasks, run_sweep
from tests.cwc.test_kernels import PythonKernel

# the benchmark runs under this filter: a warning in the lockstep loop
# (a stale value in a dead lane, say) fails here as it fails there
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

needs_numba = pytest.mark.skipif(not kernel_available("numba"),
                                 reason="numba not installed")

T_END, QUANTUM, SAMPLE = 4.0, 1.5, 0.5

POINTS = [{"translation": 0.2}, {},
          {"translation": 0.9, "transport_in": 0.4}]


def _use_python_kernel(batch):
    batch._kernel = PythonKernel(batch.compiled)
    batch.kernel_name = "python"


def member_streams(task):
    """Run a task to completion: task_id -> (times bytes, values bytes,
    end time, end steps) from its ResultBlock stream."""
    streams = {task_id: (b"", b"") for task_id in task.task_ids}
    while True:
        block = task.run_quantum()
        for i, task_id in enumerate(block.task_ids):
            t, v = streams[task_id]
            streams[task_id] = (t + block._times.tobytes(),
                                v + block._values[i].tobytes())
        if block.done:
            break
    return {task_id: (t, v, float(task.simulator.times[i]),
                      int(task.simulator.steps[i]))
            for i, (task_id, (t, v)) in enumerate(streams.items())}


def run_fused(network, spec, kernel_obj=None, kernel_name="numpy"):
    tasks = make_fused_tasks(network, spec, T_END, QUANTUM, SAMPLE,
                             engine_kernel=kernel_name)
    if kernel_obj is not None:
        for task in tasks:
            _use_python_kernel(task.simulator)
    streams = {}
    for task in tasks:
        streams.update(member_streams(task))
    return streams


def run_solo(network, spec, point, kernel_obj=None, kernel_name="numpy"):
    """Point ``point`` the pre-sweep way: one solo single-block task."""
    T = spec.n_trajectories
    batch = BatchFlatSimulator(
        compile_network(network.with_rates(spec.points[point])), T,
        seed=spec.seed_of(point), kernel=kernel_name)
    if kernel_obj is not None:
        _use_python_kernel(batch)
    task = SimulationTask(
        range(point * T, (point + 1) * T), batch, T_END, QUANTUM, SAMPLE)
    return member_streams(task)


@pytest.mark.parametrize("kernel_obj,kernel_name", [
    pytest.param(None, "numpy", id="numpy"),
    pytest.param(PythonKernel, "numpy", id="python-proxy"),
    pytest.param(None, "numba", id="numba", marks=needs_numba),
])
class TestFusedBitIdentity:
    def test_fused_block_matches_solo_runs(self, neurospora_small,
                                           kernel_obj, kernel_name):
        """One fused block covering every point == P solo runs."""
        spec = SweepSpec(POINTS, n_trajectories=6, seed=11)
        fused = run_fused(neurospora_small, spec, kernel_obj, kernel_name)
        assert len(fused) == spec.n_rows
        for p in range(spec.n_points):
            solo = run_solo(neurospora_small, spec, p, kernel_obj,
                            kernel_name)
            for task_id, stream in solo.items():
                assert fused[task_id] == stream, (
                    f"point {p} task {task_id} diverged")

    def test_block_split_does_not_change_trajectories(
            self, neurospora_small, kernel_obj, kernel_name):
        """Fusing 1, 2 or all points per block yields the same bytes --
        the block boundary is pure scheduling."""
        specs = [SweepSpec(POINTS, n_trajectories=4, seed=3,
                           points_per_block=k) for k in (1, 2, 3)]
        runs = [run_fused(neurospora_small, spec, kernel_obj, kernel_name)
                for spec in specs]
        assert runs[0] == runs[1] == runs[2]


class TestRunSweepEquivalence:
    def test_per_point_means_match_solo_workflows(self, neurospora_small):
        """End to end: run_sweep's (point, cut) means equal each
        point's solo run_workflow cut means exactly."""
        spec = SweepSpec(POINTS, n_trajectories=8, seed=5)
        sweep = run_sweep(neurospora_small, spec, t_end=T_END,
                          quantum=QUANTUM, sample_every=SAMPLE,
                          n_sim_workers=2)
        n_cuts = int(round(T_END / SAMPLE)) + 1
        assert sweep.mean.shape == (spec.n_points, n_cuts, 3)
        for p in range(spec.n_points):
            solo = run_workflow(
                neurospora_small.with_rates(spec.points[p]),
                WorkflowConfig(
                    n_simulations=spec.n_trajectories, t_end=T_END,
                    sample_every=SAMPLE, quantum=QUANTUM,
                    n_sim_workers=2, window_size=n_cuts,
                    seed=spec.seed_of(p), engine="batch",
                    batch_size=spec.n_trajectories))
            solo_means = np.asarray(
                [cut.mean for cut in solo.cut_statistics()])
            assert np.array_equal(sweep.mean[p], solo_means)

    def test_sequential_backend_matches_threads(self, neurospora_small):
        spec = SweepSpec(POINTS[:2], n_trajectories=4, seed=2)
        kwargs = dict(t_end=T_END, quantum=QUANTUM, sample_every=SAMPLE,
                      n_sim_workers=2)
        threads = run_sweep(neurospora_small, spec, **kwargs)
        sequential = run_sweep(neurospora_small, spec,
                               backend="sequential", **kwargs)
        assert np.array_equal(threads.mean, sequential.mean)
        assert np.array_equal(threads.variance, sequential.variance)
