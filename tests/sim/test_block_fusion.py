"""Block fusion: wider lockstep tasks, the same trajectories.

``batch_size`` fixes the seed blocks (one RNG stream each, seeded
``seed + first_task_id``); ``n_workers`` only decides how many of them
one :class:`BatchSimulationTask` advances in lockstep.  Every test here
compares a fused task list against the one-task-per-seed-block list the
same arguments produce without ``n_workers`` -- bytewise, since every
stream must draw exactly its solo sequence.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cwc.kernels import kernel_available
from repro.distributed.net import KillWorkerAfter, run_workflow_cluster
from repro.models import mm_enzyme_network, neurospora_network
from repro.pipeline import WorkflowConfig, run_workflow
from repro.sim.task import (MAX_FUSED_ROWS, make_batch_tasks, make_tasks,
                            seed_block_groups)
from tests.cwc.test_kernels import PythonKernel

T_END, QUANTUM, SAMPLE = 3.0, 1.0, 0.5

KERNELS = ["numpy", "python",
           pytest.param("numba", marks=pytest.mark.skipif(
               not kernel_available("numba"),
               reason="numba not installed"))]

MODELS = {
    # large enough that tau / hybrid mix committed leaps with exact steps
    "neurospora": lambda: neurospora_network(omega=200),
    "enzyme": lambda: mm_enzyme_network(omega=1000),
}


def tasks_for(model, n, batch_size, n_workers, method="exact",
              kernel="numpy", seed=7):
    # "python" is the numba algorithm without the JIT (tests.cwc)
    tasks = make_batch_tasks(
        model, n, T_END, QUANTUM, SAMPLE, seed=seed, batch_size=batch_size,
        engine_kernel="numpy" if kernel == "python" else kernel,
        method=method, n_workers=n_workers)
    if kernel == "python":
        for task in tasks:
            task.batch._kernel = PythonKernel(task.batch.compiled)
            task.batch.kernel_name = "python"
    return tasks


def run_quantum(tasks):
    """One quantum of every task: the per-member results in task-id
    order, as comparable tuples."""
    return [(r.task_id, r.grid_start, r.time, r.steps, r.done,
             r._times.tobytes() if len(r) else b"",
             r._values.tobytes() if len(r) else b"")
            for task in tasks for r in task.run_quantum().unpack()]


def drain(tasks):
    quanta = []
    while not all(task.done for task in tasks):
        quanta.append(run_quantum(tasks))
    return quanta


def state(tasks):
    """Everything a simulator carries between quanta, concatenated over
    the task list (so fused and unfused lists compare directly)."""
    arrays = {name: np.concatenate(
        [getattr(task.batch, name) for task in tasks]).tobytes()
        for name in ("counts", "times", "steps", "leaps", "exact_steps",
                     "exhausted")}
    streams = [rng.bit_generator.state
               for task in tasks for rng in task.batch._streams]
    return arrays, streams


def n_streams(task):
    return len(task.batch._streams)


class TestByteIdentity:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("method", ["exact", "tau", "hybrid"])
    @pytest.mark.parametrize("model", MODELS)
    def test_fused_equals_unfused(self, model, method, kernel):
        network = MODELS[model]()
        # 18 = 4 full seed blocks + a ragged one, fused 3 + 2
        plain = tasks_for(network, 18, 4, None, method, kernel)
        fused = tasks_for(network, 18, 4, 2, method, kernel)
        assert [task.n for task in plain] == [4, 4, 4, 4, 2]
        assert [task.n for task in fused] == [12, 6]
        assert [n_streams(task) for task in fused] == [3, 2]
        assert drain(fused) == drain(plain)
        assert state(fused) == state(plain)
        if method != "exact":
            assert sum(int(task.batch.leaps.sum()) for task in fused) > 0

    def test_whole_blocks(self, neurospora_small):
        plain = tasks_for(neurospora_small, 16, 4, None)
        fused = tasks_for(neurospora_small, 16, 4, 1)
        assert [task.n for task in fused] == [16]
        assert drain(fused) == drain(plain)
        assert state(fused) == state(plain)

    def test_pickle_round_trip_mid_run(self, neurospora_small):
        plain = tasks_for(neurospora_small, 10, 4, None, method="hybrid")
        fused = tasks_for(neurospora_small, 10, 4, 1, method="hybrid")
        assert run_quantum(fused) == run_quantum(plain)
        # what crosses a pipe or the wire after every quantum
        fused = [pickle.loads(pickle.dumps(task)) for task in fused]
        assert n_streams(fused[0]) == 3
        assert drain(fused) == drain(plain)
        assert state(fused) == state(plain)

    def test_seed_none_gives_every_block_its_own_entropy(
            self, neurospora_small):
        fused = tasks_for(neurospora_small, 12, 4, 1, seed=None)
        streams = [repr(s) for s in state(fused)[1]]
        assert len(set(streams)) == 3
        drain(fused)
        finals = fused[0].batch.counts
        assert not (finals[:4] == finals[4:8]).all()


class TestGrouping:
    def test_default_is_one_task_per_seed_block(self, neurospora_small):
        """No worker count, no fusion: ``make_tasks`` callers that do
        not say how wide the machine is keep the historical tasks."""
        tasks = make_tasks(neurospora_small, 10, T_END, QUANTUM, SAMPLE,
                           seed=3, engine="batch", batch_size=4)
        assert [tuple(task.task_ids) for task in tasks] == [
            (0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
        for task, base in zip(tasks, (0, 4, 8)):
            # the historical seed= constructor, not a one-stream list
            assert task.batch._stream_of is None
            assert (task.batch.rng.bit_generator.state
                    == np.random.default_rng(3 + base).bit_generator.state)

    @pytest.mark.parametrize("batch_size", [MAX_FUSED_ROWS // 2 + 1,
                                            MAX_FUSED_ROWS, 1024])
    def test_blocks_that_cannot_pair_under_the_cap_stay_apart(
            self, neurospora_small, batch_size):
        """Two such blocks would exceed the cap, so the task list is
        today's -- which pins the 2 x 1024-row ``neuro_tau_analysis``."""
        n = 2 * batch_size
        plain = tasks_for(neurospora_small, n, batch_size, None)
        fused = tasks_for(neurospora_small, n, batch_size, 1)
        assert len(fused) == len(plain) == 2
        for a, b in zip(fused, plain):
            assert a.task_ids == b.task_ids
            assert a.batch._stream_of is None
        assert state(fused) == state(plain)

    def test_more_workers_than_blocks(self, neurospora_small):
        fused = tasks_for(neurospora_small, 10, 4, 8)
        assert [task.n for task in fused] == [4, 4, 2]
        assert all(task.batch._stream_of is None for task in fused)

    def test_cap_bounds_the_lockstep_width(self, neurospora_small):
        fused = tasks_for(neurospora_small, 1200, 100, 1)
        assert [task.n for task in fused] == [400, 400, 400]

    def test_scalar_engines_ignore_the_worker_count(self, neurospora_small):
        tasks = make_tasks(neurospora_small, 5, T_END, QUANTUM, SAMPLE,
                           engine="flat", n_workers=2)
        assert [task.task_id for task in tasks] == [0, 1, 2, 3, 4]

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 5000), batch_size=st.integers(1, 1100),
           n_workers=st.integers(1, 40))
    def test_grouping_invariants(self, n, batch_size, n_workers):
        groups = seed_block_groups(n, batch_size, n_workers)
        blocks = [block for group in groups for block in group]
        # the seed blocks are exactly the unfused ones, in order ...
        assert blocks == [b for g in seed_block_groups(n, batch_size)
                          for b in g]
        # ... so every trajectory id appears once, ascending, and each
        # group is a contiguous id range
        assert [i for b in blocks for i in b] == list(range(n))
        assert all(group for group in groups)
        assert len(groups) >= min(len(blocks), n_workers)
        for group in groups:
            rows = sum(len(block) for block in group)
            assert len(group) == 1 or rows <= MAX_FUSED_ROWS
        sizes = [len(group) for group in groups]
        assert max(sizes) - min(sizes) <= 1


def signature(result):
    return [(w.window_index, w.start_time, w.end_time,
             tuple((c.grid_index, c.time, c.mean, c.variance)
                   for c in w.cuts),
             w.window_mean, w.ci_half_width)
            for w in result.windows]


def workflow_config(**overrides):
    # 22 trajectories = 5 full seed blocks + a ragged one
    base = dict(n_simulations=22, t_end=6.0, sample_every=0.5, quantum=2.0,
                window_size=4, seed=11, engine="batch", batch_size=4,
                n_sim_workers=2, trace=True)
    base.update(overrides)
    return WorkflowConfig(**base)


@pytest.fixture(scope="module")
def unfused_run():
    """The worker-count-agnostic reference: as many workers as seed
    blocks leaves nothing to fuse."""
    result = run_workflow(
        neurospora_network(omega=20),
        workflow_config(backend="sequential", n_sim_workers=6))
    counters = result.trace_report.counters
    assert counters["sim.tasks_generated"] == counters["sim.seed_blocks"] == 6
    assert counters["sim.lockstep_rows_max"] == 4
    return signature(result)


class TestWorkflow:
    @pytest.mark.parametrize(
        "backend", ["sequential", "threads", "processes", "cluster"])
    def test_windows_equal_the_unfused_run(self, neurospora_small, backend,
                                           unfused_run):
        result = run_workflow(neurospora_small,
                              workflow_config(backend=backend))
        counters = result.trace_report.counters
        assert counters["sim.seed_blocks"] == 6
        assert counters["sim.tasks_generated"] == 2
        assert counters["sim.lockstep_rows_max"] == 12
        assert signature(result) == unfused_run

    @pytest.mark.parametrize("backend, channel", [
        ("sequential", "sim-farm.merge"), ("threads", "sim-farm.merge"),
        ("processes", "sim-farm.merge")])
    def test_one_stream_item_per_quantum(self, neurospora_small, backend,
                                         channel):
        """What reaches the aligner from the farm's engines -- whether
        they run the quanta or a worker process does -- is one item per
        quantum, not one per member."""
        report = run_workflow(neurospora_small,
                              workflow_config(backend=backend)).trace_report
        pushed = {c["name"]: c["pushed"] for c in report.to_dict()["channels"]}
        assert pushed[channel] == report.counters["sim.quanta"] == 6

    def test_cluster_workers_set_the_width(self, neurospora_small,
                                           unfused_run):
        result = run_workflow(neurospora_small, workflow_config(
            backend="cluster", n_sim_workers=3))
        assert result.trace_report.counters["sim.tasks_generated"] == 3
        assert signature(result) == unfused_run

    def test_killed_worker_replays_a_fused_task(self, neurospora_small):
        """SIGKILL one of two workers mid-run: its fused task replays on
        the survivor from the last acknowledged state, every stream at
        the position it had then."""
        longer = dict(t_end=12.0, quantum=1.0)
        reference = run_workflow(neurospora_small, workflow_config(
            backend="sequential", n_sim_workers=6, **longer))
        chaos = KillWorkerAfter(n_results=3, worker_id=0)
        result = run_workflow_cluster(
            neurospora_small, workflow_config(backend="cluster", **longer),
            fault_hook=chaos)
        counters = result.trace_report.counters
        assert chaos.fired
        assert chaos.master.workers_failed == 1
        assert chaos.master.reassignments >= 1
        # two fused tasks of three seed blocks each
        assert counters["sim.tasks_generated"] == 2
        assert counters["sim.seed_blocks"] == 6
        assert counters["sim.lockstep_rows_max"] == 12
        assert signature(result) == signature(reference)

    def test_scalar_engine_reports_width_one(self, neurospora_small):
        result = run_workflow(neurospora_small, workflow_config(
            engine="flat", n_simulations=5, backend="sequential"))
        counters = result.trace_report.counters
        assert counters["sim.tasks_generated"] == 5
        assert counters["sim.seed_blocks"] == 5
        assert counters["sim.lockstep_rows_max"] == 1
