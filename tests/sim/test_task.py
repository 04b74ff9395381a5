"""Simulation tasks and quantum stepping."""

import pickle

import pytest

from repro.distributed.net import Checkpoint
from repro.models import mm_enzyme_network, neurospora_cwc_model
from repro.sim.task import SimulationTask, make_batch_tasks, make_tasks
from repro.sweep import SweepSpec, make_fused_tasks
from repro.cwc.network import FlatSimulator, ReactionNetwork
from tests.sim.samples import scalar_samples

#: t_end off the grid (its done marker carries no sample), quanta that
#: cross no grid point
T_END, QUANTUM, SAMPLE = 3.1, 0.3, 0.5


def _enzyme():
    return mm_enzyme_network(enzyme0=10, substrate0=50)


def _sweep(network):
    first = network.reactions[0].name
    return SweepSpec([{first: 1.0}, {first: 2.0}, {first: 3.0}],
                     n_trajectories=2, seed=3, points_per_block=2)


#: every kind of task the factories build
TASK_KINDS = {
    **{f"flat-{method}": (lambda method=method: make_tasks(
        _enzyme(), 3, T_END, QUANTUM, SAMPLE, seed=3, method=method))
       for method in ("exact", "first", "tau", "hybrid")},
    "cwc": lambda: make_tasks(neurospora_cwc_model(omega=5), 2, T_END,
                              QUANTUM, SAMPLE, seed=3, engine="cwc"),
    "batch-solo": lambda: make_batch_tasks(
        _enzyme(), 6, T_END, QUANTUM, SAMPLE, seed=3, batch_size=2),
    "batch-fused": lambda: make_batch_tasks(
        _enzyme(), 6, T_END, QUANTUM, SAMPLE, seed=3, batch_size=2,
        n_workers=2),
    "fused-sweep": lambda: make_fused_tasks(
        _enzyme(), _sweep(_enzyme()), T_END, QUANTUM, SAMPLE),
}


def _assert_pickle_fixed_point(task):
    blob = pickle.dumps(task, 5)
    assert pickle.dumps(pickle.loads(blob), 5) == blob, task


@pytest.mark.parametrize("kind", sorted(TASK_KINDS))
def test_every_task_kind_keeps_one_contract(kind):
    """One task class, one contract: whatever simulator a factory puts
    under it, a task covers its grid once and in order, ends with one
    done marker, returns one row per member id and is keyed by its first
    id everywhere a run names it."""
    tasks = TASK_KINDS[kind]()
    assert all(type(task) is SimulationTask for task in tasks)
    assert len({task.task_id for task in tasks}) == len(tasks)
    members = [i for task in tasks for i in task.task_ids]
    assert members == list(range(len(members)))  # disjoint ranges
    for task in tasks:
        ids = task.task_ids
        assert type(task.task_id) is int and task.task_id == ids.start
        key = Checkpoint.of(task).key
        assert type(key) is int and key == task.task_id
        blocks = []
        while not task.done:
            blocks.append(task.run_quantum())
            _assert_pickle_fixed_point(task)
        assert [block.done for block in blocks] == \
            [False] * (len(blocks) - 1) + [True]
        grid = 0
        for block in blocks:
            assert block.task_ids == ids
            assert block._values.shape[0] == len(ids)
            assert block.grid_start == grid
            assert block._times.tolist() == [
                g * SAMPLE for g in range(grid, grid + block.n_grid)]
            grid += block.n_grid
        assert grid == task.n_samples_total
        assert len(blocks[-1]) == 0  # t_end is off the grid


class TestQuantumStepping:
    def test_samples_on_global_grid(self, neurospora_small):
        tasks = make_tasks(neurospora_small, 1, t_end=4.0, quantum=1.5,
                           sample_every=1.0, seed=0)
        task = tasks[0]
        all_samples = []
        while not task.done:
            all_samples.extend(scalar_samples(task.run_quantum()))
        times = [t for _g, t, _v in all_samples]
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0]
        indices = [g for g, _t, _v in all_samples]
        assert indices == [0, 1, 2, 3, 4]

    def test_no_duplicate_grid_points(self, neurospora_small):
        task = make_tasks(neurospora_small, 1, t_end=10.0, quantum=0.7,
                          sample_every=0.5, seed=1)[0]
        seen = set()
        while not task.done:
            for g, _t, _v in scalar_samples(task.run_quantum()):
                assert g not in seen
                seen.add(g)
        assert seen == set(range(task.n_samples_total))

    def test_quantum_larger_than_run(self, neurospora_small):
        task = make_tasks(neurospora_small, 1, t_end=2.0, quantum=100.0,
                          sample_every=1.0, seed=0)[0]
        result = task.run_quantum()
        assert result.done
        assert len(scalar_samples(result)) == 3

    def test_done_task_yields_empty(self, neurospora_small):
        task = make_tasks(neurospora_small, 1, t_end=1.0, quantum=2.0,
                          sample_every=1.0, seed=0)[0]
        task.run_quantum()
        assert task.done
        follow_up = task.run_quantum()
        assert follow_up.done and scalar_samples(follow_up) == []

    def test_equivalent_to_plain_run(self, neurospora_small):
        """Quantum-sliced sampling is bit-identical to a direct run with
        the same seed, when quantum boundaries lie on the sampling grid
        (off-grid boundaries are still statistically exact, but resample
        the exponential clock at different points)."""
        direct = FlatSimulator(neurospora_small, seed=3).run(6.0, 1.0)
        task = make_tasks(neurospora_small, 1, t_end=6.0, quantum=2.0,
                          sample_every=1.0, seed=3)[0]
        sliced = []
        while not task.done:
            sliced.extend(
                v for _g, _t, v in scalar_samples(task.run_quantum()))
        assert sliced == direct.samples

    def test_validation(self, neurospora_small):
        with pytest.raises(ValueError):
            make_tasks(neurospora_small, 1, t_end=0, quantum=1,
                       sample_every=1)


class TestMakeTasks:
    def test_seeds_derived(self, neurospora_small):
        tasks = make_tasks(neurospora_small, 3, 1.0, 1.0, 1.0, seed=100)
        results = set()
        for task in tasks:
            task.run_quantum()
            results.add(tuple(task.simulator.counts.items()))
        assert len(results) > 1  # trajectories are independent

    def test_reproducible(self, neurospora_small):
        def final_counts(seed):
            task = make_tasks(neurospora_small, 1, 3.0, 1.0, 1.0,
                              seed=seed)[0]
            while not task.done:
                task.run_quantum()
            return dict(task.simulator.counts)

        assert final_counts(42) == final_counts(42)

    def test_engine_selection(self, neurospora_small, neurospora_cwc_small):
        from repro.cwc.gillespie import CWCSimulator
        flat = make_tasks(neurospora_small, 1, 1.0, 1.0, 1.0)[0]
        assert isinstance(flat.simulator, FlatSimulator)
        cwc = make_tasks(neurospora_cwc_small, 1, 1.0, 1.0, 1.0,
                         engine="cwc")[0]
        assert isinstance(cwc.simulator, CWCSimulator)
        auto = make_tasks(neurospora_cwc_small, 1, 1.0, 1.0, 1.0)[0]
        assert isinstance(auto.simulator, CWCSimulator)

    def test_flat_engine_rejects_network_mismatch(self, neurospora_small):
        with pytest.raises(ValueError):
            make_tasks(neurospora_small, 1, 1.0, 1.0, 1.0, engine="cwc")

    def test_task_count(self, neurospora_small):
        assert len(make_tasks(neurospora_small, 7, 1.0, 1.0, 1.0)) == 7

    def test_task_is_picklable(self, neurospora_small):
        task = make_tasks(neurospora_small, 1, 4.0, 1.0, 1.0, seed=5)[0]
        task.run_quantum()
        clone = pickle.loads(pickle.dumps(task))
        # the clone continues identically to the original
        original = task.run_quantum()
        copied = clone.run_quantum()
        assert scalar_samples(original) == scalar_samples(copied)

    def test_cwc_task_pickled_mid_run_continues_identically(self):
        """The CWC engine's propensity cache is keyed by term identity;
        a copy unpickled mid-run (a replayed checkpoint) must re-key it
        and draw exactly the original's remaining trajectory."""
        from repro.models import neurospora_cwc_model
        task = make_tasks(neurospora_cwc_model(omega=20), 1, 6.0, 2.0, 0.5,
                          engine="cwc", seed=3)[0]
        task.run_quantum()
        task.run_quantum()
        clone = pickle.loads(pickle.dumps(task, 5))
        while not task.done:
            assert scalar_samples(clone.run_quantum()) == \
                scalar_samples(task.run_quantum())
        assert clone.done and clone.steps == task.steps

    def test_cwc_task_is_picklable(self, neurospora_cwc_small):
        task = make_tasks(neurospora_cwc_small, 1, 2.0, 1.0, 1.0,
                          engine="cwc", seed=5)[0]
        task.run_quantum()
        clone = pickle.loads(pickle.dumps(task))
        assert scalar_samples(clone.run_quantum()) == \
            scalar_samples(task.run_quantum())
