"""Batched simulation tasks: lockstep blocks through the task protocol."""

import copy
import pickle

import numpy as np
import pytest

from repro.sim.task import (BatchSimulationTask, ResultBlock,
                            make_batch_tasks, make_tasks)
from repro.cwc.batch import BatchFlatSimulator
from tests.sim.samples import block_samples


class TestBatchQuantumStepping:
    def test_samples_on_global_grid(self, neurospora_small):
        task = make_batch_tasks(neurospora_small, 4, t_end=4.0, quantum=1.5,
                                sample_every=1.0, seed=0)[0]
        per_member = {i: [] for i in task.task_ids}
        while not task.done:
            for task_id, g, t, v in block_samples(task.run_quantum()):
                per_member[task_id].append((g, t, v))
        for samples in per_member.values():
            assert [t for _g, t, _v in samples] == [0.0, 1.0, 2.0, 3.0, 4.0]
            assert [g for g, _t, _v in samples] == [0, 1, 2, 3, 4]

    def test_no_duplicate_grid_points(self, neurospora_small):
        task = make_batch_tasks(neurospora_small, 3, t_end=10.0, quantum=0.7,
                                sample_every=0.5, seed=1)[0]
        seen = {i: set() for i in task.task_ids}
        while not task.done:
            for task_id, g, _t, _v in block_samples(task.run_quantum()):
                assert g not in seen[task_id]
                seen[task_id].add(g)
        for got in seen.values():
            assert got == set(range(task.n_samples_total))

    def test_done_task_yields_empty(self, neurospora_small):
        task = make_batch_tasks(neurospora_small, 2, t_end=1.0, quantum=2.0,
                                sample_every=1.0, seed=0)[0]
        task.run_quantum()
        assert task.done
        block = task.run_quantum()
        assert block.done and len(block) == 0
        assert block.n_members == task.n

    def test_samples_are_plain_floats(self, neurospora_small):
        task = make_batch_tasks(neurospora_small, 2, t_end=1.0, quantum=1.0,
                                sample_every=0.5, seed=2)[0]
        for _id, _g, t, values in block_samples(task.run_quantum()):
            assert type(t) is float
            assert all(type(v) is float for v in values)

    def test_validation(self, neurospora_small):
        with pytest.raises(ValueError):
            make_batch_tasks(neurospora_small, 4, t_end=0, quantum=1,
                             sample_every=1)
        with pytest.raises(ValueError):
            make_batch_tasks(neurospora_small, 4, t_end=1, quantum=1,
                             sample_every=1, batch_size=0)
        with pytest.raises(ValueError):
            BatchSimulationTask(
                (0, 1, 2), BatchFlatSimulator(neurospora_small, 2),
                t_end=1.0, quantum=1.0, sample_every=1.0)


class TestOneBlockPerQuantum:
    """``run_quantum`` returns one ResultBlock, whatever the quantum
    held, and its rows are what a twin simulator reports when advanced
    and observed by hand."""

    T_END, QUANTUM, SAMPLE = 2.0, 0.3, 0.5  # some quanta cross no grid point

    def hand_quantum(self, twin, grid):
        """One quantum of ``twin``: the grid times it crossed and one
        ``observe_all()`` matrix per crossing."""
        target = min(twin.time + self.QUANTUM, self.T_END)
        times, rows = [], []
        while grid * self.SAMPLE <= target + 1e-12:
            if grid * self.SAMPLE > twin.time:
                twin.advance_to(np.full(twin.n, grid * self.SAMPLE))
            times.append(grid * self.SAMPLE)
            rows.append(twin.observe_all())
            grid += 1
            if times[-1] >= self.T_END - 1e-12:
                break
        if twin.time < target:
            twin.advance_to(np.full(twin.n, target))
        return times, rows

    @pytest.mark.parametrize("method", ["exact", "tau"])
    @pytest.mark.parametrize("n_workers, widths", [(None, [4, 4, 2]),
                                                   (1, [10])],
                             ids=["solo", "fused"])
    def test_block_equals_hand_driven_twin(self, neurospora_small, method,
                                           n_workers, widths):
        # 10 trajectories = two full seed blocks and a ragged one
        tasks = make_batch_tasks(
            neurospora_small, 10, self.T_END, self.QUANTUM, self.SAMPLE,
            seed=4, batch_size=4, method=method, n_workers=n_workers)
        assert [task.n for task in tasks] == widths
        for task in tasks:
            twin = copy.deepcopy(task.batch)
            grid, empty_quanta = 0, 0
            while not task.done:
                times, rows = self.hand_quantum(twin, grid)
                block = task.run_quantum()
                assert type(block) is ResultBlock
                assert block.task_ids == task.task_ids
                assert block.grid_start == grid
                assert block._times.tolist() == times
                assert block._values.shape[:2] == (task.n, len(times))
                for i in range(task.n):
                    assert [row.tolist() for row in block._values[i]] == \
                        [np.asarray(r)[i].tolist() for r in rows]
                assert task.batch.times.tolist() == twin.times.tolist()
                assert task.batch.steps.tolist() == twin.steps.tolist()
                assert block.done == task.done
                grid += len(times)
                empty_quanta += not times
            assert empty_quanta and grid == task.n_samples_total
            marker = task.run_quantum()  # a done task: the bare marker
            assert type(marker) is ResultBlock
            assert marker.done and len(marker) == 0
            assert marker.n_members == task.n


class TestMakeBatchTasks:
    def test_blocking(self, neurospora_small):
        tasks = make_batch_tasks(neurospora_small, 10, 1.0, 1.0, 1.0,
                                 batch_size=4)
        assert [t.n for t in tasks] == [4, 4, 2]
        assert [t.task_ids for t in tasks] == [
            range(0, 4), range(4, 8), range(8, 10)]

    def test_engine_batch_dispatch(self, neurospora_small):
        tasks = make_tasks(neurospora_small, 10, 1.0, 1.0, 1.0,
                           engine="batch", batch_size=4)
        assert all(isinstance(t, BatchSimulationTask) for t in tasks)
        assert sum(t.n for t in tasks) == 10

    def test_blocks_are_independent(self, neurospora_small):
        tasks = make_batch_tasks(neurospora_small, 8, 2.0, 2.0, 2.0,
                                 seed=3, batch_size=4)
        finals = []
        for task in tasks:
            while not task.done:
                task.run_quantum()
            finals.append(task.batch.counts.copy())
        assert not (finals[0] == finals[1]).all()

    def test_reproducible(self, neurospora_small):
        def run(seed):
            task = make_batch_tasks(neurospora_small, 4, 2.0, 1.0, 1.0,
                                    seed=seed)[0]
            out = []
            while not task.done:
                out.extend(block_samples(task.run_quantum()))
            return out

        assert run(42) == run(42)

    def test_task_is_picklable(self, neurospora_small):
        task = make_batch_tasks(neurospora_small, 3, 4.0, 1.0, 1.0,
                                seed=5)[0]
        task.run_quantum()
        clone = pickle.loads(pickle.dumps(task))
        original = block_samples(task.run_quantum())
        copied = block_samples(clone.run_quantum())
        assert original == copied

    def test_steps_accounting(self, neurospora_small):
        task = make_batch_tasks(neurospora_small, 4, 2.0, 2.0, 1.0,
                                seed=6)[0]
        task.run_quantum()
        assert task.steps > 0
        assert task.steps == sum(int(s) for s in task.steps_by_trajectory)
