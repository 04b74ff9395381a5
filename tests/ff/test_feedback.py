"""Master-worker (feedback farm) semantics: the paper's simulation farm
skeleton."""

import pytest

from repro.ff import Farm, GO_ON, MasterWorkerEmitter, Node, Pipeline, run
from repro.ff.graph import ToWorker

BACKENDS = ("sequential", "threads")


class CountdownTask:
    """A task that needs ``n`` quanta of work."""

    def __init__(self, tid, n):
        self.tid = tid
        self.n = n
        self.history = []


class CountdownEmitter(MasterWorkerEmitter):
    def is_complete(self, task):
        return task.n <= 0


class CountdownWorker(Node):
    def svc(self, task):
        task.n -= 1
        task.history.append(self.name)
        self.ff_send_out((task.tid, task.n))
        self.send_feedback(task)
        return GO_ON


def make_farm(n_workers=3):
    return Farm([CountdownWorker(name=f"w{i}") for i in range(n_workers)],
                emitter=CountdownEmitter(), feedback=True)


@pytest.mark.parametrize("backend", BACKENDS)
class TestMasterWorker:
    def test_every_quantum_streamed(self, backend):
        tasks = [CountdownTask(i, 3) for i in range(4)]
        out = run(Pipeline([tasks, make_farm()]), backend=backend)
        expected = [(tid, n) for tid in range(4) for n in (2, 1, 0)]
        assert sorted(out) == sorted(expected)

    def test_unbalanced_tasks_all_complete(self, backend):
        tasks = [CountdownTask(i, n) for i, n in enumerate((1, 7, 2, 5))]
        out = run(Pipeline([tasks, make_farm()]), backend=backend)
        assert len(out) == 1 + 7 + 2 + 5
        assert all(task.n == 0 for task in tasks)

    def test_emitter_counts(self, backend):
        emitter = CountdownEmitter()
        farm = Farm([CountdownWorker(name=f"w{i}") for i in range(2)],
                    emitter=emitter, feedback=True)
        tasks = [CountdownTask(i, 2) for i in range(3)]
        run(Pipeline([tasks, farm]), backend=backend)
        assert emitter.completed == 3
        assert emitter.in_flight == 0
        assert emitter.upstream_done

    def test_single_worker_feedback(self, backend):
        tasks = [CountdownTask(0, 5)]
        out = run(Pipeline([tasks, make_farm(1)]), backend=backend)
        assert [n for _tid, n in out] == [4, 3, 2, 1, 0]

    def test_empty_task_stream(self, backend):
        out = run(Pipeline([[], make_farm()]), backend=backend)
        assert out == []

    def test_work_spreads_over_workers(self, backend):
        tasks = [CountdownTask(i, 10) for i in range(6)]
        run(Pipeline([tasks, make_farm(3)]), backend=backend)
        used = {name for task in tasks for name in task.history}
        assert len(used) >= 2  # more than one worker actually ran quanta


class StoppingEmitter(CountdownEmitter):
    """Retires every fed-back task once `stop_after` completions happened
    (the steering use case)."""

    def __init__(self, stop_after):
        super().__init__()
        self.stop_after = stop_after

    def is_complete(self, task):
        return task.n <= 0 or self.completed >= self.stop_after


@pytest.mark.parametrize("backend", BACKENDS)
class TestEarlyTermination:
    def test_emitter_drains_early(self, backend):
        # 400 quanta in all, but task 0 completes after its first one:
        # the others cannot all finish 133 quanta before its feedback
        # retires them (equal lengths could finish in lockstep)
        tasks = [CountdownTask(i, n) for i, n in enumerate((1, 133, 133, 133))]
        farm = Farm([CountdownWorker(name=f"w{i}") for i in range(2)],
                    emitter=StoppingEmitter(stop_after=1), feedback=True)
        out = run(Pipeline([tasks, farm]), backend=backend)
        # far fewer than the 400 quanta a full run would take
        assert 0 < len(out) < 400


class DirectedEmitter(MasterWorkerEmitter):
    """Pins every task to worker (tid % width): ToWorker routing."""

    def __init__(self, width):
        super().__init__()
        self.width = width

    def is_complete(self, task):
        return task.n <= 0

    def on_task(self, task):
        return ToWorker(task.tid % self.width, task)

    def on_reschedule(self, task):
        return ToWorker(task.tid % self.width, task)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDirectedDispatch:
    def test_to_worker_affinity(self, backend):
        width = 3
        tasks = [CountdownTask(i, 4) for i in range(6)]
        farm = Farm([CountdownWorker(name=f"w{i}") for i in range(width)],
                    emitter=DirectedEmitter(width), feedback=True)
        run(Pipeline([tasks, farm]), backend=backend)
        for task in tasks:
            assert set(task.history) == {f"w{task.tid % width}"}
