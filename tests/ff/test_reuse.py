"""Structures must be reusable: running the same graph twice must give
the same answer both times.

Regression for stateful nodes that kept per-run state across runs
(window indices kept counting, sinks accumulated results from previous
runs, feedback emitters remembered stale in-flight counts, aligners
rejected fresh grid points as "already emitted").
"""

import pytest

from repro.analysis.engines import GatherNode, StatEngineNode
from repro.analysis.windows import SlidingWindowNode
from repro.ff import Farm, GO_ON, MasterWorkerEmitter, Node, Pipeline, run
import numpy as np

from repro.ff.node import SinkNode
from repro.sim.trajectory import CutBlock

BACKENDS = ("sequential", "threads")


def _cuts(n):
    """``n`` one-trajectory cuts, one block each (grid ``g`` at time
    ``g`` with value ``g``)."""
    return [CutBlock(g, np.array([float(g)]), np.array([[[float(g)]]]))
            for g in range(n)]


@pytest.mark.parametrize("backend", BACKENDS)
class TestSlidingWindowReuse:
    def test_two_runs_identical_windows(self, backend):
        node = SlidingWindowNode(size=4, slide=2)
        structure = Pipeline([_cuts(10), node])
        first = run(structure, backend=backend)
        second = run(structure, backend=backend)
        assert [w.index for w in first] == [w.index for w in second]
        assert ([w.data.tolist() for w in first]
                == [w.data.tolist() for w in second])
        assert first[0].index == 0  # indices restart, don't continue

    def test_no_leaked_tail_from_previous_run(self, backend):
        # 3 items with size=2/slide=2 leave one cut buffered at EOS,
        # which leaves as a partial tail; it must not leak into the next
        # run, whose windows are its own [0, 1] and tail [2] again
        node = SlidingWindowNode(size=2, slide=2)
        structure = Pipeline([_cuts(3), node])
        run(structure, backend=backend)
        second = run(structure, backend=backend)
        assert [w.grid_indices.tolist() for w in second] == [[0, 1], [2]]


class _Task:
    def __init__(self, tid, n):
        self.tid = tid
        self.n = n


class _Emitter(MasterWorkerEmitter):
    def is_complete(self, task):
        return task.n <= 0


class _Worker(Node):
    def svc(self, task):
        task.n -= 1
        self.ff_send_out(task.tid)
        self.send_feedback(task)
        return GO_ON


@pytest.mark.parametrize("backend", BACKENDS)
class TestFeedbackFarmReuse:
    def test_emitter_state_reset_between_runs(self, backend):
        emitter = _Emitter()
        farm = Farm([_Worker(name=f"w{i}") for i in range(2)],
                    emitter=emitter, feedback=True)

        def go():
            tasks = [_Task(i, 2) for i in range(3)]
            return run(Pipeline([tasks, farm]), backend=backend)

        first = go()
        second = go()
        assert sorted(first) == sorted(second) == [0, 0, 1, 1, 2, 2]
        # completed counts this run only, not the cumulative total
        assert emitter.completed == 3
        assert emitter.in_flight == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestSinkAndEngineReuse:
    def test_sink_holds_only_latest_run(self, backend):
        sink = SinkNode()
        structure = Pipeline([range(5), lambda x: x * 2, sink])
        run(structure, backend=backend, collect=False)
        run(structure, backend=backend, collect=False)
        assert sink.results == [0, 2, 4, 6, 8]  # not doubled up

    def test_engine_counters_restart(self, backend):
        gather = GatherNode()
        engine = StatEngineNode()
        structure = Pipeline([_cuts(4), SlidingWindowNode(size=2), engine,
                              gather])
        run(structure, backend=backend)
        run(structure, backend=backend)
        assert engine.windows_processed == 2
        assert gather.results_gathered == 2
