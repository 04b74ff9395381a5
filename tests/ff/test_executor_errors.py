"""Multi-worker failure aggregation and executor error equivalence.

Regression for error swallowing: the threaded executor used to raise
only ``errors[0]`` and silently drop every other node failure, making
multi-worker crashes undiagnosable.
"""

import pytest

from repro.ff import (
    Farm,
    MultiNodeError,
    Node,
    NodeError,
    Pipeline,
    run,
)
from repro.ff.errors import aggregate_node_errors


class _Bomb(Node):
    def svc(self, item):
        raise RuntimeError(f"{self.name} exploded on {item!r}")


def _two_bomb_farm():
    # round-robin guarantees both workers receive items and both raise
    return Farm([_Bomb(name="b0"), _Bomb(name="b1")],
                scheduling="roundrobin")


class TestAggregation:
    def test_helper_contract(self):
        assert aggregate_node_errors([]) is None
        single = NodeError("n", ValueError("x"))
        assert aggregate_node_errors([single]) is single
        multi = aggregate_node_errors([single,
                                       NodeError("m", KeyError("y"))])
        assert isinstance(multi, MultiNodeError)
        assert [e.node_name for e in multi.errors] == ["n", "m"]

    def test_multi_is_a_node_error(self):
        """Existing ``except NodeError`` handlers keep working."""
        err = MultiNodeError([NodeError("a", ValueError("v")),
                              NodeError("b", KeyError("k"))])
        assert isinstance(err, NodeError)
        assert err.node_name == "a"
        assert isinstance(err.original, ValueError)
        assert "2 nodes failed" in str(err)

    def test_empty_multi_rejected(self):
        with pytest.raises(ValueError):
            MultiNodeError([])


class TestThreadedFarmFailures:
    def test_all_worker_errors_surface(self):
        with pytest.raises(NodeError) as info:
            run(Pipeline([range(20), _two_bomb_farm()]),
                backend="threads", capacity=2)
        err = info.value
        assert isinstance(err, MultiNodeError)
        assert {e.node_name for e in err.errors} == {"b0", "b1"}
        for sub in err.errors:
            assert isinstance(sub.original, RuntimeError)

    def test_single_failure_stays_plain_node_error(self):
        farm = Farm([_Bomb(name="b0"), lambda x: x],
                    scheduling="roundrobin")
        with pytest.raises(NodeError) as info:
            run(Pipeline([range(20), farm]), backend="threads",
                capacity=2)
        assert not isinstance(info.value, MultiNodeError)
        assert info.value.node_name == "b0"

    def test_worker_raises_mid_farm_terminates_run(self):
        """A worker dying mid-stream must not hang emitter/collector."""

        class MidBomb(Node):
            def svc(self, item):
                if item >= 10:
                    raise RuntimeError("mid-stream death")
                return item

        farm = Farm([MidBomb(name="m0"), MidBomb(name="m1")],
                    scheduling="roundrobin")
        with pytest.raises(NodeError):
            run(Pipeline([range(100), farm]), backend="threads",
                capacity=4)


class TestSequentialEquivalence:
    def test_sequential_wraps_in_node_error(self):
        with pytest.raises(NodeError) as info:
            run(Pipeline([range(20), _two_bomb_farm()]),
                backend="sequential")
        assert info.value.node_name in {"b0", "b1"}
        assert isinstance(info.value.original, RuntimeError)

    def test_both_backends_raise_node_error_same_origin(self):
        """Equivalence under injected node errors: both executors report
        a NodeError whose original exception comes from a bomb worker."""
        observed = {}
        for backend in ("threads", "sequential"):
            with pytest.raises(NodeError) as info:
                run(Pipeline([range(20), _two_bomb_farm()]),
                    backend=backend, capacity=2)
            observed[backend] = info.value
        for err in observed.values():
            assert isinstance(err.original, RuntimeError)
            assert err.node_name in {"b0", "b1"}

    def test_sequential_releases_other_nodes_on_error(self):
        """After a mid-graph failure the interpreter must still close the
        remaining nodes (svc_end runs, channels are released)."""
        ended = []

        class Recording(Node):
            def svc(self, item):
                return item

            def svc_end(self):
                ended.append(self.name)

        class Bomb(Node):
            def svc(self, item):
                raise ValueError("boom")

        with pytest.raises(NodeError):
            run(Pipeline([range(5), Recording(name="up"), Bomb(),
                          Recording(name="down")]),
                backend="sequential")
        assert "down" in ended

    def test_sequential_source_error_wrapped(self):
        def broken():
            yield 1
            raise ValueError("source broke")

        from repro.ff.node import SourceNode

        class BrokenSource(SourceNode):
            def generate(self):
                return broken()

        with pytest.raises(NodeError) as info:
            run(Pipeline([BrokenSource(), lambda x: x]),
                backend="sequential")
        assert isinstance(info.value.original, ValueError)
