"""Executors: run a compiled streaming graph.

Two backends are provided:

* :class:`ThreadedExecutor` -- one thread per runtime node, blocking on
  bounded channels.  This mirrors FastFlow's thread-per-node runtime: all
  stages really execute concurrently, backpressure propagates through the
  bounded queues, and pipeline/farm parallelism overlaps (subject to the
  GIL for pure-Python stages -- see DESIGN.md for how performance numbers
  are obtained on the modeled platforms instead).
* :class:`SequentialExecutor` -- a deterministic single-threaded
  round-robin interpreter of the same graph.  Used by tests and
  property-based checks, and as the reference semantics: for any graph,
  both executors must produce the same multiset of results (and the same
  sequence for ordered compositions).

``run(structure)`` is the convenience entry point.
"""

from __future__ import annotations

import heapq
import threading
from time import perf_counter
from typing import Any, Callable, Optional

from repro.ff.errors import GraphError, NodeError, aggregate_node_errors
from repro.ff.graph import Graph, RtNode, Structure
from repro.ff.farm import Feedback
from repro.ff.node import EOS, GO_ON, Emit
from repro.ff.queues import GroupDone
from repro.ff.trace import Tracer, TracingOutbox

_SKIP = object()  # placeholder for "no output" slots in ordered farms


class _FeedbackSender:
    """Bound to ``node._feedback``: wraps items so the emitter can tell
    feedback from upstream input."""

    def __init__(self, outbox):
        self._outbox = outbox

    def send(self, item: Any) -> None:
        self._outbox.send(Feedback(item))


class _CollectingOutbox:
    """Captures ``ff_send_out`` output of a tagged (ordered-farm) worker so
    it can be re-wrapped with the input's sequence tag."""

    def __init__(self):
        self.items: list[Any] = []

    def send(self, item: Any) -> None:
        self.items.append(item)


class _Tagged:
    """Output envelope of an ordered-farm worker: all outputs for seq."""

    __slots__ = ("seq", "items")

    def __init__(self, seq: int, items: list[Any]):
        self.seq = seq
        self.items = items


def compile_graph(structure: Structure, capacity: int, collect: bool,
                  tracer: Optional[Tracer] = None) -> Graph:
    """Expand a pattern composition into a runnable :class:`Graph`.

    When ``tracer`` is given, every channel of the compiled graph gets a
    :class:`~repro.ff.trace.ChannelTrace` attached so push/pop record
    occupancy and blocked time.
    """
    nodes = structure.nodes()
    seen: set[int] = set()
    for node in nodes:
        if id(node) in seen:
            raise GraphError(
                f"node instance {node!r} appears more than once in the "
                "graph; every position needs its own instance")
        seen.add(id(node))
    graph = Graph()
    if collect:
        graph.result_channel = graph.new_channel(capacity, name="results")
    structure.expand(graph, None, graph.result_channel, capacity)
    for rt in graph.rt_nodes:
        if rt.in_channel is None and not hasattr(rt.node, "generate"):
            raise GraphError(
                f"head node {rt.node!r} has no input and no generate(); "
                "the first stage of a graph must be a source")
    if tracer is not None:
        for ch in graph.channels:
            ch._trace = tracer.channel(ch)
    return graph


class _Runner:
    """Per-node execution state shared by both executors.

    When ``tracer`` is given the runner records items in/out, per-item
    service time and svc error counts into a per-node
    :class:`~repro.ff.trace.NodeTrace`; without one, the per-item cost of
    the instrumentation is a single ``is None`` check.
    """

    def __init__(self, rt: RtNode, tracer: Optional[Tracer] = None):
        self.rt = rt
        self.node = rt.node
        self.tracer = tracer
        self.trace = tracer.node(rt.name) if tracer is not None else None
        self.outbox = (TracingOutbox(rt.outbox, self.trace)
                       if self.trace is not None else rt.outbox)
        self.finished = False
        self.started = False
        self.error: Optional[BaseException] = None
        self._gen = None
        # reorder buffer (consumers of ordered farms)
        self._heap: list[tuple[int, list[Any]]] = []
        self._next_seq = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        node = self.node
        node._outbox = self.outbox
        node._tracer = self.tracer
        if self.rt.feedback is not None:
            node._feedback = _FeedbackSender(self.rt.feedback)
        node.svc_init()
        if self.rt.in_channel is None:
            self._gen = iter(node.generate())
        self.started = True

    def finish(self, *, abandon_input: bool = False) -> None:
        if self.finished:
            return
        self.finished = True
        if abandon_input and self.rt.in_channel is not None:
            self.rt.in_channel.abandon()
        try:
            self.node.svc_end()
        finally:
            self.outbox.close()
            if self.rt.feedback is not None:
                self.rt.feedback.close()
            self.node._outbox = None
            self.node._feedback = None
            self.node._tracer = None

    # ------------------------------------------------------------------
    # output routing
    # ------------------------------------------------------------------
    def _route_plain(self, result: Any) -> bool:
        """Route a svc/eos_notify result.  Returns True if the node asked
        to terminate the stream (returned EOS)."""
        if result is GO_ON:
            return False
        if result is EOS:
            return True
        if isinstance(result, Emit):
            for item in result.items:
                self.outbox.send(item)
            return False
        self.outbox.send(result)
        return False

    def _svc_tagged(self, seq: int, payload: Any) -> bool:
        """Run svc for an ordered-farm worker, preserving the tag."""
        node = self.node
        collector = _CollectingOutbox()
        real_outbox = node._outbox
        node._outbox = collector
        try:
            result = node.svc(payload)
        finally:
            node._outbox = real_outbox
        items = list(collector.items)
        if result is EOS:
            self.outbox.send(_Tagged(seq, items))
            return True
        if isinstance(result, Emit):
            items.extend(result.items)
        elif result is not GO_ON:
            items.append(result)
        self.outbox.send(_Tagged(seq, items))
        return False

    def _deliver_reordered(self, tagged: _Tagged) -> bool:
        """Buffer a tagged envelope; deliver contiguous ones in order."""
        heapq.heappush(self._heap, (tagged.seq, tagged.items))
        while self._heap and self._heap[0][0] == self._next_seq:
            _, items = heapq.heappop(self._heap)
            self._next_seq += 1
            for item in items:
                if self._route_plain(self.node.svc(item)):
                    return True
        return False

    def process(self, item: Any) -> bool:
        """Process one popped item.  Returns True when the node is done."""
        if self.trace is not None:
            return self._process_traced(item)
        return self._process(item)

    def _process(self, item: Any) -> bool:
        if item is EOS:
            return True
        if isinstance(item, GroupDone):
            return self._route_plain(self.node.eos_notify(item.group))
        if self.rt.tagged:
            seq, payload = item
            return self._svc_tagged(seq, payload)
        if self.rt.reorder:
            if isinstance(item, _Tagged):
                return self._deliver_reordered(item)
            # untagged item reaching a reorder consumer is a wiring bug
            raise GraphError(
                f"untagged item {item!r} reached ordered consumer "
                f"{self.node.name!r}")
        return self._route_plain(self.node.svc(item))

    def _process_traced(self, item: Any) -> bool:
        if item is EOS or isinstance(item, GroupDone):
            return self._process(item)
        self.trace.items_in += 1
        started = perf_counter()
        try:
            done = self._process(item)
        except BaseException:
            self.trace.svc_errors += 1
            self.trace.record_svc(perf_counter() - started)
            raise
        self.trace.record_svc(perf_counter() - started)
        return done

    def source_step(self) -> bool:
        """Produce one item from a source.  Returns True when exhausted."""
        if self.trace is None:
            try:
                item = next(self._gen)
            except StopIteration:
                return True
            self.outbox.send(item)
            return False
        started = perf_counter()
        try:
            item = next(self._gen)
        except StopIteration:
            return True
        except BaseException:
            self.trace.svc_errors += 1
            raise
        self.trace.record_svc(perf_counter() - started)
        self.outbox.send(item)
        return False


def _thread_body(runner: _Runner,
                 record_error: Callable[[NodeError], None]) -> None:
    """The per-node thread loop of :class:`ThreadedExecutor`."""
    trace = runner.trace
    try:
        runner.start()
        if runner.rt.in_channel is None:
            while not runner.source_step():
                pass
            runner.finish()
        else:
            while True:
                if trace is None:
                    item = runner.rt.in_channel.pop()
                else:
                    started = perf_counter()
                    item = runner.rt.in_channel.pop()
                    trace.record_idle(perf_counter() - started)
                if runner.process(item):
                    runner.finish(abandon_input=item is not EOS)
                    break
    except BaseException as exc:  # noqa: BLE001 - must not kill the run
        record_error(NodeError(runner.node.name, exc))
        try:
            runner.finish(abandon_input=True)
        except BaseException:
            pass


class ThreadedExecutor:
    """One OS thread per runtime node (FastFlow's accelerator-less mode)."""

    def __init__(self, capacity: int = 512):
        self.capacity = capacity

    def run(self, structure: Structure, collect: bool = True,
            trace: Optional[Tracer] = None) -> list[Any]:
        graph = compile_graph(structure, self.capacity, collect,
                              tracer=trace)
        errors: list[NodeError] = []
        errors_lock = threading.Lock()

        def record_error(err: NodeError) -> None:
            with errors_lock:
                errors.append(err)

        runners = [_Runner(rt, tracer=trace) for rt in graph.rt_nodes]
        threads = [
            threading.Thread(target=_thread_body, args=(r, record_error),
                             daemon=True, name=f"ff-{r.node.name}")
            for r in runners
        ]
        if trace is not None:
            trace.start()
        try:
            for t in threads:
                t.start()
            results: list[Any] = []
            if graph.result_channel is not None:
                results = list(graph.result_channel.drain())
            for t in threads:
                t.join()
        finally:
            if trace is not None:
                trace.stop()
        failure = aggregate_node_errors(errors)
        if failure is not None:
            raise failure
        return results


class SequentialExecutor:
    """Deterministic single-threaded interpreter of the same graphs.

    Channels are made effectively unbounded (backpressure is meaningless
    with one thread of control); nodes are stepped round-robin, each step
    consuming at most one item, so interleavings are reproducible.
    """

    _UNBOUNDED = 2 ** 60

    def run(self, structure: Structure, collect: bool = True,
            trace: Optional[Tracer] = None) -> list[Any]:
        graph = compile_graph(structure, self._UNBOUNDED, collect,
                              tracer=trace)
        runners = [_Runner(rt, tracer=trace) for rt in graph.rt_nodes]
        if trace is not None:
            trace.start()
        try:
            return self._interpret(graph, runners)
        finally:
            if trace is not None:
                trace.stop()

    def _interpret(self, graph: Graph,
                   runners: "list[_Runner]") -> list[Any]:
        pending = set(range(len(runners)))
        for runner in runners:
            try:
                runner.start()
            except BaseException as exc:  # noqa: BLE001
                self._release(runners, pending)
                raise NodeError(runner.node.name, exc)
        results: list[Any] = []
        while pending:
            progress = False
            for i in sorted(pending):
                runner = runners[i]
                try:
                    if runner.rt.in_channel is None:
                        done = runner.source_step()
                        progress = True
                        if done:
                            runner.finish()
                            pending.discard(i)
                        continue
                    got, item = runner.rt.in_channel.try_pop()
                    if not got:
                        continue
                    progress = True
                    if runner.process(item):
                        runner.finish(abandon_input=item is not EOS)
                        pending.discard(i)
                except NodeError:
                    raise
                except BaseException as exc:  # noqa: BLE001
                    self._release(runners, pending)
                    raise NodeError(runner.node.name, exc)
            if graph.result_channel is not None:
                while True:
                    got, item = graph.result_channel.try_pop()
                    if not got or item is EOS:
                        break
                    if not isinstance(item, GroupDone):
                        results.append(item)
            if not progress and pending:
                raise GraphError(
                    "graph stalled: nodes "
                    f"{[runners[i].node.name for i in sorted(pending)]} "
                    "have no input and the stream is not finished")
        if graph.result_channel is not None:
            for item in graph.result_channel.drain():
                results.append(item)
        return results

    @staticmethod
    def _release(runners: "list[_Runner]", pending: "set[int]") -> None:
        """Best-effort teardown after a node error: finish the remaining
        runners so channels close and svc_end hooks fire (mirrors the
        threaded executor, where every other thread winds down)."""
        for i in sorted(pending):
            try:
                if runners[i].started:
                    runners[i].finish(abandon_input=True)
            except BaseException:  # noqa: BLE001 - teardown only
                pass


def run(structure: Structure, backend: str = "threads",
        capacity: int = 512, collect: bool = True,
        trace: Optional[Tracer] = None) -> list[Any]:
    """Run a pattern composition and return the collected output stream.

    ``backend`` is ``"threads"`` (concurrent, FastFlow-like) or
    ``"sequential"`` (deterministic reference interpreter).  Pass a
    :class:`~repro.ff.trace.Tracer` as ``trace`` to record per-node /
    per-channel runtime metrics; ``trace.report()`` afterwards yields the
    structured run report.
    """
    if backend == "threads":
        return ThreadedExecutor(capacity=capacity).run(structure, collect,
                                                       trace=trace)
    if backend == "sequential":
        return SequentialExecutor().run(structure, collect, trace=trace)
    raise GraphError(f"unknown backend {backend!r}")
