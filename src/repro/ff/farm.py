"""The farm core pattern: emitter -> worker pool -> collector.

A :class:`Farm` replicates a worker over ``n`` parallel instances and
dispatches the input stream across them.  Options mirror FastFlow:

* ``emitter`` -- an optional user node placed before the dispatch point
  (the paper's *generation of simulation tasks* / *generation of sliding
  windows* boxes are emitters);
* ``collector`` -- an optional user node placed after the merge point
  (the paper's *alignment of trajectories* / *gather* boxes);
* ``scheduling`` -- ``"ondemand"`` (default; load-balances the heavily
  unbalanced Gillespie trajectories) or ``"roundrobin"``;
* ``ordered`` -- the output stream preserves the input order (sequence
  tags assigned at dispatch, reorder buffer at the merge point);
* ``feedback`` -- workers get a feedback edge back to the emitter, turning
  the farm into a master-worker: the paper's simulation farm reschedules
  each incomplete simulation task along this edge after every quantum
  that yields a sample.

Workers may be :class:`~repro.ff.node.Node` instances, callables, or whole
:class:`~repro.ff.pipeline.Pipeline` objects (the *farm of simulation
pipelines* used by the distributed CWC simulator).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.ff.errors import GraphError
from repro.ff.graph import (
    ChannelOutbox,
    DispatchOutbox,
    Graph,
    NullOutbox,
    RtNode,
    Structure,
    TaggingOutbox,
)
from repro.ff.node import GO_ON, EOS, Node, as_node
from repro.ff.pipeline import Pipeline
from repro.ff.queues import Channel

#: Group name under which upstream producers feed a farm's emitter channel.
UPSTREAM_GROUP = "default"
#: Group name under which feedback edges feed a farm's emitter channel.
FEEDBACK_GROUP = "feedback"


class Feedback:
    """Wrapper marking an item that arrived on the feedback edge, so a
    master-worker emitter can tell it apart from upstream input."""

    __slots__ = ("item",)

    def __init__(self, item: Any):
        self.item = item

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Feedback({self.item!r})"


class _IdentityEmitter(Node):
    """Implicit emitter inserted when the user does not provide one."""

    def svc(self, item: Any) -> Any:
        return item


class _Reorderer(Node):
    """Implicit identity collector inserted to host the reorder buffer of
    an ordered farm that has no user collector."""

    def svc(self, item: Any) -> Any:
        return item


class Farm(Structure):
    """See module docstring.

    >>> from repro.ff import Farm, Pipeline, run
    >>> farm = Farm.replicate(lambda x: x + 1, 4, ordered=True)
    >>> run(Pipeline([range(6), farm]))
    [1, 2, 3, 4, 5, 6]
    """

    def __init__(self, workers: Iterable[Any], emitter: Any = None,
                 collector: Any = None, feedback: bool = False,
                 ordered: bool = False, scheduling: str = "ondemand",
                 name: str = "farm"):
        self.name = name
        self.workers: list[Node | Pipeline] = []
        for w in workers:
            if isinstance(w, Pipeline):
                self.workers.append(w)
            else:
                self.workers.append(as_node(w))
        if not self.workers:
            raise GraphError("a farm needs at least one worker")
        self.emitter: Optional[Node] = None if emitter is None else as_node(emitter)
        self.collector: Optional[Node] = (
            None if collector is None else as_node(collector))
        self.feedback = feedback
        self.ordered = ordered
        self.scheduling = scheduling
        if scheduling not in ("ondemand", "roundrobin"):
            raise GraphError(f"unknown scheduling policy {scheduling!r}")
        if ordered and feedback:
            raise GraphError("ordered farms cannot use feedback edges")
        if ordered and any(isinstance(w, Pipeline) for w in self.workers):
            raise GraphError("ordered farms require plain Node workers")
        if feedback and self.emitter is None:
            raise GraphError(
                "a feedback farm needs an explicit emitter that decides "
                "when the stream terminates (see MasterWorkerEmitter)")

    @classmethod
    def replicate(cls, worker_factory: Callable[[], Any] | Callable[[Any], Any],
                  n: int, **kwargs: Any) -> "Farm":
        """Build a farm of ``n`` workers.

        If ``worker_factory`` takes no arguments it is called ``n`` times to
        create independent worker instances; otherwise it is assumed to be
        the per-item function itself and is shared (it must then be
        stateless/thread-safe).
        """
        if n < 1:
            raise GraphError(f"farm width must be >= 1, got {n}")
        import inspect

        try:
            takes_no_args = len(inspect.signature(worker_factory).parameters) == 0
        except (TypeError, ValueError):
            takes_no_args = False
        if takes_no_args:
            workers = [worker_factory() for _ in range(n)]
        else:
            workers = [worker_factory for _ in range(n)]
        return cls(workers, **kwargs)

    @property
    def width(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------
    def nodes(self) -> list[Node]:
        out: list[Node] = []
        if self.emitter is not None:
            out.append(self.emitter)
        for w in self.workers:
            if isinstance(w, Pipeline):
                out.extend(w.nodes())
            else:
                out.append(w)
        if self.collector is not None:
            out.append(self.collector)
        return out

    def expand(self, graph: Graph, in_channel: Optional[Channel],
               out_channel: Optional[Channel], capacity: int) -> None:
        emitter = self.emitter
        if emitter is None and in_channel is not None:
            emitter = _IdentityEmitter(name=f"{self.name}.dispatch")
        if emitter is None:
            raise GraphError(
                f"farm {self.name!r} is the head of the graph and has no "
                "emitter to generate the stream")

        # --- worker input channels + dispatch ---------------------------
        worker_channels = [
            graph.new_channel(capacity, name=f"{self.name}.w{i}.in")
            for i in range(self.width)
        ]
        dispatch = DispatchOutbox(worker_channels, policy=self.scheduling)
        emitter_outbox = TaggingOutbox(dispatch) if self.ordered else dispatch

        # The emitter's input channel: upstream producers already
        # registered on ``in_channel``; feedback producers register below.
        emitter_rt = graph.add(RtNode(
            node=emitter, in_channel=in_channel, outbox=emitter_outbox,
            name=f"{self.name}.emitter"))

        # --- merge point -------------------------------------------------
        collector = self.collector
        if collector is None and self.ordered and out_channel is not None:
            collector = _Reorderer(name=f"{self.name}.reorder")
        if collector is not None:
            merge_channel = graph.new_channel(
                capacity, name=f"{self.name}.merge")
            collector_out = (ChannelOutbox(out_channel)
                             if out_channel is not None else NullOutbox())
            graph.add(RtNode(
                node=collector, in_channel=merge_channel,
                outbox=collector_out, reorder=self.ordered,
                name=f"{self.name}.collector"))
            worker_out_channel: Optional[Channel] = merge_channel
        else:
            worker_out_channel = out_channel

        # --- workers -----------------------------------------------------
        for i, worker in enumerate(self.workers):
            feedback_outbox = None
            if self.feedback:
                if in_channel is None:
                    raise GraphError(
                        "feedback farm needs an upstream stage feeding the "
                        "emitter (use a trivial source)")
                feedback_outbox = ChannelOutbox(
                    in_channel, group=FEEDBACK_GROUP, force=True)
            if isinstance(worker, Pipeline):
                self._expand_worker_pipeline(
                    graph, worker, worker_channels[i], worker_out_channel,
                    feedback_outbox, capacity, i)
            else:
                outbox = (ChannelOutbox(worker_out_channel)
                          if worker_out_channel is not None else NullOutbox())
                graph.add(RtNode(
                    node=worker, in_channel=worker_channels[i],
                    outbox=outbox, feedback=feedback_outbox,
                    tagged=self.ordered, name=f"{self.name}.w{i}"))

    def _expand_worker_pipeline(self, graph: Graph, worker: Pipeline,
                                in_ch: Channel, out_ch: Optional[Channel],
                                feedback_outbox, capacity: int,
                                idx: int) -> None:
        """Expand a pipeline worker, binding the feedback edge (if any) to
        every stage of the pipeline."""
        before = len(graph.rt_nodes)
        worker.expand(graph, in_ch, out_ch, capacity)
        if feedback_outbox is not None:
            for rt in graph.rt_nodes[before:]:
                if rt.feedback is None:
                    rt.feedback = feedback_outbox
            # Only one producer registration happened; that is correct:
            # the pipeline counts as a single feedback producer and the
            # executor closes it once, when the last stage finishes.
            for rt in graph.rt_nodes[before:-1]:
                rt.feedback = _SharedOutbox(feedback_outbox)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Farm(width={self.width}, ordered={self.ordered}, "
                f"feedback={self.feedback}, scheduling={self.scheduling!r})")


class _SharedOutbox:
    """A view on an outbox whose close() is a no-op (the owner closes)."""

    def __init__(self, inner):
        self.inner = inner

    def send(self, item: Any) -> None:
        self.inner.send(item)

    def close(self) -> None:
        pass


class MasterWorkerEmitter(Node):
    """Base emitter for feedback farms, tracking in-flight work.

    The protocol matches the paper's simulation farm: every item arriving
    from upstream is turned into dispatched work (``on_task``); workers
    must send each work item back along the feedback edge after processing
    it (wrapped in :class:`Feedback` by the runtime); ``is_complete``
    decides whether the item is done or must be rescheduled.  When upstream
    has finished and no work is in flight, the emitter ends the stream.

    Subclasses typically override only :meth:`is_complete`, and optionally
    :meth:`on_task` / :meth:`on_reschedule` to customise dispatch.
    """

    def __init__(self, name: str = ""):
        super().__init__(name=name)
        self.in_flight = 0
        self.upstream_done = False
        self.completed = 0

    def svc_init(self) -> None:
        """Reset the in-flight bookkeeping so the same emitter instance
        can run the same structure more than once (subclasses overriding
        this must call ``super().svc_init()``)."""
        self.in_flight = 0
        self.upstream_done = False
        self.completed = 0

    # -- policy hooks ---------------------------------------------------
    def is_complete(self, item: Any) -> bool:
        """Return True when a fed-back item needs no more processing."""
        raise NotImplementedError

    def on_task(self, task: Any) -> Any:
        """Map an upstream item to the work to dispatch (default: as-is)."""
        return task

    def on_reschedule(self, item: Any) -> Any:
        """Map an incomplete fed-back item to the work to re-dispatch."""
        return item

    def on_complete(self, item: Any) -> None:
        """Hook invoked when a fed-back item completed."""

    # -- wiring ----------------------------------------------------------
    def svc(self, item: Any) -> Any:
        if isinstance(item, Feedback):
            inner = item.item
            if self.is_complete(inner):
                self.in_flight -= 1
                self.completed += 1
                self.on_complete(inner)
                if self.upstream_done and self.in_flight == 0:
                    return EOS
                return GO_ON
            return self.on_reschedule(inner)
        self.in_flight += 1
        return self.on_task(item)

    def eos_notify(self, group: str) -> Any:
        if group == UPSTREAM_GROUP:
            self.upstream_done = True
            if self.in_flight == 0:
                return EOS
        return GO_ON
