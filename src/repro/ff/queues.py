"""Bounded streaming channels (the FastFlow SPSC/MPSC queue equivalent).

FastFlow's building block is a lock-free bounded single-producer
single-consumer FIFO queue.  In CPython the GIL already serialises byte-code
execution, so a lock-free ring buffer buys nothing; what matters for the
runtime semantics is preserved here:

* **bounded capacity with backpressure** -- a full channel blocks producers,
  which is what throttles the simulation farm when the analysis pipeline is
  the bottleneck (the effect behind Fig. 3 of the paper);
* **end-of-stream bookkeeping** -- a channel knows how many producers feed
  it, grouped by *producer group*, so a farm collector terminates only after
  every worker has finished, and a master-worker emitter can distinguish
  "upstream finished" from "feedback drained";
* **abandonment** -- when a consumer exits early (e.g. a master-worker
  emitter that decided the stream is over, or a node that raised)
  pending producers must not deadlock pushing into a queue nobody reads,
  and an item nobody will read gives back what it holds.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Any, Hashable, Iterator, Optional

from repro.ff.errors import QueueClosedError

DEFAULT_CAPACITY = 512


def _discard(item: Any) -> None:
    """Drop an item no consumer will ever see: if it owns something it
    would have given back once consumed (a mapped
    :class:`~repro.sim.task.ResultBlock` its shared-memory segment), it
    gives it back now."""
    release = getattr(item, "release", None)
    if release is not None:
        release()


class _EndOfStream:
    """Sentinel returned by :meth:`Channel.pop` when the stream is over."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "EOS"


#: The end-of-stream sentinel (FastFlow's ``FF_EOS``).
EOS = _EndOfStream()


@dataclass(frozen=True)
class GroupDone:
    """In-band token delivered when a whole producer group completed.

    A master-worker emitter receives ``GroupDone("upstream")`` when the task
    generator upstream has finished, while its feedback producers (the
    workers) are still alive.  Plain nodes never see this token: the runtime
    swallows it and calls ``Node.eos_notify`` instead.
    """

    group: str


@dataclass(frozen=True)
class ChannelStats:
    """One atomic snapshot of a channel's counters (taken under the
    channel lock, so ``pushed``/``popped``/``length`` are consistent with
    each other)."""

    name: str
    capacity: int
    length: int
    pushed: int
    popped: int
    high_water: int
    abandoned: bool
    closed: bool


class Channel:
    """A bounded multi-producer single-consumer FIFO with EOS bookkeeping.

    Producers must be registered (:meth:`register_producer`) before the
    channel is used and must call :meth:`producer_done` exactly once when
    they finish.  When the last producer of a *group* finishes, a
    :class:`GroupDone` token is enqueued in-band; when the last producer
    overall finishes, :meth:`pop` returns :data:`EOS` once the queue drains.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, name: str = ""):
        if capacity < 1:
            raise ValueError(f"channel capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._queue: deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        # group name -> [registered, done]
        self._groups: dict[Hashable, list[int]] = {}
        self._abandoned = False
        self._pushed = 0
        self._popped = 0
        self._high_water = 0
        #: bound by the executors when tracing is enabled; the hot paths
        #: only pay an ``is None`` check when it is not
        self._trace: Optional[Any] = None

    # ------------------------------------------------------------------
    # producer lifecycle
    # ------------------------------------------------------------------
    def register_producer(self, group: str = "default") -> None:
        """Declare that one more producer (in ``group``) will feed this
        channel.  Must happen before any producer finishes."""
        with self._lock:
            reg = self._groups.setdefault(group, [0, 0])
            reg[0] += 1

    def producer_done(self, group: str = "default") -> None:
        """Signal that one producer of ``group`` has finished."""
        with self._lock:
            reg = self._groups.get(group)
            if reg is None or reg[0] == 0:
                raise QueueClosedError(
                    f"producer_done({group!r}) on channel {self.name!r} "
                    "without a matching register_producer"
                )
            reg[1] += 1
            if reg[1] > reg[0]:
                raise QueueClosedError(
                    f"too many producer_done({group!r}) on channel {self.name!r}"
                )
            if reg[1] == reg[0]:
                # Whole group finished: deliver the in-band token.
                self._queue.append(GroupDone(group))
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        """True when every registered producer has called producer_done."""
        with self._lock:
            return self._all_done_locked()

    def _all_done_locked(self) -> bool:
        return bool(self._groups) and all(
            done == reg for reg, done in self._groups.values()
        )

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def push(self, item: Any, timeout: float | None = None) -> bool:
        """Append ``item``, blocking while the channel is full.

        Returns ``True`` if the item was enqueued, ``False`` if the channel
        was abandoned by its consumer (the item is discarded -- this
        mirrors a FastFlow worker pushing into a farm whose emitter already
        terminated the stream).

        ``timeout`` bounds the *total* blocking time: a producer that is
        notified while the channel is still full waits only the remaining
        part of its budget before raising :class:`TimeoutError`.
        """
        deadline = monotonic() + timeout if timeout is not None else None
        wait_started = None
        with self._not_full:
            while True:
                if self._abandoned:
                    self._record_blocked_push_locked(wait_started)
                    _discard(item)
                    return False
                if len(self._queue) < self.capacity:
                    self._queue.append(item)
                    self._pushed += 1
                    n = len(self._queue)
                    if n > self._high_water:
                        self._high_water = n
                    tr = self._trace
                    if tr is not None:
                        blocked = (perf_counter() - wait_started
                                   if wait_started is not None else 0.0)
                        tr.record_push(n, blocked)
                    self._not_empty.notify()
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        self._record_blocked_push_locked(wait_started)
                        raise TimeoutError(
                            f"push on channel {self.name!r} timed out"
                        )
                if self._trace is not None and wait_started is None:
                    wait_started = perf_counter()
                self._not_full.wait(timeout=remaining)

    def push_unbounded(self, item: Any) -> bool:
        """Append bypassing capacity.  Used by feedback edges to break the
        emitter<->worker backpressure cycle (FastFlow uses unbounded
        feedback queues for the same reason)."""
        with self._lock:
            if self._abandoned:
                _discard(item)
                return False
            self._queue.append(item)
            self._pushed += 1
            n = len(self._queue)
            if n > self._high_water:
                self._high_water = n
            if self._trace is not None:
                self._trace.record_push(n, 0.0)
            self._not_empty.notify()
            return True

    def _record_blocked_push_locked(self, wait_started) -> None:
        if self._trace is not None and wait_started is not None:
            self._trace.record_push(len(self._queue),
                                    perf_counter() - wait_started)

    def pop(self, timeout: float | None = None) -> Any:
        """Remove and return the oldest item.

        Returns :data:`EOS` when the queue is empty and all producers have
        finished.  :class:`GroupDone` tokens are returned in-band so the
        caller (the node runtime) can react to partial terminations.

        Like :meth:`push`, ``timeout`` bounds the total blocking time with
        a deadline, not each individual wait.
        """
        deadline = monotonic() + timeout if timeout is not None else None
        wait_started = None
        with self._not_empty:
            while True:
                if self._queue:
                    item = self._queue.popleft()
                    self._popped += 1
                    tr = self._trace
                    if tr is not None:
                        blocked = (perf_counter() - wait_started
                                   if wait_started is not None else 0.0)
                        tr.record_pop(blocked)
                    self._not_full.notify()
                    return item
                if self._all_done_locked():
                    return EOS
                remaining = None
                if deadline is not None:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"pop on channel {self.name!r} timed out"
                        )
                if self._trace is not None and wait_started is None:
                    wait_started = perf_counter()
                self._not_empty.wait(timeout=remaining)

    def try_pop(self) -> tuple[bool, Any]:
        """Non-blocking pop: ``(True, item)``, ``(True, EOS)`` when the
        stream is over, or ``(False, None)`` when nothing is available yet."""
        with self._lock:
            if self._queue:
                item = self._queue.popleft()
                self._popped += 1
                self._not_full.notify()
                return True, item
            if self._all_done_locked():
                return True, EOS
            return False, None

    def abandon(self) -> None:
        """Mark the channel as having no consumer: queued items and future
        pushes are discarded and any producer blocked on a full queue is
        released."""
        with self._lock:
            self._abandoned = True
            dropped = list(self._queue)
            self._queue.clear()
            self._not_full.notify_all()
        for item in dropped:
            _discard(item)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> ChannelStats:
        """One atomic snapshot of the channel's counters (the tracer
        consumes this)."""
        with self._lock:
            return ChannelStats(
                name=self.name,
                capacity=self.capacity,
                length=len(self._queue),
                pushed=self._pushed,
                popped=self._popped,
                high_water=self._high_water,
                abandoned=self._abandoned,
                closed=self._all_done_locked(),
            )

    def drain(self) -> Iterator[Any]:
        """Pop until EOS (skipping GroupDone tokens).  Test helper."""
        while True:
            item = self.pop()
            if item is EOS:
                return
            if isinstance(item, GroupDone):
                continue
            yield item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        st = self.stats()
        return (
            f"Channel({st.name!r}, len={st.length}, cap={st.capacity}, "
            f"pushed={st.pushed}, popped={st.popped}, "
            f"high_water={st.high_water})"
        )

