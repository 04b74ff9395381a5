"""repro.distributed.ledger: the cluster master's books, without I/O.

A :class:`Ledger` holds what :class:`~repro.distributed.net.ClusterMaster`
knows of its dispatches -- pins, holds, in-flight windows, futures,
``net.*`` counts -- and every transition on it.  It does no I/O, takes
no lock and reads no clock: each call returns what the master must do
next (messages to send, futures to settle, or None: window full, wait).
The master calls it under its one lock and carries that out outside it,
so whatever the master's threads do is a sequence of ledger calls.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

#: the counts, reported as ``net.<name>``: of dispatches, not quanta
COUNTS = ("tasks_dispatched", "results_received", "reassignments",
          "workers_failed", "stale_results", "inflight_wait_s",
          "state_sends", "resident_sends", "state_bytes_in",
          "shm_blocks", "shm_bytes")


class ClusterError(RuntimeError):
    """Raised when the cluster cannot make progress (no workers, handshake
    timeout, unrecoverable worker failure)."""


def in_namespace(key: Any, namespace: Any) -> bool:
    """Whether ``key`` is a task key submitted under ``namespace``
    (namespaced keys are ``(namespace, task key)``)."""
    return isinstance(key, tuple) and key[:1] == (namespace,)


class Send(NamedTuple):
    """Send ``worker`` ``checkpoint`` to keep, or (None) ``key``'s name."""

    worker: int
    key: Any
    checkpoint: Any


class Ledger:
    """One master's books.  A task is pinned to the live worker holding
    the fewest tasks (then fewest in flight, lowest id) when first
    admitted, until that worker dies.  A dispatch carries state when it
    is fresh or its worker does not hold the task: a re-pin, counted as
    a reassignment where it is booked, so ``state_sends == fresh +
    reassignments`` after every call.  Of a checkpoint only ``key``,
    ``done`` and ``len(state)`` are read; futures are opaque.  With a
    ``scheduler`` (a :class:`~repro.service.fairshare.StrideScheduler`),
    namespaced admits waiting on one worker take turns by it."""

    def __init__(self, window: int):
        self.window = window
        self.scheduler: Any = None
        self.alive: set = set()
        #: worker -> {key: the checkpoint to replay should it die};
        #: worker -> keys resident on it; worker -> results returned
        self.in_flight: dict[int, dict] = {}
        self.holds: dict[int, set] = {}
        self.items: dict[int, int] = {}
        #: key -> worker it is pinned to; key -> its dispatch's future
        self.assignment: dict = {}
        self.futures: dict = {}
        #: key -> namespace of each namespaced admit waiting for a slot
        self.waiting: dict = {}
        #: why the pool is down (the first cause; later admits raise)
        self.error: Optional[BaseException] = None
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)
        self.counts["inflight_wait_s"] = 0.0

    def join(self, worker: int) -> None:
        self.alive.add(worker)
        self.in_flight[worker], self.holds[worker] = {}, set()
        self.items[worker] = 0

    def admit(self, checkpoint: Any, fresh: bool, future: Any,
              waited: float = 0.0, namespace: Any = None) -> Optional[Send]:
        """Book ``checkpoint`` (``fresh``: a live task's first dispatch)
        on its worker for ``future``; None while that window is full, or
        a lower-pass namespace than ``namespace`` waits on it (the pin
        stays).  ``waited``: seconds waited so far."""
        if self.error is not None:
            raise ClusterError(f"cluster fleet is down: {self.error}")
        key = checkpoint.key
        worker = self._pin(key)
        if namespace is not None and self.scheduler is not None:
            self.waiting[key] = namespace
        if len(self.in_flight[worker]) >= self.window or (
                key in self.waiting and not self.scheduler.turn(namespace, {
                    waiting for other, waiting in self.waiting.items()
                    if self.assignment.get(other) == worker})):
            return None
        self.waiting.pop(key, None)
        self.futures[key] = future
        self.counts["inflight_wait_s"] += waited
        return self._book(worker, checkpoint, fresh)

    def _pin(self, key: Any) -> int:
        worker = self.assignment.get(key)
        if worker not in self.alive:
            worker = self.assignment[key] = min(
                self.alive, key=lambda w: (len(self.holds[w]),
                                           len(self.in_flight[w]), w))
        return worker

    def _book(self, worker: int, checkpoint: Any, fresh: bool) -> Send:
        key, counts, holds = checkpoint.key, self.counts, self.holds[worker]
        self.in_flight[worker][key] = checkpoint
        counts["tasks_dispatched"] += 1
        if not fresh and key in holds:
            counts["resident_sends"] += 1
            return Send(worker, key, None)
        holds.add(key)
        counts["state_sends"] += 1
        if not fresh:
            counts["reassignments"] += 1
        return Send(worker, key, checkpoint)

    def result(self, worker: int, checkpoint: Any,
               shm_nbytes: Optional[int] = None) -> Any:
        """``worker`` returned ``checkpoint`` (its block in a segment of
        ``shm_nbytes``, if not None): the future to resolve, or None for
        a stale frame (dead worker, or not owed) or one nobody awaits."""
        key, counts = checkpoint.key, self.counts
        if self.in_flight[worker].pop(key, None) is None:
            counts["stale_results"] += 1
            return None
        self.items[worker] += 1
        counts["results_received"] += 1
        counts["state_bytes_in"] += len(checkpoint.state)
        if shm_nbytes is not None:
            counts["shm_blocks"] += 1
            counts["shm_bytes"] += shm_nbytes
        if checkpoint.done:
            # the worker dropped it: unpin, so the maps of a long-lived
            # pool cannot grow without bound
            self.holds[worker].discard(key)
            self.assignment.pop(key, None)
        return self.futures.pop(key, None)

    def dead(self, worker: int, reason: str) -> tuple[list[Send], list]:
        """The replays to send (``worker``'s in-flight checkpoints,
        re-pinned, even past a full window) and the futures to fail (all,
        with no survivor).  Admits waiting on ``worker`` re-pin too."""
        if worker not in self.alive:
            return [], []
        self.alive.discard(worker)
        self.counts["workers_failed"] += 1
        replay, self.in_flight[worker] = self.in_flight[worker], {}
        self.holds[worker] = set()
        if not self.alive:
            return [], self.fail(ClusterError(
                f"all workers dead (last: worker {worker}: {reason})"))
        for key in self.waiting:
            self._pin(key)
        return [self._book(self._pin(checkpoint.key), checkpoint, False)
                for checkpoint in replay.values() if self.error is None], []

    def forget(self, namespace: Any) -> list[int]:
        """Drop ``namespace``'s pins and holds: the live workers to tell."""
        for holds in self.holds.values():
            holds -= {key for key in holds if in_namespace(key, namespace)}
        self.assignment = {key: worker for key, worker
                           in self.assignment.items()
                           if not in_namespace(key, namespace)}
        self.waiting = {key: waiting for key, waiting
                        in self.waiting.items() if waiting != namespace}
        return sorted(self.alive)

    def fail(self, exc: BaseException) -> list:
        """Take the pool down (the first cause wins): the futures to fail."""
        if self.error is None:
            self.error = exc
        failed, self.futures = list(self.futures.values()), {}
        self.waiting = {}
        return failed
