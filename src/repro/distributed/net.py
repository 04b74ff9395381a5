"""repro.distributed.net: a real TCP master/worker cluster runtime.

This is the socket half of the paper's distributed CWC simulator (section
IV-B).  The simulation farm above it is the one every backend runs
(:class:`~repro.sim.scheduler.SimTaskEmitter` and its engines); what
changes is where an engine's quanta run -- on a remote *worker
process*, with everything really crossing the network:

* :class:`ClusterMaster` listens on a TCP port, spawns (or waits for)
  worker processes and serves as the engines' resident worker pool:
  :meth:`ClusterMaster.submit` ships a
  :class:`~repro.sim.task.SimulationTask` to its worker **once**, framed
  by :mod:`repro.distributed.message`;
* the worker keeps the live task it advances (as in the paper, a
  trajectory lives on the host that simulates it): a steady-state task
  message names the task by key and carries no state.  Per dispatch
  the worker runs quanta until one yields a sample or the task is done
  (:func:`~repro.sim.engine.run_quantum`) and returns a
  :class:`Checkpoint` -- the pickled task after that chain as one opaque
  blob -- *and* the last quantum's result item in a single atomic frame;
* the submit future resolves to that ``(Checkpoint, result item)``
  pair.  The engines and the emitter read only the checkpoint's
  ``done/time/steps/quanta`` and hand it back for the next dispatch, so
  the master never unpickles task state.

There is no scheduling thread: which task runs next is the emitter's
business.  :meth:`~ClusterMaster.submit` pins and sends on the caller's
thread, and each connection's reader thread acknowledges the results
and resolves their futures.  What is left of scheduling here is
**host affinity** (a task is pinned to the worker that holds it; pins
only move when a worker dies) and a **bounded in-flight window** per
worker (a submit whose worker has ``inflight_window`` dispatches
outstanding waits for a slot).

Fault tolerance: workers send heartbeats; the master declares a worker
dead on connection loss or on ``heartbeat_timeout`` of silence (a send
blocked that long counts too), re-pins that worker's in-flight tasks to
the survivors and re-sends their checkpoints verbatim.  Because a
checkpoint holds the complete simulator state (including the RNG state)
and the master only replaces it when the result frame has fully
arrived, a replayed dispatch -- the whole chain of quanta, re-run from
the checkpoint taken before its first quantum -- is *bit-identical* to
the lost one: killing a worker mid-run never changes the results.

Tenancy: a pool shared by many runs (:mod:`repro.service.fleet`)
submits under a ``namespace``, which becomes part of the task key, so
two tenants' task 0 never collide and the workers never see tenancy;
:meth:`ClusterMaster.forget` drops a retired tenant's resident tasks.

Local data plane: workers the master spawned itself share its
``/dev/shm``, so it hands them a :func:`~repro.distributed.shm.make_prefix`
namespace and they return a quantum's block through the shared-memory
result ring (``ResultMsg.results`` is then a
:class:`~repro.distributed.shm.ShmBlock` the master maps; small blocks
ride inline in it); workers that joined over the network get no prefix
and send everything in band.
This is also the ``processes`` backend: same master, same workers.

The wire protocol (also see :mod:`repro.distributed.worker` for how to
join remote hosts):

====================  =============  =======================================
message               direction      meaning
====================  =============  =======================================
:class:`Hello`        worker->master first frame after connect: register,
                                     state the wire-protocol number
:class:`Heartbeat`    worker->master liveness beacon, every ``interval`` s
:class:`TaskMsg`      master->worker run quanta until a sample: of the
                                     resident task ``key``, or of the
                                     carried checkpoint
:class:`ResultMsg`    worker->master checkpoint + the last quantum's result
:class:`Forget`       master->worker drop a namespace's resident tasks
:class:`WorkerFailure` worker->master unrecoverable worker-side error
:class:`Shutdown`     master->worker run is over, exit cleanly
====================  =============  =======================================
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.distributed.message import (FrameCodec, FrameError, StreamDecoder,
                                       send_segments)
from repro.distributed.shm import (ShmBlock, make_prefix, map_results,
                                   sweep_orphans)


class ClusterError(RuntimeError):
    """Raised when the cluster cannot make progress (no workers, handshake
    timeout, unrecoverable worker failure)."""


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------

#: wire-protocol number, stated in :class:`Hello`.  1 = every quantum
#: ships the live task both ways (frames of that era carry no number);
#: 2 = worker-resident tasks, :class:`Checkpoint` results, :class:`Forget`;
#: 3 = :class:`Forget` names the namespace to drop; 4 = a dispatch runs
#: quanta until a sample, and :class:`Checkpoint` carries ``quanta``.
PROTOCOL = 4


@dataclass(frozen=True)
class Hello:
    """First frame a worker sends: registers ``worker_id`` (and its OS
    pid, for diagnostics) with the master and states the wire protocol
    it speaks, so version skew is refused at the door."""

    worker_id: int
    pid: int
    protocol: int = PROTOCOL


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness beacon; any traffic refreshes the liveness clock,
    heartbeats guarantee traffic exists even while a quantum runs."""

    worker_id: int
    seq: int


@dataclass(frozen=True)
class Checkpoint:
    """What the master holds of a task: its scheduling facts, its
    cost counters (``steps``, and ``quanta`` run, which a dispatch
    advances by its chain's length) and its complete state as an opaque
    blob (``pickle.dumps(task, 5)``, made where the live task is).  The
    blob crosses the wire as one out-of-band buffer and is only ever
    unpickled by a worker."""

    key: Any
    done: bool
    time: float
    steps: int
    quanta: int
    state: Any

    @classmethod
    def of(cls, task: Any, key: Any = None) -> "Checkpoint":
        return cls(_task_key(task) if key is None else key, task.done,
                   task.time, task.steps, task.quanta,
                   pickle.dumps(task, 5))

    def __reduce__(self):
        return (Checkpoint, (self.key, self.done, self.time, self.steps,
                             self.quanta, pickle.PickleBuffer(self.state)))


@dataclass(frozen=True)
class TaskMsg:
    """Master -> worker: one dispatch, i.e. advance a task by quanta
    until a sample (until a quantum yields one or the task is done).

    ``TaskMsg(None, key)`` names the task the worker already holds --
    the steady state.  A state-carrying message brings a
    :class:`Checkpoint` (first dispatch, replay after a worker death)
    or a live task; the worker keeps the advanced task resident only if
    ``keep`` says so.
    """

    task: Any
    key: Any = None
    keep: bool = False


@dataclass(frozen=True)
class ResultMsg:
    """Worker -> master: the :class:`Checkpoint` after a dispatch's
    chain of quanta (in ``task``) plus the last quantum's result item --
    as a 1-tuple, or the
    :class:`~repro.distributed.shm.ShmBlock` a worker with a shm prefix
    published it into.

    State and results travel in *one* frame on purpose: the master either
    sees both (checkpoint replaced, results forwarded downstream) or
    neither (worker died mid-chain, the whole chain replayed from the
    previous checkpoint) -- the atomicity deterministic reassignment relies on.
    """

    worker_id: int
    task: Any
    results: Any


@dataclass(frozen=True)
class Forget:
    """Master -> worker: drop every resident task of ``namespace`` (what
    a retired tenant run, e.g. one a steered stop ended mid-horizon,
    will never ask for again)."""

    namespace: Any


@dataclass(frozen=True)
class WorkerFailure:
    """Worker -> master: the worker hit an unrecoverable error."""

    worker_id: int
    error: str


@dataclass(frozen=True)
class Shutdown:
    """Master -> worker: the run is over, exit cleanly."""

    reason: str = "done"


def _task_key(task: Any) -> Any:
    """Stable identity of a task across pickling: its id, or the id
    range of a :class:`~repro.sim.task.BatchSimulationTask`."""
    key = getattr(task, "task_id", None)
    if key is None:
        key = task.task_ids
    return key


def in_namespace(key: Any, namespace: Any) -> bool:
    """Whether ``key`` is a task key submitted under ``namespace``
    (namespaced keys are ``(namespace, task key)``)."""
    return isinstance(key, tuple) and key[:1] == (namespace,)


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------

class WorkerHandle:
    """Master-side state of one worker connection."""

    def __init__(self, worker_id: int, sock: socket.socket, proc=None):
        self.worker_id = worker_id
        self.sock = sock
        self.proc = proc  # local multiprocessing.Process, if spawned
        self.codec = FrameCodec(name=f"worker{worker_id}")
        self.decoder = StreamDecoder(codec=self.codec)
        #: serialises frames onto the socket (engine threads share it)
        self.send_lock = threading.Lock()
        self.alive = True
        #: task key -> the checkpoint this worker was asked to advance
        #: (the replay point if it dies before returning the result)
        self.in_flight: dict[Any, Checkpoint] = {}
        #: keys of the tasks resident on this worker
        self.holds: set = set()
        self.items_done = 0
        self.send_blocked_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WorkerHandle {self.worker_id} "
                f"{'alive' if self.alive else 'dead'} "
                f"in-flight={len(self.in_flight)} done={self.items_done}>")


class ClusterMaster:
    """TCP master: listens, spawns/accepts workers, and runs chains of
    quanta on them through :meth:`submit` -- the executor contract
    :class:`~repro.sim.engine.SimEngineNode` takes as its ``pool``.

    Book-keeping is guarded by one condition variable shared by the
    submitting threads and the per-connection reader threads; frames go
    out under a per-connection lock, outside it.

    Parameters
    ----------
    n_workers:
        Worker processes to spawn (``spawn_local=True``) or remote
        workers to wait for (``spawn_local=False``; see
        :mod:`repro.distributed.worker` for how they join).
    inflight_window:
        Bounded in-flight window per worker: the backpressure knob.
    heartbeat_interval / heartbeat_timeout:
        Workers beacon every ``interval`` seconds; a connection silent
        (or a send blocked) for ``timeout`` (default ``10 * interval``)
        is declared dead.
    fault_hook:
        Test/chaos hook ``hook(master)`` invoked after every processed
        result, by one reader thread at a time (see
        :class:`KillWorkerAfter`).
    """

    def __init__(self, n_workers: int, *,
                 inflight_window: int = 2,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: Optional[float] = None,
                 bind_host: str = "127.0.0.1", port: int = 0,
                 spawn_local: bool = True,
                 accept_timeout: float = 30.0,
                 fault_hook: Optional[Callable[["ClusterMaster"], None]] = None):
        if n_workers < 1:
            raise ValueError("need >= 1 worker")
        if inflight_window < 1:
            raise ValueError("inflight_window must be >= 1")
        self.n_workers = n_workers
        self.inflight_window = inflight_window
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (heartbeat_timeout
                                  if heartbeat_timeout is not None
                                  else 10.0 * heartbeat_interval)
        self.bind_host = bind_host
        self.port = port
        self.spawn_local = spawn_local
        self.accept_timeout = accept_timeout
        self.fault_hook = fault_hook
        #: segment namespace of the workers this master spawned (they
        #: share its /dev/shm); None when workers join from elsewhere
        self.shm_prefix = make_prefix() if spawn_local else None

        self.workers: dict[int, WorkerHandle] = {}
        #: task key -> worker id (host affinity; re-pinned only on death)
        self.assignment: dict[Any, int] = {}
        #: dispatches sent / answered: each a chain of quanta, not a quantum
        self.tasks_dispatched = 0
        self.results_received = 0
        self.reassignments = 0
        self.workers_failed = 0
        self.stale_results = 0
        self.state_sends = 0
        self.resident_sends = 0
        self.state_bytes_in = 0
        self.shm_blocks = 0
        self.shm_bytes = 0
        #: seconds submitting threads waited for an in-flight window slot
        self.inflight_wait_s = 0.0

        self._cond = threading.Condition()
        #: the reader threads call ``fault_hook`` one at a time
        self._hook_lock = threading.Lock()
        #: task key -> the future of its outstanding dispatch
        self._futures: dict[Any, Future] = {}
        #: why the pool is down (every later submit raises it)
        self._error: Optional[BaseException] = None
        self._procs: dict[int, Any] = {}
        self._listener: Optional[socket.socket] = None
        self._readers: list[threading.Thread] = []
        self._started = False
        self._closed = False

    @property
    def lanes(self) -> int:
        """Quanta the fleet can hold at once: how many engines it takes
        to keep every in-flight window full."""
        return self.n_workers * self.inflight_window

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Bring the fleet up: listen, spawn (or await) workers, start
        the reader threads.  Idempotent while running; a closed master
        stays closed (build a new one -- its sockets are gone)."""
        if self._closed:
            raise ClusterError("master is closed; create a new one")
        if self._started:
            return
        self._listen()
        try:
            self._spawn()
            self._accept_workers()
            self._start_readers()
        except BaseException:
            self._started = True  # close() must tear down what came up
            self.close()
            raise
        self._started = True

    def _listen(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host, self.port))
        listener.listen(self.n_workers)
        self.port = listener.getsockname()[1]
        self._listener = listener

    def _spawn(self) -> None:
        if not self.spawn_local:
            return
        import multiprocessing

        from repro.distributed.worker import worker_main

        for worker_id in range(self.n_workers):
            proc = multiprocessing.Process(
                target=worker_main,
                args=(self.bind_host, self.port, worker_id),
                kwargs={"heartbeat_interval": self.heartbeat_interval,
                        "shm_prefix": self.shm_prefix},
                daemon=True, name=f"cluster-worker-{worker_id}")
            proc.start()
            self._procs[worker_id] = proc

    def _accept_workers(self) -> None:
        deadline = time.monotonic() + self.accept_timeout
        while len(self.workers) < self.n_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError(
                    f"only {len(self.workers)}/{self.n_workers} workers "
                    f"joined within {self.accept_timeout}s")
            self._listener.settimeout(remaining)
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._handshake(sock, deadline)

    def _handshake(self, sock: socket.socket, deadline: float) -> None:
        decoder = StreamDecoder()
        messages: list[Any] = []
        while not messages:
            sock.settimeout(max(deadline - time.monotonic(), 0.01))
            try:
                data = sock.recv(1 << 16)
            except socket.timeout:
                raise ClusterError("worker went silent during handshake")
            if not data:
                raise ClusterError("worker hung up during handshake")
            messages = decoder.feed(data)
        hello = messages[0]
        if not isinstance(hello, Hello):
            raise ClusterError(f"expected Hello, got {hello!r}")
        # a Hello pickled by a pre-versioning checkout has no such field
        protocol = vars(hello).get("protocol", 1)
        if protocol != PROTOCOL:
            raise ClusterError(
                f"worker {hello.worker_id} speaks wire protocol "
                f"{protocol}, this master speaks {PROTOCOL}: run both "
                f"ends from the same checkout")
        if hello.worker_id in self.workers:
            raise ClusterError(f"duplicate worker id {hello.worker_id}")
        # the heartbeat clock: a recv (or send) outlasting it is a death.
        # Nothing but heartbeats can follow the Hello before a task goes
        # out, so the rest of this read is dropped
        sock.settimeout(self.heartbeat_timeout)
        handle = WorkerHandle(hello.worker_id, sock,
                              proc=self._procs.get(hello.worker_id))
        handle.decoder = decoder
        decoder.codec = handle.codec
        self.workers[hello.worker_id] = handle

    def _start_readers(self) -> None:
        for handle in self.workers.values():
            thread = threading.Thread(
                target=self._reader, args=(handle,), daemon=True,
                name=f"cluster-reader-{handle.worker_id}")
            thread.start()
            self._readers.append(thread)

    # -- the pool --------------------------------------------------------
    def submit(self, fn: Any, task: Any, namespace: Any = None) -> Future:
        """Dispatch ``task`` to its worker, which runs quanta until a
        sample (:func:`~repro.sim.engine.run_quantum`); returns a future
        of ``(Checkpoint, result item)``.

        ``task`` is a live task (first dispatch: its state goes to the
        worker, which keeps it) or the :class:`Checkpoint` the previous
        dispatch's future returned (the worker holding it advances its
        resident copy; a re-pinned one gets the checkpoint).  ``fn`` is
        the executor contract's callable and is not shipped: a worker
        always runs :func:`~repro.sim.engine.run_quantum`.
        ``namespace`` scopes a live task's key to one tenant run.

        Pins and sends on the calling thread, waiting while the pinned
        worker's in-flight window is full; the connection's reader
        thread resolves the future.
        """
        if isinstance(task, Checkpoint):
            checkpoint, fresh = task, False
        else:
            key = _task_key(task)
            checkpoint = Checkpoint.of(
                task, key if namespace is None else (namespace, key))
            fresh = True
        future: Future = Future()
        with self._cond:
            waited = None
            while True:
                self._check_up()
                handle = self._pin(checkpoint.key)
                if len(handle.in_flight) < self.inflight_window:
                    break
                if waited is None:
                    waited = time.monotonic()
                self._cond.wait()
            if waited is not None:
                self.inflight_wait_s += time.monotonic() - waited
            self._futures[checkpoint.key] = future
            msg = self._book(handle, checkpoint, fresh)
        self._send(handle, msg)
        return future

    def _check_up(self) -> None:
        if not self._started or self._closed:
            raise ClusterError("master is not running: start() it first "
                               "(a closed master stays closed)")
        if self._error is not None:
            raise ClusterError(f"cluster fleet is down: {self._error}")

    def _pin(self, key: Any) -> WorkerHandle:
        """The alive worker ``key`` is pinned to; an unpinned key (or one
        pinned to a dead worker) goes to the alive worker holding the
        fewest tasks.  Called under the lock."""
        worker_id = self.assignment.get(key)
        if worker_id is not None:
            handle = self.workers[worker_id]
            if handle.alive:
                return handle
            self.reassignments += 1
        handle = min((h for h in self.workers.values() if h.alive),
                     key=lambda h: (len(h.holds), len(h.in_flight),
                                    h.worker_id))
        self.assignment[key] = handle.worker_id
        return handle

    def _book(self, handle: WorkerHandle, checkpoint: Checkpoint,
              fresh: bool) -> TaskMsg:
        """Put ``checkpoint`` in ``handle``'s window (the replay point
        should it die) and say what to send: the key alone if the worker
        holds that state, else the state, to keep.  Called under the
        lock."""
        key = checkpoint.key
        handle.in_flight[key] = checkpoint
        self.tasks_dispatched += 1
        if not fresh and key in handle.holds:
            self.resident_sends += 1
            return TaskMsg(None, key)
        handle.holds.add(key)
        self.state_sends += 1
        return TaskMsg(checkpoint, keep=True)

    def _send(self, handle: WorkerHandle, obj: Any) -> bool:
        try:
            with handle.send_lock:
                started = time.monotonic()
                send_segments(handle.sock, handle.codec.encode_segments(obj))
                handle.send_blocked_s += time.monotonic() - started
        except OSError as exc:
            self._worker_dead(handle, f"send failed: {exc}")
            return False
        return True

    def forget(self, namespace: Any) -> None:
        """Drop every task submitted under ``namespace``: the workers'
        resident copies (:class:`Forget`) and this master's pins.  For a
        tenant run that is over -- a steered stop retires tasks
        mid-horizon, and nobody asks for them again."""
        with self._cond:
            for handle in self.workers.values():
                handle.holds = {key for key in handle.holds
                                if not in_namespace(key, namespace)}
            for key in [key for key in self.assignment
                        if in_namespace(key, namespace)]:
                del self.assignment[key]
            alive = [h for h in self.workers.values() if h.alive]
        for handle in alive:
            self._send(handle, Forget(namespace))

    # -- the reader threads ----------------------------------------------
    def _reader(self, handle: WorkerHandle) -> None:
        """Per-worker reader thread: acknowledges result frames and
        resolves their futures until the connection ends, then declares
        the worker dead.  Anything else it raises fails the pool rather
        than leaving callers waiting."""
        try:
            reason = self._read(handle)
        except BaseException as exc:
            self._fail(exc)
            raise
        self._worker_dead(handle, reason)

    def _read(self, handle: WorkerHandle) -> str:
        """Serve ``handle``'s frames; returns why its connection ended."""
        while True:
            try:
                data = handle.sock.recv(1 << 16)
            except socket.timeout:
                return f"heartbeat timeout ({self.heartbeat_timeout:.1f}s)"
            except OSError as exc:
                return f"recv failed: {exc}"
            if not data:
                return "connection closed"
            try:
                messages = handle.decoder.feed(data)
            except FrameError as exc:
                return f"stream corrupt: {exc}"
            for msg in messages:
                if isinstance(msg, ResultMsg):
                    self._on_result(handle, msg)
                    if self.fault_hook is not None:
                        with self._hook_lock:
                            self.fault_hook(self)
                elif isinstance(msg, WorkerFailure):
                    self._fail(ClusterError(
                        f"worker {msg.worker_id} failed: {msg.error}"))

    def _on_result(self, handle: WorkerHandle, msg: ResultMsg) -> None:
        """Take a result frame's checkpoint off its worker's window and
        resolve its future.  A stale frame -- its worker declared dead
        (the replayed dispatch supersedes it) or no longer owing that
        task -- or a result nobody waits for gives its segment back."""
        checkpoint = msg.task
        key = checkpoint.key
        results = msg.results
        with self._cond:
            sent = (handle.in_flight.pop(key, None)
                    if handle.alive else None)
            if sent is None:
                self.stale_results += 1
                future = None
            else:
                handle.items_done += 1
                self.results_received += 1
                self.state_bytes_in += len(checkpoint.state)
                if isinstance(results, ShmBlock) and results.name is not None:
                    self.shm_blocks += 1
                    self.shm_bytes += results.payload_nbytes
                if checkpoint.done:
                    # the worker dropped it: unpin, so the maps of a
                    # long-lived pool cannot grow without bound
                    handle.holds.discard(key)
                    self.assignment.pop(key, None)
                future = self._futures.pop(key, None)
                self._cond.notify_all()
        if isinstance(results, ShmBlock):
            results = map_results(results)
        (result,) = results
        if future is None or future.done():
            result.release()
        else:
            future.set_result((checkpoint, result))

    # -- failure handling ------------------------------------------------
    def _worker_dead(self, handle: WorkerHandle, reason: str) -> None:
        """Declare ``handle`` dead and replay its in-flight dispatches on
        the survivors from their last acknowledged checkpoints (re-pinned
        to the least-loaded, even past a full window), from whichever
        thread noticed; with no survivor, fail the pool."""
        with self._cond:
            if not handle.alive or self._closed:
                return
            handle.alive = False
            self.workers_failed += 1
            replay = list(handle.in_flight.values())
            handle.in_flight.clear()
            handle.holds.clear()
            survivors = any(h.alive for h in self.workers.values())
            resend = []
            if survivors and self._error is None:
                for checkpoint in replay:
                    target = self._pin(checkpoint.key)
                    resend.append(
                        (target, self._book(target, checkpoint, False)))
            self._cond.notify_all()
        _close_socket(handle.sock)
        if handle.proc is not None:
            _kill_process(handle.proc)
        if not survivors:
            self._fail(ClusterError(
                f"all workers dead (last: worker {handle.worker_id}: "
                f"{reason})"))
        for target, msg in resend:
            self._send(target, msg)

    def _fail(self, exc: BaseException) -> None:
        """Take the pool down: every outstanding future and every later
        submit raises (the first cause wins)."""
        with self._cond:
            if self._error is None:
                self._error = exc
            failed, self._futures = list(self._futures.values()), {}
            self._cond.notify_all()
        for future in failed:
            if not future.done():
                future.set_exception(ClusterError(
                    f"cluster fleet failed: {exc}"))

    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill a locally spawned worker process (fault injection)."""
        proc = self._procs.get(worker_id)
        if proc is None:
            raise ClusterError(
                f"worker {worker_id} has no local process to kill")
        proc.kill()

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        """Tear the fleet down: outstanding futures fail, shutdown
        frames, sockets, worker processes.  Idempotent -- closing twice
        (or closing a master that never started) is a no-op, so every
        caller on every error path may close defensively."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            orphaned, self._futures = list(self._futures.values()), {}
            self._cond.notify_all()
        for future in orphaned:
            if not future.done():
                future.set_exception(
                    ClusterError("master closed with dispatches in flight"))
        for handle in self.workers.values():
            if handle.alive:
                self._send(handle, Shutdown())
        for handle in self.workers.values():
            _close_socket(handle.sock)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for thread in self._readers:
            thread.join(timeout=5.0)
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                _kill_process(proc)
                proc.join(timeout=1.0)
        self._procs.clear()
        if self.shm_prefix is not None:
            # the net under the per-result releases: a worker killed
            # between publishing a segment and sending its frame
            sweep_orphans(self.shm_prefix)

    # -- accounting ------------------------------------------------------
    def counters(self) -> dict[str, float]:
        """Run-report counters: pool totals plus per-link traffic (the
        farm above the pool counts quanta, steps and tasks).  Every
        count here is of dispatches (one ``TaskMsg`` / ``ResultMsg``
        round trip, a chain of quanta), not of quanta."""
        counters: dict[str, float] = {
            # dispatches sent / answered
            "net.tasks_dispatched": self.tasks_dispatched,
            "net.results_received": self.results_received,
            "net.reassignments": self.reassignments,
            "net.workers_failed": self.workers_failed,
            "net.stale_results": self.stale_results,
            "net.inflight_wait_s": self.inflight_wait_s,
            # dispatches that carried a checkpoint / named a resident
            # task, and checkpoint bytes the workers sent back
            "net.state_sends": self.state_sends,
            "net.resident_sends": self.resident_sends,
            "net.state_bytes_in": self.state_bytes_in,
            # dispatches whose result came back through a shared segment
            "net.shm_blocks": self.shm_blocks,
            "net.shm_bytes": self.shm_bytes,
        }
        totals = {"bytes_out": 0, "bytes_in": 0,
                  "messages_out": 0, "messages_in": 0,
                  "bytes_pickled": 0, "bytes_oob": 0}
        for worker_id, handle in sorted(self.workers.items()):
            codec = handle.codec
            prefix = f"net.link.w{worker_id}"
            counters[f"{prefix}.bytes_out"] = codec.bytes_out
            counters[f"{prefix}.bytes_in"] = codec.bytes_in
            counters[f"{prefix}.messages_out"] = codec.messages_out
            counters[f"{prefix}.messages_in"] = codec.messages_in
            counters[f"{prefix}.blocked_s"] = handle.send_blocked_s
            counters[f"net.worker.{worker_id}.items"] = handle.items_done
            for name in totals:
                totals[name] += getattr(codec, name)
        for name, value in totals.items():
            counters[f"net.{name}"] = value
        return counters


def _close_socket(sock: socket.socket) -> None:
    """Close ``sock``, waking any thread blocked on it first."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _kill_process(proc) -> None:
    try:
        proc.kill()
    except (OSError, AttributeError, ValueError):
        pass


class KillWorkerAfter:
    """Fault injector for tests/demos: SIGKILL one worker after the
    master has processed ``n_results`` results (from any worker)."""

    def __init__(self, n_results: int, worker_id: int = 0):
        self.n_results = n_results
        self.worker_id = worker_id
        self.fired = False
        self.master: Optional[ClusterMaster] = None

    def __call__(self, master: ClusterMaster) -> None:
        self.master = master
        if not self.fired and master.results_received >= self.n_results:
            self.fired = True
            master.kill_worker(self.worker_id)


def run_workflow_cluster(model, config, controller=None, tracer=None,
                         fault_hook=None):
    """:func:`repro.pipeline.run_workflow` for a config whose backend
    names this runtime, with the master's ``fault_hook`` exposed: quanta
    execute in ``config.n_sim_workers`` worker *processes* reached over
    real sockets, and the results are bit-identical to the ``threads``
    backend for the same seeds -- including when workers die mid-run
    (``fault_hook``, e.g. :class:`KillWorkerAfter`).
    """
    from repro.pipeline.builder import run_workflow

    if config.backend not in ("processes", "cluster"):
        raise ValueError(
            f"backend {config.backend!r} does not run on the cluster")
    return run_workflow(model, config, controller=controller,
                        tracer=tracer, fault_hook=fault_hook)
