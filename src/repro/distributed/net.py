"""repro.distributed.net: a real TCP master/worker cluster runtime.

This is the socket half of the paper's distributed CWC simulator (section
IV-B): the farm of simulation *engines* becomes a farm of remote *worker
processes*, and everything really crosses the network:

* the master listens on a TCP port, spawns (or waits for) worker
  processes, and ships each :class:`~repro.sim.task.SimulationTask` to
  its worker **once**, framed by :mod:`repro.distributed.message`;
* the worker keeps the live task it advances (as in the paper, a
  trajectory lives on the host that simulates it): a steady-state task
  message names the task by key and carries no state.  Per quantum the
  worker returns a :class:`Checkpoint` -- the pickled post-quantum task
  as one opaque blob -- *and* the quantum's result item in a single
  atomic frame;
* the master keeps the latest checkpoint of every task without ever
  unpickling it (scheduling needs only ``key/done/time/steps``) and
  streams the result items (one per quantum: a scalar task's
  :class:`~repro.sim.task.QuantumResult`, a batch task's
  :class:`~repro.sim.task.ResultBlock`) into the unchanged
  alignment/analysis half of the workflow.

Scheduling mirrors the shared-memory farm: **host affinity** (a task is
pinned to the worker that holds it; pins only move when a worker dies),
**bounded in-flight windows** per worker (backpressure: the master never
buffers more than ``inflight_window`` tasks on a worker's socket), and
on-demand refill as results come back -- a dispatch pass stops as soon as
no window has headroom, so its cost follows the free slots, not the
backlog.

Fault tolerance: workers send heartbeats; the master declares a worker
dead on connection loss or heartbeat timeout, then re-pins that worker's
tasks to the survivors and re-sends their checkpoints verbatim.  Because
a checkpoint holds the complete simulator state (including the RNG
state) and the master only replaces it when the result frame has fully
arrived, a replayed quantum is *bit-identical* to the lost one: killing
a worker mid-run never changes the results.

Serve mode (:meth:`ClusterMaster.serve`) keeps the executor contract
instead: every quantum is submitted with its state and the caller gets
the advanced task back, so nothing stays resident on a long-lived fleet.

Local data plane: workers the master spawned itself share its
``/dev/shm``, so it hands them a :func:`~repro.distributed.shm.make_prefix`
namespace and they return a batch quantum's block through the
shared-memory result ring (``ResultMsg.results`` is then a
:class:`~repro.distributed.shm.ShmBlock` the master maps; scalar results
and small quanta ride inline in it); workers that joined over the
network get no prefix and send everything in band.
This is also the ``processes`` backend: same master, same workers.

The wire protocol (also see :mod:`repro.distributed.worker` for how to
join remote hosts):

====================  =============  =======================================
message               direction      meaning
====================  =============  =======================================
:class:`Hello`        worker->master first frame after connect: register,
                                     state the wire-protocol number
:class:`Heartbeat`    worker->master liveness beacon, every ``interval`` s
:class:`TaskMsg`      master->worker run one quantum: of the resident task
                                     ``key``, or of the carried checkpoint
:class:`ResultMsg`    worker->master checkpoint + quantum results
:class:`Forget`       master->worker a new run starts: drop resident tasks
:class:`WorkerFailure` worker->master unrecoverable worker-side error
:class:`Shutdown`     master->worker run is over, exit cleanly
====================  =============  =======================================
"""

from __future__ import annotations

import pickle
import queue
import socket
import threading
import time
from bisect import insort
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.distributed.message import (FrameCodec, FrameError, StreamDecoder,
                                       send_segments)
from repro.distributed.shm import (ShmBlock, make_prefix, map_results,
                                   sweep_orphans)
from repro.ff.node import SourceNode


class ClusterError(RuntimeError):
    """Raised when the cluster cannot make progress (no workers, handshake
    timeout, unrecoverable worker failure)."""


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------

#: wire-protocol number, stated in :class:`Hello`.  1 = every quantum
#: ships the live task both ways (frames of that era carry no number);
#: 2 = worker-resident tasks, :class:`Checkpoint` results, :class:`Forget`.
PROTOCOL = 2


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
    """What the master holds of a task: its scheduling facts and its
    complete state as an opaque blob (``pickle.dumps(task, 5)``, made
    where the live task is).  The blob crosses the wire as one
    out-of-band buffer and is only ever unpickled by a worker -- or by
    serve mode, which owes its caller a live task."""

    key: Any
    done: bool
    time: float
    steps: int
    state: Any

    @classmethod
    def of(cls, task: Any, key: Any = None) -> "Checkpoint":
        return cls(_task_key(task) if key is None else key, task.done,
                   task.time, task.steps, pickle.dumps(task, 5))

    def __reduce__(self):
        return (Checkpoint, (self.key, self.done, self.time, self.steps,
                             pickle.PickleBuffer(self.state)))


@dataclass(frozen=True)
class TaskMsg:
    """Master -> worker: advance a task by one quantum.

    ``TaskMsg(None, key)`` names the task the worker already holds --
    the steady state.  A state-carrying message brings a
    :class:`Checkpoint` (first dispatch, replay after a worker death,
    every serve-mode quantum) or a live task; the worker keeps the
    advanced task resident only if ``keep`` says so.
    """

    task: Any
    key: Any = None
    keep: bool = False


@dataclass(frozen=True)
class ResultMsg:
    """Worker -> master: the post-quantum :class:`Checkpoint` (in
    ``task``) plus the quantum's result item -- as a 1-tuple, or the
    :class:`~repro.distributed.shm.ShmBlock` a worker with a shm prefix
    published it into.

    State and results travel in *one* frame on purpose: the master either
    sees both (checkpoint replaced, results forwarded downstream) or
    neither (worker died mid-quantum, task replayed from the previous
    checkpoint) -- the atomicity deterministic reassignment relies on.
    """

    worker_id: int
    task: Any
    results: Any


@dataclass(frozen=True)
class Forget:
    """Master -> worker: a new run starts, drop every resident task
    (what a steered stop retired mid-horizon is never asked for again)."""


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
    """Stable identity of a task across pickling (its id, or the id tuple
    of a :class:`~repro.sim.task.BatchSimulationTask`); namespaced tasks
    prefix their run's namespace so two tenants' task 0 never collide on
    a shared master."""
    if isinstance(task, NamespacedTask):
        return (task.namespace, _task_key(task.task))
    key = getattr(task, "task_id", None)
    if key is None:
        key = task.task_ids
    return key


class NamespacedTask:
    """Envelope pinning a task to a run namespace on a *shared* master.

    The service multiplexes many tenant runs over one cluster: their
    task ids all start at 0, so scheduling state (affinity pins,
    in-flight windows, result futures) must key on
    ``(namespace, task_id)``.  The envelope rides the wire whole, inside
    the checkpoint blob -- the worker just calls :meth:`run_quantum` and
    checkpoints the same (advanced) object -- so the worker loop needs no
    notion of tenancy.
    """

    __slots__ = ("namespace", "task")

    def __init__(self, namespace: Any, task: Any):
        self.namespace = namespace
        self.task = task

    def run_quantum(self):
        return self.task.run_quantum()

    @property
    def done(self) -> bool:
        return self.task.done

    @property
    def time(self) -> float:
        return self.task.time

    @property
    def steps(self) -> int:
        return self.task.steps

    def __getstate__(self):
        return (self.namespace, self.task)

    def __setstate__(self, state):
        self.namespace, self.task = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NamespacedTask {self.namespace!r}:{_task_key(self.task)}>"


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
        self.alive = True
        self.last_seen = time.monotonic()
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
    """TCP master: listens, spawns/accepts workers, schedules tasks.

    :meth:`run` is a generator yielding each quantum's result item as
    it arrives -- plug it into the workflow via
    :class:`ClusterSourceNode` or iterate it directly.

    Parameters
    ----------
    tasks:
        The simulation tasks to drive to completion (quantum by quantum).
    n_workers:
        Worker processes to spawn (``spawn_local=True``) or remote
        workers to wait for (``spawn_local=False``; see
        :mod:`repro.distributed.worker` for how they join).
    inflight_window:
        Bounded in-flight window per worker: the backpressure knob.
    heartbeat_interval / heartbeat_timeout:
        Workers beacon every ``interval`` seconds; a worker silent for
        ``timeout`` (default ``10 * interval``) is declared dead.
    stop_requested:
        Zero-argument callable polled while scheduling; when it returns
        True, in-flight tasks are retired instead of re-dispatched
        (steered early stop, like the shared-memory farm).
    fault_hook:
        Test/chaos hook ``hook(master)`` invoked after every processed
        result (see :class:`KillWorkerAfter`).
    """

    def __init__(self, tasks: list, n_workers: int, *,
                 inflight_window: int = 2,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: Optional[float] = None,
                 bind_host: str = "127.0.0.1", port: int = 0,
                 spawn_local: bool = True,
                 accept_timeout: float = 30.0,
                 poll_interval: float = 0.05,
                 stop_requested: Optional[Callable[[], bool]] = None,
                 fault_hook: Optional[Callable[["ClusterMaster"], None]] = None):
        if n_workers < 1:
            raise ValueError("need >= 1 worker")
        if inflight_window < 1:
            raise ValueError("inflight_window must be >= 1")
        self.tasks = list(tasks)
        self.n_tasks = len(self.tasks)
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
        self.poll_interval = poll_interval
        self.stop_requested = stop_requested
        self.fault_hook = fault_hook
        #: segment namespace of the workers this master spawned (they
        #: share its /dev/shm); None when workers join from elsewhere
        self.shm_prefix = make_prefix() if spawn_local else None

        self.workers: dict[int, WorkerHandle] = {}
        #: checkpoints waiting for a window slot, in dispatch order
        self.ready: list[Checkpoint] = []
        #: task key -> worker id (host affinity; re-pinned only on death)
        self.assignment: dict[Any, int] = {}
        self.completed = 0
        self.tasks_dispatched = 0
        self.results_received = 0
        self.reassignments = 0
        self.workers_failed = 0
        self.stale_results = 0
        self.tasks_completed_full = 0
        self.tasks_retired = 0
        self.state_sends = 0
        self.resident_sends = 0
        self.state_bytes_in = 0
        self.shm_blocks = 0
        self.shm_bytes = 0
        self.steps = 0
        self.trajectories_retired = 0
        self.inflight_wait_s = 0.0
        self.wall_time = 0.0
        #: requested backlog priority key (None -> arrival order); set via
        #: :meth:`repriority` from the analysis thread.  :meth:`_dispatch`
        #: takes it up on the master thread (``_resort``) and from then on
        #: keeps ``ready`` sorted by it (``_sorted_by``)
        self._priority_key: Optional[Callable[[Any], float]] = None
        self._resort = False
        self._sorted_by: Optional[Callable[[Any], float]] = None

        self._inbox: "queue.Queue[tuple[str, int, Any]]" = queue.Queue()
        self._procs: dict[int, Any] = {}
        self._listener: Optional[socket.socket] = None
        self._readers: list[threading.Thread] = []
        self._stopping = False
        self._started = False
        self._closed = False
        #: serve mode (see :meth:`serve`): task key -> caller future
        self._futures: dict[Any, Any] = {}
        self._serve_thread: Optional[threading.Thread] = None
        self._serve_stop = threading.Event()
        self._serve_error: Optional[BaseException] = None

    # -- lifecycle -------------------------------------------------------
    def run(self):
        """Generator: drive every task to completion, yielding each
        quantum's result item as its frame arrives.  One-shot
        convenience equal to ``start()`` + ``run_tasks(self.tasks)`` +
        ``close()``; use the pieces directly to reuse the worker fleet
        across several runs."""
        self.start()
        try:
            yield from self.run_tasks(self.tasks)
        finally:
            self.close()

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

    def run_tasks(self, tasks: list):
        """Generator: drive ``tasks`` to completion on the started
        fleet, yielding each quantum's result item as its frame
        arrives.  May be called repeatedly on one master -- the workers
        (and their warm caches) survive between runs; per-run scheduling
        state is reset, cumulative counters are not."""
        if not self._started or self._closed:
            raise ClusterError("start() the master before run_tasks()")
        if self._serve_thread is not None:
            raise ClusterError("master is in serve mode; use execute()")
        started = time.monotonic()
        self.tasks = list(tasks)
        self.n_tasks = len(self.tasks)
        self.completed = 0
        self._stopping = False
        self.assignment.clear()
        self.ready = [Checkpoint.of(task) for task in self.tasks]
        self._resort = True  # a key outlives the run: sort the new backlog
        for handle in self.workers.values():
            handle.holds.clear()
            if handle.alive:
                self._send(handle, Forget())
        try:
            self._dispatch()
            yield from self._event_loop()
        finally:
            self.wall_time += time.monotonic() - started

    def _event_loop(self):
        while self.completed < self.n_tasks:
            self._poll_stop()
            yield from self._step(self._on_result)

    def _step(self, on_result: Callable[[ResultMsg], Any]):
        """One turn of the master loop, batch or serve mode: check the
        heartbeats, wait for one inbox item, react to it and refill the
        windows.  Returns what ``on_result`` made of a result frame."""
        self._check_heartbeats()
        throttled = bool(self.ready)
        waited = time.monotonic()
        try:
            kind, worker_id, payload = self._inbox.get(
                timeout=self.poll_interval)
        except queue.Empty:
            return ()
        finally:
            if throttled:
                self.inflight_wait_s += time.monotonic() - waited
        out = ()
        if kind == "submit":
            checkpoint, future = payload
            self._futures[checkpoint.key] = future
            self._enqueue(checkpoint)
        elif kind == "dead":
            self._worker_dead(worker_id, payload)
        elif isinstance(payload, ResultMsg):
            out = on_result(payload)
            if self.fault_hook is not None:
                self.fault_hook(self)
        elif isinstance(payload, WorkerFailure):
            raise ClusterError(
                f"worker {worker_id} failed: {payload.error}")
        self._dispatch()
        return out

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
        sock.settimeout(None)
        handle = WorkerHandle(hello.worker_id, sock,
                              proc=self._procs.get(hello.worker_id))
        handle.decoder = decoder
        decoder.codec = handle.codec
        self.workers[hello.worker_id] = handle
        for msg in messages[1:]:
            if not isinstance(msg, Heartbeat):
                self._inbox.put(("msg", hello.worker_id, msg))

    def _start_readers(self) -> None:
        for handle in self.workers.values():
            thread = threading.Thread(
                target=self._reader, args=(handle,), daemon=True,
                name=f"cluster-reader-{handle.worker_id}")
            thread.start()
            self._readers.append(thread)

    def _reader(self, handle: WorkerHandle) -> None:
        """Per-worker reader thread: socket bytes -> inbox messages.
        Heartbeats are absorbed here (any traffic refreshes liveness)."""
        while True:
            try:
                data = handle.sock.recv(1 << 16)
            except OSError as exc:
                self._inbox.put(("dead", handle.worker_id,
                                 f"recv failed: {exc}"))
                return
            if not data:
                self._inbox.put(("dead", handle.worker_id,
                                 "connection closed"))
                return
            try:
                messages = handle.decoder.feed(data)
            except FrameError as exc:
                self._inbox.put(("dead", handle.worker_id,
                                 f"stream corrupt: {exc}"))
                return
            handle.last_seen = time.monotonic()
            for msg in messages:
                if isinstance(msg, Heartbeat):
                    continue
                self._inbox.put(("msg", handle.worker_id, msg))

    # -- scheduling ------------------------------------------------------
    def repriority(self, key: Optional[Callable[[Any], float]]) -> int:
        """Re-key the ready backlog (ascending; ``None`` restores arrival
        order) -- the cluster side of the adaptive re-prioritisation hook.
        Safe to call from any thread: the key is applied by the master
        thread at the next :meth:`_dispatch`.  Returns the number of
        queued tasks subject to the re-ordering."""
        self._priority_key = key
        self._resort = True
        return len(self.ready)

    def _enqueue(self, checkpoint: Checkpoint) -> None:
        """Queue a checkpoint for dispatch: at the tail, or -- with a
        priority key applied -- in key order after its equals.  A queued
        checkpoint's key cannot change while it waits, so this keeps
        ``ready`` exactly as a stable sort of the whole backlog would."""
        if self._sorted_by is None:
            self.ready.append(checkpoint)
        else:
            insort(self.ready, checkpoint, key=self._sorted_by)

    def _dispatch(self) -> None:
        """Send ready tasks to their pinned (or newly pinned) workers, up
        to each worker's in-flight window, scanning the backlog in order
        only while some alive worker has window headroom (what is not
        reached stays where it is).  When an adaptive priority key is
        installed, the backlog drains in key order (laggards first for
        the default lag key): queued low-priority tasks simply starve
        behind the window bound until re-keyed work has been sent."""
        if self._resort:
            self._resort = False
            self._sorted_by = self._priority_key
            if self._sorted_by is not None:
                self.ready.sort(key=self._sorted_by)
        ready = self.ready
        free = self._headroom()
        i = 0
        while free and i < len(ready):
            checkpoint = ready[i]
            key = checkpoint.key
            worker_id = self.assignment.get(key)
            if worker_id is not None and not self.workers[worker_id].alive:
                self.reassignments += 1
                self.assignment.pop(key)
                worker_id = None
            if worker_id is None:
                # pin only when a window slot is actually free -- an
                # eager pin would glue queued tasks to whichever
                # worker tie-broke lowest and serialise the run
                worker_id = self.assignment[key] = self._least_loaded()
            handle = self.workers[worker_id]
            if len(handle.in_flight) >= self.inflight_window:
                i += 1
                continue
            del ready[i]
            if self._send_task(handle, checkpoint):
                free -= 1
            else:
                # the worker died under the send and its in-flight tasks
                # are back in the backlog: start over
                free, i = self._headroom(), 0

    def _headroom(self) -> int:
        """Free in-flight window slots over all alive workers."""
        return sum(self.inflight_window - len(h.in_flight)
                   for h in self.workers.values()
                   if h.alive and len(h.in_flight) < self.inflight_window)

    def _least_loaded(self) -> int:
        """The alive worker with the most window headroom (ties to the
        lowest id); only asked while :meth:`_headroom` is positive."""
        return min((h for h in self.workers.values() if h.alive),
                   key=lambda h: (len(h.in_flight), h.worker_id)).worker_id

    def _send_task(self, handle: WorkerHandle, checkpoint: Checkpoint) -> bool:
        key = checkpoint.key
        handle.in_flight[key] = checkpoint
        self.tasks_dispatched += 1
        if key in handle.holds:
            self.resident_sends += 1
            return self._send(handle, TaskMsg(None, key))
        # first dispatch, or replay on a survivor: the state goes along.
        # Serve mode owes every caller its task back, so nothing it
        # submits stays on the worker
        keep = self._serve_thread is None
        if keep:
            handle.holds.add(key)
        self.state_sends += 1
        return self._send(handle, TaskMsg(checkpoint, keep=keep))

    def _send(self, handle: WorkerHandle, obj: Any) -> bool:
        started = time.monotonic()
        try:
            send_segments(handle.sock, handle.codec.encode_segments(obj))
        except OSError as exc:
            self._worker_dead(handle.worker_id, f"send failed: {exc}")
            return False
        handle.send_blocked_s += time.monotonic() - started
        return True

    def _on_result(self, msg: ResultMsg) -> list:
        """Batch-mode result handling: requeue or retire the task,
        return the results worth streaming downstream."""
        checkpoint = self._acknowledge(msg)
        if checkpoint is None:
            return []
        if checkpoint.done or self._stopping:
            self.completed += 1
            self.assignment.pop(checkpoint.key, None)
            self.workers[msg.worker_id].holds.discard(checkpoint.key)
            if checkpoint.done:
                self.tasks_completed_full += 1
            else:
                self.tasks_retired += 1  # steering retired it mid-horizon
        else:
            self._enqueue(checkpoint)
        forwarded = []
        for result in self._map(msg):
            if len(result) or result.done:
                forwarded.append(result)
            else:
                result.release()
        return forwarded

    def _acknowledge(self, msg: ResultMsg) -> Optional[Checkpoint]:
        """Take a result frame's checkpoint off its worker's window;
        None (a stale result, its segment given back here) if the worker
        has been declared dead -- its tasks are reassigned and the
        replayed quantum supersedes this frame -- or no longer owes that
        task."""
        handle = self.workers.get(msg.worker_id)
        checkpoint = msg.task
        sent = (handle.in_flight.pop(checkpoint.key, None)
                if handle is not None and handle.alive else None)
        if sent is None:
            self.stale_results += 1
            if isinstance(msg.results, ShmBlock):
                for result in map_results(msg.results):
                    result.release()
            return None
        handle.items_done += 1
        self.results_received += 1
        self.state_bytes_in += len(checkpoint.state)
        self.steps += checkpoint.steps - sent.steps
        return checkpoint

    def _map(self, msg: ResultMsg) -> list:
        """The frame's quantum results: as sent, or mapped from the
        segment a local worker published them into.  Whoever drops a
        mapped result owes it one ``release()``; the aligner releases
        what it ingests."""
        results = msg.results
        if isinstance(results, ShmBlock):
            if results.name is not None:
                self.shm_blocks += 1
                self.shm_bytes += results.payload_nbytes
            results = map_results(results)
        for result in results:
            if result.done:
                self.trajectories_retired += result.n_members
        return list(results)

    def _poll_stop(self) -> None:
        if self._stopping:
            return
        if self.stop_requested is not None and self.stop_requested():
            self._stopping = True
            # retire everything waiting for a worker slot; in-flight
            # tasks are retired as their current quantum returns
            self.completed += len(self.ready)
            self.tasks_retired += len(self.ready)
            self.ready.clear()

    # -- failure handling ------------------------------------------------
    def _check_heartbeats(self) -> None:
        now = time.monotonic()
        for handle in list(self.workers.values()):
            if handle.alive and now - handle.last_seen > self.heartbeat_timeout:
                self._worker_dead(
                    handle.worker_id,
                    f"heartbeat timeout ({self.heartbeat_timeout:.1f}s)")
                self._dispatch()

    def _worker_dead(self, worker_id: int, reason: str) -> None:
        handle = self.workers.get(worker_id)
        if handle is None or not handle.alive:
            return
        handle.alive = False
        self.workers_failed += 1
        try:
            handle.sock.close()
        except OSError:
            pass
        if handle.proc is not None:
            _kill_process(handle.proc)
        # replay every in-flight task from its last acknowledged
        # checkpoint; _dispatch re-pins it to a survivor (counted there)
        for checkpoint in handle.in_flight.values():
            self._enqueue(checkpoint)
        handle.in_flight.clear()
        handle.holds.clear()
        if not any(h.alive for h in self.workers.values()):
            raise ClusterError(
                f"all workers dead (last: worker {worker_id}: {reason})")

    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill a locally spawned worker process (fault injection)."""
        proc = self._procs.get(worker_id)
        if proc is None:
            raise ClusterError(
                f"worker {worker_id} has no local process to kill")
        proc.kill()

    # -- serve mode ------------------------------------------------------
    def serve(self) -> None:
        """Start the fleet and a background scheduling thread, turning
        the master into a long-lived *quantum executor*: callers submit
        single quanta via :meth:`execute` and get futures back, while
        affinity, bounded in-flight windows, heartbeats and replay-on-
        death keep working exactly as in batch mode.  This is the
        cluster leg of the service's shared fleet -- many concurrent
        tenant runs, one pool of worker processes."""
        if self._serve_thread is not None:
            return
        self.start()
        self._serve_stop.clear()
        self._serve_thread = threading.Thread(
            target=self._serve_forever, daemon=True, name="cluster-serve")
        self._serve_thread.start()

    def execute(self, task: Any, namespace: Any = None):
        """Submit one task for one quantum; returns a
        :class:`concurrent.futures.Future` resolving to
        ``(advanced_task, result item)`` -- the same contract as a pool
        running ``task.run_quantum()``.  ``namespace``
        scopes the task's scheduling identity (affinity pin, in-flight
        slot, result future) to one tenant run."""
        from concurrent.futures import Future

        if self._serve_thread is None:
            raise ClusterError("serve() the master before execute()")
        if self._closed or self._serve_error is not None:
            raise ClusterError(
                f"cluster fleet is down: {self._serve_error or 'closed'}")
        future: Future = Future()
        env = task if namespace is None else NamespacedTask(namespace, task)
        # checkpointed here, in the caller's thread, not on the scheduler's
        self._inbox.put(("submit", -1, (Checkpoint.of(env), future)))
        return future

    def _serve_forever(self) -> None:
        try:
            while not self._serve_stop.is_set():
                self._step(self._serve_result)
        except BaseException as exc:  # noqa: BLE001 - fail every caller
            self._serve_error = exc
            failed, self._futures = self._futures, {}
            for future in failed.values():
                if not future.done():
                    future.set_exception(ClusterError(
                        f"cluster fleet failed: {exc}"))

    def _serve_result(self, msg: ResultMsg) -> None:
        """Serve-mode result handling: one quantum done, resolve its
        future (the per-run emitters above the fleet own rescheduling,
        so nothing is re-enqueued here)."""
        checkpoint = self._acknowledge(msg)
        if checkpoint is None:
            return
        self.completed += 1
        if checkpoint.done:
            # the tenant run is finished with this lane: drop the pin so
            # the affinity map cannot grow without bound across runs
            self.assignment.pop(checkpoint.key, None)
        (result,) = self._map(msg)
        future = self._futures.pop(checkpoint.key, None)
        if future is not None and not future.done():
            env = pickle.loads(checkpoint.state)
            task = env.task if isinstance(env, NamespacedTask) else env
            future.set_result((task, result))
        else:
            result.release()  # nobody waits for it any more

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        """Tear the fleet down: shutdown frames, sockets, worker
        processes.  Idempotent -- closing twice (or closing a master
        that never started) is a no-op, so every caller on every error
        path may close defensively."""
        if self._closed:
            return
        self._closed = True
        if self._serve_thread is not None:
            self._serve_stop.set()
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
            orphaned = list(self._futures.values())
            self._futures = {}
            # submissions the serve thread never dequeued hold futures
            # not yet registered in _futures -- drain those too, or
            # their waiters hang forever
            while True:
                try:
                    kind, _worker_id, payload = self._inbox.get_nowait()
                except queue.Empty:
                    break
                if kind == "submit":
                    orphaned.append(payload[1])
            for future in orphaned:
                if not future.done():
                    future.set_exception(
                        ClusterError("master closed with quanta in flight"))
        for handle in self.workers.values():
            if handle.alive:
                try:
                    send_segments(handle.sock,
                                  handle.codec.encode_segments(Shutdown()))
                except OSError:
                    pass
        for handle in self.workers.values():
            try:
                handle.sock.close()
            except OSError:
                pass
        if self._listener is not None:
            self._listener.close()
            self._listener = None
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
        """Run-report counters: scheduler totals plus per-link traffic."""
        counters: dict[str, float] = {
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
            # quanta whose results came back through a shared segment
            "net.shm_blocks": self.shm_blocks,
            "net.shm_bytes": self.shm_bytes,
            # uniform scheduler counters (same names as the shared-memory
            # emitter and engines, one task message == one quantum) so run
            # reports and the adaptive benchmark read a single vocabulary
            "sim.quanta_dispatched": self.tasks_dispatched,
            "sim.tasks_completed": self.tasks_completed_full,
            "sim.tasks_retired": self.tasks_retired,
            "sim.quanta": self.results_received,
            "sim.steps": self.steps,
            "sim.trajectories_retired": self.trajectories_retired,
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
            totals["bytes_out"] += codec.bytes_out
            totals["bytes_in"] += codec.bytes_in
            totals["messages_out"] += codec.messages_out
            totals["messages_in"] += codec.messages_in
            totals["bytes_pickled"] += codec.bytes_pickled
            totals["bytes_oob"] += codec.bytes_oob
        for name, value in totals.items():
            counters[f"net.{name}"] = value
        return counters


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


# ----------------------------------------------------------------------
# workflow integration
# ----------------------------------------------------------------------

class ClusterSourceNode(SourceNode):
    """Source stage streaming a :class:`ClusterMaster`'s results into the
    graph; exports the master's counters (and ``task_counters``, what
    the task source's ``build_tasks()`` said about the tasks it was
    built with) to the run report on finish."""

    def __init__(self, master: ClusterMaster,
                 task_counters: Optional[dict] = None,
                 name: str = "cluster-master"):
        super().__init__(name=name)
        self.master = master
        self.task_counters = task_counters or {}

    def generate(self):
        return self.master.run()

    def svc_end(self) -> None:
        counters = {**self.task_counters, **self.master.counters()}
        for counter, value in counters.items():
            if value:
                self.trace_incr(counter, value)


def run_workflow_cluster(model, config, controller=None, tracer=None,
                         fault_hook=None):
    """:func:`repro.pipeline.run_workflow` for a config whose backend
    names this runtime, with the master's ``fault_hook`` exposed: tasks
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
