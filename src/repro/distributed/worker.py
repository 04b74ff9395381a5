"""repro.distributed.worker: the cluster worker process.

One worker = one TCP connection to the master.  Which quantum runs next
is decided above the master (by the simulation farm's emitter), and
pinning, windows and reassignment live master-side; what lives here is
the simulation itself -- the worker keeps the live tasks it advances,
the master only their checkpoints:

1. connect to the master and send :class:`~repro.distributed.net.Hello`
   (which states the wire-protocol number);
2. start a heartbeat thread
   (:class:`~repro.distributed.net.Heartbeat` every ``interval`` seconds);
3. for every :class:`~repro.distributed.net.TaskMsg`: take the task from
   the message (a :class:`~repro.distributed.net.Checkpoint` to unpickle,
   or a live task) or, for ``TaskMsg(None, key)``, from ``resident``; run
   simulation quanta until one yields a sample or the task is done
   (:func:`~repro.sim.engine.run_quantum`, what an in-process engine
   runs) and send a single :class:`~repro.distributed.net.ResultMsg`
   frame carrying the advanced task's checkpoint *and* that quantum's
   one result item (atomic: the master never sees one without the
   other) -- the item itself, or, for a worker its master spawned with
   a shared-memory prefix, the :class:`~repro.distributed.shm.ShmBlock`
   it was published into.
   The task stays resident if the master
   asked for that and it is not done; a key the worker does not hold is
   a :class:`~repro.distributed.net.WorkerFailure`;
4. on :class:`~repro.distributed.net.Forget`, drop the resident tasks of
   the namespace it names (keys are opaque here otherwise: a worker
   never sees tenancy);
5. exit on :class:`~repro.distributed.net.Shutdown` or connection loss.

Localhost clusters spawn this via ``multiprocessing``
(:class:`~repro.distributed.net.ClusterMaster` does it for you).  For
**remote hosts**, start the master with ``spawn_local=False`` and a
public ``bind_host``, then on each remote machine run::

    python -m repro.distributed.worker --connect MASTER_HOST:PORT --id K

with a distinct ``--id`` per worker (ids are the master's scheduling
handle; duplicates are rejected).  The machines only need this package
importable and TCP reachability to the master -- frames are
length-prefixed, checksummed pickles (:mod:`repro.distributed.message`),
so both ends must run compatible Python versions and the same wire
protocol (:data:`~repro.distributed.net.PROTOCOL`; the master refuses a
worker from a checkout that speaks another one at the handshake).
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import sys
import threading
import time
from typing import Optional

from repro.distributed.message import (FrameCodec, FrameError, StreamDecoder,
                                       send_segments)
from repro.distributed.net import (
    Checkpoint,
    Forget,
    Heartbeat,
    Hello,
    ResultMsg,
    Shutdown,
    TaskMsg,
    WorkerFailure,
    in_namespace,
)
from repro.distributed.shm import publish_results
from repro.sim.engine import run_quantum


def _connect(host: str, port: int, retries: int = 50,
             delay: float = 0.1) -> socket.socket:
    """Connect with retries: a spawned worker may beat the master's
    accept loop (never its listen, which is up before spawning)."""
    last: Optional[OSError] = None
    for _ in range(retries):
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # a worker waits for work as long as the master lets it
            sock.settimeout(None)
            return sock
        except OSError as exc:
            last = exc
            time.sleep(delay)
    raise ConnectionError(
        f"cannot reach master at {host}:{port} after {retries} tries: {last}")


def worker_main(host: str, port: int, worker_id: int,
                heartbeat_interval: float = 0.5,
                resident: Optional[dict] = None,
                shm_prefix: Optional[str] = None) -> int:
    """Run the worker loop until shutdown; returns quanta executed
    (counted by the tasks, so a dispatch adds its chain's length).

    Frames ship their numpy payloads as out-of-band buffer segments:
    the checkpoint blob and the result's sample arrays cross the wire
    without being copied into the pickle stream.  ``resident`` (task key
    -> live task) is where the worker keeps the tasks it holds; an
    in-thread caller may pass its own dict to watch it.  ``shm_prefix``
    is set only by a master that spawned this worker on its own host:
    results then go through the shared-memory result ring
    (:func:`~repro.distributed.shm.publish_results`) and the frame
    carries their descriptor.
    """
    if resident is None:
        resident = {}
    sock = _connect(host, port)
    codec = FrameCodec(name=f"worker{worker_id}")
    send_lock = threading.Lock()

    def send(obj) -> None:
        with send_lock:
            send_segments(sock, codec.encode_segments(obj))

    send(Hello(worker_id, os.getpid()))
    stop_heartbeats = threading.Event()

    def heartbeats() -> None:
        seq = 0
        while not stop_heartbeats.wait(heartbeat_interval):
            seq += 1
            try:
                send(Heartbeat(worker_id, seq))
            except OSError:
                return

    threading.Thread(target=heartbeats, daemon=True,
                     name=f"worker-{worker_id}-heartbeat").start()

    decoder = StreamDecoder(codec=codec)
    quanta = 0
    try:
        while True:
            try:
                data = sock.recv(1 << 16)
            except OSError:
                break
            if not data:
                break  # master hung up: the run is over (or it died)
            try:
                messages = decoder.feed(data)
            except FrameError as exc:
                _try_send(send, WorkerFailure(worker_id,
                                              f"stream corrupt: {exc}"))
                break
            done = False
            for msg in messages:
                if isinstance(msg, Shutdown):
                    done = True
                    break
                if isinstance(msg, Forget):
                    for key in [key for key in resident
                                if in_namespace(key, msg.namespace)]:
                        del resident[key]
                elif isinstance(msg, TaskMsg):
                    try:
                        quanta += _run_one(send, worker_id, msg, resident,
                                           shm_prefix)
                    except Exception:
                        _hang_up(sock)
                        raise
            if done:
                break
    finally:
        stop_heartbeats.set()
        try:
            sock.close()
        except OSError:
            pass
    return quanta


def _run_one(send, worker_id: int, msg: TaskMsg, resident: dict,
             shm_prefix: Optional[str]) -> int:
    """Advance the task ``msg`` names or carries by quanta until a
    sample and ship its checkpoint + result atomically; returns the
    quanta run."""
    try:
        task, key = msg.task, msg.key
        if task is None:
            task = resident.get(key)
            if task is None:
                raise LookupError(f"no resident task for key {key!r}")
        elif isinstance(task, Checkpoint):
            key, task = task.key, pickle.loads(task.state)
        quanta_before = task.quanta
        task, result = run_quantum(task)
    except Exception as exc:  # noqa: BLE001 - reported to the master
        _try_send(send, WorkerFailure(
            worker_id, f"{type(exc).__name__}: {exc}"))
        raise
    checkpoint = Checkpoint.of(task, key)
    # arriving state supersedes whatever was held under its key, and is
    # held in turn only if the master asked for that
    if (msg.keep or msg.task is None) and not task.done:
        resident[checkpoint.key] = task
    else:
        resident.pop(checkpoint.key, None)
    results = (result,)
    send(ResultMsg(worker_id, checkpoint,
                   results if shm_prefix is None
                   else publish_results(results, shm_prefix)))
    return task.quanta - quanta_before


def _hang_up(sock: socket.socket) -> None:
    """End the connection after a :class:`WorkerFailure` without
    resetting it: stop sending, then drop what the master still sends
    until it hangs up too.  Closing with unread bytes would reset the
    connection, which can discard the failure frame before the master
    reads it."""
    try:
        sock.shutdown(socket.SHUT_WR)
        while sock.recv(1 << 16):
            pass
    except OSError:
        pass


def _try_send(send, obj) -> None:
    try:
        send(obj)
    except OSError:
        pass


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.distributed.worker",
        description="CWC cluster worker: connect to a master and run "
                    "simulation quanta (see module docstring for the "
                    "remote-host protocol)")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="master address, e.g. 10.0.0.1:7000")
    parser.add_argument("--id", type=int, required=True, dest="worker_id",
                        help="unique worker id within the cluster")
    parser.add_argument("--heartbeat-interval", type=float, default=0.5,
                        help="seconds between liveness beacons")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"invalid --connect {args.connect!r}: expected HOST:PORT",
              file=sys.stderr)
        return 2
    quanta = worker_main(host, int(port), args.worker_id,
                         heartbeat_interval=args.heartbeat_interval)
    print(f"worker {args.worker_id}: {quanta} quanta executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
