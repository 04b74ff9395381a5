"""One shared worker fleet, many tenant runs: the service's muscle.

A batch run owns its backend; one :class:`SharedFleet` outlives every
run instead.  Each tenant run submits its simulation dispatches (each a
chain of quanta until a sample, :func:`~repro.sim.engine.run_quantum`)
through a :class:`FleetClient`, an executor facade (``submit(fn, *args)
-> Future``) that :class:`~repro.sim.engine.SimEngineNode` takes as its
``pool``.

One admission point, and no thread of the fleet's own: a submit waits
for its slot on the calling engine's thread.  A tenant runs
``max_inflight`` engines, one dispatch out each (the per-tenant
backpressure bound; a sweep's backlog waits in its own emitter), so the
wait holds up no one else.  Tenants waiting for one slot take turns by
stride (:class:`~repro.service.fairshare.StrideScheduler`):

* ``"processes"`` / ``"cluster"``: the submit and its future are a
  persistent :class:`~repro.distributed.net.ClusterMaster`'s, under the
  tenant's namespace; its ledger gives each worker's one slot to the
  lowest-pass tenant waiting on *that* worker.  Tasks stay resident on
  their worker until their tenant is released and settled.
* ``"threads"`` (tests and tiny deployments): the dispatch runs on the
  engine's thread under an ``n_workers``-slot gate, which also holds a
  tenant to ``max_inflight``.

Per-tenant results are **independent of dispatch order** -- each dispatch
is a pure function of its task state -- so fair-share interleaving never
changes what a run computes, only when.  That is the invariant behind
the service's bit-identical-to-batch guarantee.

Hygiene: :meth:`SharedFleet.start` sweeps shared-memory segments left
by dead processes (:func:`repro.distributed.shm.sweep_dead_owners`), so
a service restarted after a crash reclaims every page a previous
incarnation's tenants leaked.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.distributed.ledger import ClusterError
from repro.distributed.shm import sweep_dead_owners
from repro.service.fairshare import StrideScheduler


class FleetClosed(RuntimeError):
    """Submission to a closed fleet, or by a released tenant."""


@dataclass(eq=False)
class _Tenant:
    """Book-keeping of one registered tenant."""

    key: str
    weight: float
    max_inflight: int
    #: submitters waiting for admission
    waiting: int = 0
    inflight: int = 0
    submitted: int = 0
    completed: int = 0
    wait_s: float = 0.0
    busy_s: float = 0.0
    released: bool = False


class FleetClient:
    """Executor facade for one tenant: what a run's engine nodes hold.
    It states its width like every pool: the fleet's ``n_workers`` run
    dispatches at once (the run fuses its seed blocks to them), and
    ``lanes``, the tenant's ``max_inflight``, are its (one engine each).
    """

    def __init__(self, fleet: "SharedFleet", tenant: str, lanes: int):
        self._fleet = fleet
        self.tenant = tenant
        self.n_workers = fleet.n_workers
        self.lanes = lanes

    def submit(self, fn: Callable, *args: Any) -> Future:
        return self._fleet.submit(self.tenant, fn, *args)

    def close(self) -> None:
        """Deregister the tenant (waiting submitters get FleetClosed)."""
        self._fleet.release(self.tenant)


class SharedFleet:
    """The shared pool of simulation workers; see the module docstring.

    Parameters
    ----------
    n_workers:
        Worker slots (threads, or the master's worker processes).
    backend:
        ``"threads"``, or ``"processes"`` / ``"cluster"`` (one runtime).

    A tenant runs ``max_inflight`` engines (default ``n_workers``), so
    it holds at most that many dispatches: a lone tenant saturates the
    fleet; under contention the stride turns share slots out fairly.
    """

    BACKENDS = ("threads", "processes", "cluster")

    def __init__(self, n_workers: int, backend: str = "processes"):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown fleet backend {backend!r}; pick one of "
                f"{', '.join(self.BACKENDS)}")
        self.n_workers = n_workers
        self.backend = backend

        self._sched = StrideScheduler()
        self._cond = threading.Condition()
        self._tenants: dict[str, _Tenant] = {}
        #: dispatches (chains of quanta until a sample), not quanta
        self._quanta_dispatched = 0
        #: threads: slots taken, and seconds submitters waited for one
        self._running = 0
        self._wait_s = 0.0
        self._started = False
        self._closed = False
        self._master: Any = None
        self._swept_at_start: list[str] = []

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SharedFleet":
        """Bring the workers up (idempotent while open).  Sweeps
        shared-memory segments orphaned by dead owners first: a crashed
        previous service (or tenant master) must not leak pages into
        this fleet's lifetime."""
        if self._closed:
            raise FleetClosed("fleet is closed; create a new one")
        if self._started:
            return self
        self._swept_at_start = sweep_dead_owners()
        if self.backend != "threads":
            from repro.distributed.net import ClusterMaster
            # one dispatch in flight per worker, taken in turns
            self._master = ClusterMaster(self.n_workers, inflight_window=1)
            self._master.ledger.scheduler = self._sched
            self._master.start()
        self._started = True
        return self

    def close(self) -> None:
        """Tear the fleet down; idempotent.  Submitters still waiting
        get :class:`FleetClosed`; running dispatches end (a thread's
        finishes, a master's fails), so every engine wakes."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if self._master is not None:
            self._master.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- tenancy ---------------------------------------------------------
    def client(self, tenant: str, weight: float = 1.0,
               max_inflight: Optional[int] = None) -> FleetClient:
        """Register ``tenant`` (at most ``max_inflight`` dispatches on
        worker slots at once, default ``n_workers``) and hand back its
        submission facade."""
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        max_inflight = max_inflight or self.n_workers
        with self._cond:
            if self._closed:
                raise FleetClosed("fleet closed")
            if tenant in self._tenants:
                raise KeyError(f"tenant {tenant!r} already registered")
            self._sched.add(tenant, weight)
            self._tenants[tenant] = _Tenant(tenant, weight, max_inflight)
        return FleetClient(self, tenant, max_inflight)

    def release(self, tenant: str) -> None:
        """Deregister a tenant: its submitters waiting at the threads
        gate get :class:`FleetClosed` (a master admits its own), and
        once its last dispatch settles its resident tasks are dropped
        (a cancelled run leaves live tasks behind on the workers)."""
        with self._cond:
            record = self._tenants.pop(tenant, None)
            if record is None:
                return
            record.released = True
            self._sched.remove(tenant)
            settled = record.inflight == 0
            self._cond.notify_all()
        if settled:
            self._forget(tenant)

    def _forget(self, tenant: str) -> None:
        if self._master is not None:
            self._master.forget(tenant)

    # -- admission -------------------------------------------------------
    def submit(self, tenant: str, fn: Callable, *args: Any) -> Future:
        """Admit one of ``tenant``'s dispatches on the calling thread,
        waiting for its slot; returns its future (a threads fleet's is
        already done)."""
        since = time.monotonic()
        with self._cond:
            if self._closed:
                raise FleetClosed("fleet closed")
            record = self._tenants.get(tenant)
            if record is None:
                raise KeyError(f"unknown tenant {tenant!r}")
            record.submitted += 1
            record.waiting += 1
            if self._master is None:
                self._take_slot(record, since)
                started = self._admitted(record, since)
        if self._master is not None:
            try:
                # the master runs the chain on the worker holding the
                # task and resolves to (checkpoint, result), which the
                # engine hands back; ``fn`` never crosses the wire
                future = self._master.submit(fn, args[0], namespace=tenant)
            except BaseException as exc:
                with self._cond:
                    record.waiting -= 1
                if self._closed and isinstance(exc, ClusterError):
                    raise FleetClosed("fleet closed") from exc
                raise
            with self._cond:
                started = self._admitted(record, since)
            future.add_done_callback(lambda _: self._settle(record, started))
            return future
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - the caller's
            future.set_exception(exc)
        self._settle(record, started)
        return future

    def _take_slot(self, record: _Tenant, since: float) -> None:
        """Wait (under the lock) for a free slot with ``record`` under
        its bound and its turn among the tenants waiting for one."""
        while True:
            if self._closed or record.released:
                record.waiting -= 1
                raise FleetClosed("fleet closed" if self._closed else
                                  f"tenant {record.key!r} released")
            if (self._running < self.n_workers
                    and record.inflight < record.max_inflight
                    and self._sched.turn(record.key, [
                        t.key for t in self._tenants.values()
                        if t.waiting and t.inflight < t.max_inflight])):
                break
            self._cond.wait()
        self._running += 1
        self._wait_s += time.monotonic() - since
        self._cond.notify_all()  # the next turn may be due

    def _admitted(self, record: _Tenant, since: float) -> float:
        """Book an admission (under the lock); returns its time."""
        now = time.monotonic()
        record.waiting -= 1
        record.inflight += 1
        record.wait_s += now - since
        self._quanta_dispatched += 1
        return now

    def _settle(self, record: _Tenant, started: float) -> None:
        with self._cond:
            if self._master is None:
                self._running -= 1
            record.inflight -= 1
            record.completed += 1
            record.busy_s += time.monotonic() - started
            retired = record.released and record.inflight == 0
            self._cond.notify_all()
        if retired:
            self._forget(record.key)

    # -- inspection ------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._cond:
            tenants = {
                key: {
                    "weight": t.weight,
                    "max_inflight": t.max_inflight,
                    "pending": t.waiting,
                    "inflight": t.inflight,
                    "submitted": t.submitted,
                    "completed": t.completed,
                    "wait_s": t.wait_s,
                    "busy_s": t.busy_s,
                    "lag": self._sched.lag(key),  # strides owed
                }
                for key, t in self._tenants.items()
            }
            return {
                "backend": self.backend,
                "n_workers": self.n_workers,
                "global_inflight": sum(t["inflight"]
                                       for t in tenants.values()),
                "quanta_dispatched": self._quanta_dispatched,
                "swept_at_start": list(self._swept_at_start),
                # seconds submitters waited for a slot: the threads
                # gate's, or the master's for its workers' windows
                "inflight_wait_s": (self._master.inflight_wait_s
                                    if self._master is not None
                                    else self._wait_s),
                "tenants": tenants,
            }

    def tenant_stats(self, tenant: str) -> Optional[dict[str, Any]]:
        return self.stats()["tenants"].get(tenant)
