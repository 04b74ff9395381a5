"""One shared worker fleet, many tenant runs: the service's muscle.

A batch run owns its backend: ``backend="processes"`` spawns worker
processes, runs, and tears them down.  The service inverts that: one
:class:`SharedFleet` outlives every run, and each tenant run submits its
simulation dispatches (each a chain of quanta until a sample, see
:func:`~repro.sim.engine.run_quantum`) through a :class:`FleetClient`
facade that looks exactly like an executor (``submit(fn, *args) ->
Future``), which is what :class:`~repro.sim.engine.SimEngineNode` takes
as its ``pool``.

Between the facade and the workers sits the fair-share layer:

* every submission lands in its tenant's **pending queue** -- never
  directly on the pool;
* a tenant has at most ``max_inflight`` dispatches on workers at once
  (the per-tenant backpressure bound: a sweep with 10k queued ones holds
  the same number of worker slots as anyone else);
* one dispatcher thread moves work from pending queues to the pool,
  picking the next tenant by **stride scheduling**
  (:class:`~repro.service.fairshare.StrideScheduler`) whenever a worker
  slot frees up.

Backends: ``"threads"`` (an in-process pool, for tests and tiny
deployments) or a persistent :class:`~repro.distributed.net.
ClusterMaster` (``"processes"`` and ``"cluster"`` both name it): worker
processes spawned on this host, task keys namespaced per tenant, tasks
resident on their worker (a tenant's engines get checkpoints back, the
master never unpickles one), results back through the shared-memory
ring, replay on worker death.  Releasing a tenant drops its resident
tasks from the workers once its last dispatch has settled.

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
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Optional

from repro.distributed.shm import sweep_dead_owners
from repro.service.fairshare import StrideScheduler


class FleetClosed(RuntimeError):
    """Submission against a closed (or closing) fleet."""


class _Tenant:
    """Book-keeping of one registered tenant."""

    __slots__ = ("key", "weight", "max_inflight", "pending", "inflight",
                 "submitted", "completed", "wait_s", "busy_s", "released")

    def __init__(self, key: str, weight: float, max_inflight: int):
        self.key = key
        self.weight = weight
        self.max_inflight = max_inflight
        self.pending: deque = deque()
        self.inflight = 0
        self.submitted = 0
        self.completed = 0
        self.wait_s = 0.0
        self.busy_s = 0.0
        self.released = False


class FleetClient:
    """Executor facade for one tenant: what a run's engine nodes hold.

    Quacks like an executor (``submit`` returning a future), which is
    all :class:`~repro.sim.engine.SimEngineNode` asks of its pool.
    """

    def __init__(self, fleet: "SharedFleet", tenant: str):
        self._fleet = fleet
        self.tenant = tenant

    def submit(self, fn: Callable, *args: Any) -> Future:
        return self._fleet.submit(self.tenant, fn, *args)

    def close(self) -> None:
        """Deregister the tenant (pending work is failed)."""
        self._fleet.release(self.tenant)


class SharedFleet:
    """The shared pool of simulation workers; see the module docstring.

    Parameters
    ----------
    n_workers:
        Worker slots (threads, or the master's worker processes).
    backend:
        ``"threads"``, or ``"processes"`` / ``"cluster"`` (one runtime).
    max_inflight:
        Default per-tenant bound on dispatches occupying worker slots
        (clients may lower it per run).  Defaults to ``n_workers`` -- a
        lone tenant saturates the fleet; under contention the stride
        scheduler shares slots out fairly anyway.
    """

    BACKENDS = ("threads", "processes", "cluster")

    def __init__(self, n_workers: int, backend: str = "processes",
                 max_inflight: Optional[int] = None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown fleet backend {backend!r}; pick one of "
                f"{', '.join(self.BACKENDS)}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.n_workers = n_workers
        self.backend = backend
        self.max_inflight = max_inflight or n_workers

        self._sched = StrideScheduler()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._tenants: dict[str, _Tenant] = {}
        self._global_inflight = 0
        #: dispatches (chains of quanta until a sample), not quanta
        self._quanta_dispatched = 0
        self._started = False
        self._closed = False
        self._pool: Any = None
        self._master: Any = None
        self._dispatcher: Optional[threading.Thread] = None
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
        if self.backend == "threads":
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers,
                thread_name_prefix="fleet-worker")
        else:
            from repro.distributed.net import ClusterMaster
            self._master = ClusterMaster(
                self.n_workers,
                inflight_window=max(
                    1, -(-self.max_inflight // self.n_workers)))
            self._master.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="fleet-dispatch")
        self._started = True
        self._dispatcher.start()
        return self

    def close(self) -> None:
        """Tear the fleet down; idempotent.  Pending (undispatched)
        submissions fail with :class:`FleetClosed`; in-flight ones are
        allowed to finish so engine threads blocked on their futures
        always wake."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            failed = []
            for tenant in self._tenants.values():
                failed.extend(tenant.pending)
                tenant.pending.clear()
            self._cond.notify_all()
        for _fn, _args, future, _t in failed:
            future.set_exception(FleetClosed("fleet closed"))
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._master is not None:
            self._master.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- tenancy ---------------------------------------------------------
    def client(self, tenant: str, weight: float = 1.0,
               max_inflight: Optional[int] = None) -> FleetClient:
        """Register ``tenant`` and hand back its submission facade."""
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        with self._cond:
            if self._closed:
                raise FleetClosed("fleet closed")
            if tenant in self._tenants:
                raise KeyError(f"tenant {tenant!r} already registered")
            self._tenants[tenant] = _Tenant(
                tenant, weight, max_inflight or self.max_inflight)
        self._sched.add(tenant, weight)
        return FleetClient(self, tenant)

    def release(self, tenant: str) -> None:
        """Deregister a tenant; its pending submissions fail, in-flight
        dispatches complete normally (their futures are already bound),
        and once the last of them has settled its resident tasks are
        dropped from the workers (a cancelled run leaves live tasks
        behind on a long-lived fleet)."""
        with self._cond:
            record = self._tenants.pop(tenant, None)
            pending = list(record.pending) if record else []
            if record:
                record.pending.clear()
                record.released = True
            settled = record is not None and record.inflight == 0
            self._cond.notify_all()
        self._sched.remove(tenant)
        for _fn, _args, future, _t in pending:
            future.set_exception(FleetClosed(
                f"tenant {tenant!r} released with work pending"))
        if settled:
            self._forget(tenant)

    def _forget(self, tenant: str) -> None:
        if self._master is not None:
            self._master.forget(tenant)

    # -- submission ------------------------------------------------------
    def submit(self, tenant: str, fn: Callable, *args: Any) -> Future:
        future: Future = Future()
        with self._cond:
            if self._closed:
                raise FleetClosed("fleet closed")
            record = self._tenants.get(tenant)
            if record is None:
                raise KeyError(f"unknown tenant {tenant!r}")
            record.pending.append((fn, args, future, time.monotonic()))
            record.submitted += 1
            self._cond.notify_all()
        return future

    # -- dispatch --------------------------------------------------------
    def _ready_tenants(self) -> list[str]:
        """Tenants with pending work and in-flight headroom.  Called
        under the lock."""
        return [key for key, t in self._tenants.items()
                if t.pending and t.inflight < t.max_inflight]

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._closed:
                        return
                    ready = self._ready_tenants()
                    if ready and self._global_inflight < self.n_workers:
                        break
                    self._cond.wait()
                key = self._sched.select(ready)
                if key is None:  # tenant released between checks
                    continue
                record = self._tenants[key]
                fn, args, future, queued_at = record.pending.popleft()
                record.inflight += 1
                record.wait_s += time.monotonic() - queued_at
                self._global_inflight += 1
                self._quanta_dispatched += 1
            self._execute(record, fn, args, future)

    def _execute(self, record: _Tenant, fn: Callable, args: tuple,
                 future: Future) -> None:
        started = time.monotonic()
        try:
            if self._master is not None:
                # the master runs the chain on the worker holding the
                # task and resolves to (checkpoint, result), which the
                # tenant's engine hands back for the next one; ``fn``
                # never crosses the wire
                inner = self._master.submit(fn, args[0],
                                            namespace=record.key)
            else:
                inner = self._pool.submit(fn, *args)
        except BaseException as exc:  # noqa: BLE001 - fail this caller
            self._settle(record, started)
            future.set_exception(exc)
            return
        inner.add_done_callback(
            lambda done: self._on_done(record, future, started, done))

    def _on_done(self, record: _Tenant, future: Future, started: float,
                 inner: Future) -> None:
        self._settle(record, started)
        if inner.cancelled():
            future.set_exception(FleetClosed("quantum cancelled"))
            return
        exc = inner.exception()
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(inner.result())

    def _settle(self, record: _Tenant, started: float) -> None:
        with self._cond:
            self._global_inflight -= 1
            record.inflight -= 1
            record.completed += 1
            record.busy_s += time.monotonic() - started
            retired = record.released and record.inflight == 0
            self._cond.notify_all()
        if retired:
            self._forget(record.key)

    # -- inspection ------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            tenants = {
                key: {
                    "weight": t.weight,
                    "max_inflight": t.max_inflight,
                    "pending": len(t.pending),
                    "inflight": t.inflight,
                    "submitted": t.submitted,
                    "completed": t.completed,
                    "wait_s": t.wait_s,
                    "busy_s": t.busy_s,
                }
                for key, t in self._tenants.items()
            }
            return {
                "backend": self.backend,
                "n_workers": self.n_workers,
                "global_inflight": self._global_inflight,
                "quanta_dispatched": self._quanta_dispatched,
                "swept_at_start": list(self._swept_at_start),
                # seconds dispatches waited for a slot in their worker's
                # in-flight window on the master
                "inflight_wait_s": (self._master.inflight_wait_s
                                    if self._master is not None else 0.0),
                "tenants": tenants,
            }

    def tenant_stats(self, tenant: str) -> Optional[dict[str, Any]]:
        return self.stats()["tenants"].get(tenant)
