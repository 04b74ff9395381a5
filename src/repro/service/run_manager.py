"""Multiplexing N concurrent steered runs over one shared fleet.

Each submitted :class:`~repro.service.protocol.RunSpec` becomes a
:class:`RunHandle` and one call any batch caller could make --
:func:`~repro.pipeline.run_workflow` (or :func:`~repro.sweep.run_sweep`)
with the tenant's :class:`~repro.service.fleet.FleetClient` as the
borrowed ``pool``: its own workflow (generator, emitter backlog,
aligner, windows, ordered stat farm), its own
:class:`~repro.pipeline.steering.SteeringController` (or
:class:`~repro.pipeline.adaptive.AdaptiveController` when the spec asks
for adaptive policies) and its own :class:`~repro.ff.trace.Tracer` --
nothing run-scoped is shared between tenants, which is what the
concurrent-steering isolation suite pins.

Only the *simulation quanta* leave the run: the engine stages submit
them to the :class:`~repro.service.fleet.SharedFleet` under the run's
tenant key, where fair-share scheduling and per-tenant backpressure
decide when each executes.  Because a quantum is a pure function of its
task state, the interleaving chosen by the fleet never changes a run's
results -- every tenant's streamed windows are bit-identical to a solo
batch run of the same spec.

Progress streams out through an in-process pub/sub: the controller's
``on_progress`` appends one JSON-ready event per analysed window to the
handle's replay log and pushes it to every live subscriber (asyncio
queues fed via ``loop.call_soon_threadsafe``, so WebSocket handlers
never touch threads).  A subscriber attaching mid-run first replays the
log -- late joiners see the identical full stream.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Optional

from repro.ff.trace import Tracer
from repro.pipeline.adaptive import make_adaptive_controller, task_lag_key
from repro.pipeline.builder import run_workflow
from repro.pipeline.steering import SteeringController
from repro.service.fleet import SharedFleet
from repro.service.protocol import RunSpec, window_to_jsonable
from repro.sweep import run_sweep


class RunState:
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    FINAL = (DONE, FAILED, CANCELLED)


class RunHandle:
    """Everything the service knows about one tenant run."""

    def __init__(self, run_id: str, spec: RunSpec,
                 controller: SteeringController):
        self.run_id = run_id
        self.spec = spec
        self.controller = controller
        self.tracer = Tracer()
        self.state = RunState.PENDING
        self.error: Optional[str] = None
        self.cancel_requested = False
        self.submitted_at = time.time()
        self.started_monotonic: Optional[float] = None
        self.elapsed_s: Optional[float] = None
        self.windows: list = []
        self.sweep_result = None  # SweepResult for sweep specs

        self._lock = threading.Lock()
        self._events: list[dict[str, Any]] = []
        self._subscribers: list[tuple[Any, Any]] = []  # (loop, queue)
        self._finished = threading.Event()
        self.thread: Optional[threading.Thread] = None

    # -- pub/sub ---------------------------------------------------------
    def publish(self, event: dict[str, Any]) -> None:
        """Append to the replay log and push to live subscribers.  Runs
        on whichever worker thread produced the event."""
        with self._lock:
            self._events.append(event)
            subscribers = list(self._subscribers)
            if event.get("type") == "end":
                self._subscribers.clear()
        for loop, queue in subscribers:
            loop.call_soon_threadsafe(queue.put_nowait, event)

    def subscribe(self, loop: Any, queue: Any) -> list[dict[str, Any]]:
        """Register a live subscriber; returns the replay backlog.  The
        registration and the backlog snapshot are one atomic step, so
        the subscriber sees every event exactly once in order."""
        with self._lock:
            backlog = list(self._events)
            if not (backlog and backlog[-1].get("type") == "end"):
                self._subscribers.append((loop, queue))
            return backlog

    def unsubscribe(self, queue: Any) -> None:
        with self._lock:
            self._subscribers = [(lp, q) for lp, q in self._subscribers
                                 if q is not queue]

    @property
    def finished(self) -> bool:
        return self._finished.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._finished.wait(timeout)

    def events(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._events)

    # -- views -----------------------------------------------------------
    def status(self, fleet: Optional[SharedFleet] = None) -> dict[str, Any]:
        with self._lock:
            windows_emitted = sum(
                1 for e in self._events if e.get("type") == "window")
        status: dict[str, Any] = {
            "run_id": self.run_id,
            "label": self.spec.label,
            "model": self.spec.model,
            "state": self.state,
            "cancel_requested": self.cancel_requested,
            "windows_emitted": windows_emitted,
            "n_simulations": self.spec.config.n_simulations,
            "weight": self.spec.weight,
            "submitted_at": self.submitted_at,
            "elapsed_s": self.elapsed_s,
            "error": self.error,
            "stop_window": getattr(self.controller, "stop_window", None),
            "stop_reason": getattr(self.controller, "stop_reason", ""),
            "sweep_points": (self.spec.sweep.n_points
                             if self.spec.sweep is not None else None),
        }
        if fleet is not None:
            status["fleet"] = fleet.tenant_stats(self.run_id)
        return status


class RunManager:
    """Submit, observe, steer and cancel runs over a shared fleet.

    The manager *attaches to* the fleet, it does not own it -- the app
    wires one fleet to one manager and closes both; tests may share a
    fleet between managers.
    """

    def __init__(self, fleet: SharedFleet):
        self.fleet = fleet
        self._lock = threading.Lock()
        self._runs: dict[str, RunHandle] = {}
        self._seq = 0
        self._closed = False

    # -- submission ------------------------------------------------------
    def submit(self, spec: RunSpec) -> RunHandle:
        controller = (make_adaptive_controller(spec.config)
                      if spec.config.adaptive else None)
        if controller is None:
            controller = SteeringController()
        with self._lock:
            if self._closed:
                raise RuntimeError("run manager is closed")
            self._seq += 1
            run_id = f"run-{self._seq}"
            handle = RunHandle(run_id, spec, controller)
            self._runs[run_id] = handle
        controller._on_progress = self._progress_callback(handle)
        handle.thread = threading.Thread(
            target=self._run, args=(handle,), daemon=True,
            name=f"service-{run_id}")
        handle.thread.start()
        return handle

    def _progress_callback(self, handle: RunHandle):
        def on_progress(event) -> None:
            handle.publish({
                "type": "window",
                "run_id": handle.run_id,
                "seq": event.windows_seen,
                "window": window_to_jsonable(event.statistics),
            })
        return on_progress

    def _run(self, handle: RunHandle) -> None:
        spec = handle.spec
        run_id = handle.run_id
        client = None
        try:
            model = spec.build_model()
            client = self.fleet.client(run_id, weight=spec.weight,
                                       max_inflight=spec.max_inflight)
            handle.state = RunState.RUNNING
            handle.started_monotonic = time.monotonic()
            if spec.sweep is not None:
                cfg = spec.config
                result = run_sweep(
                    model, spec.sweep, t_end=cfg.t_end,
                    quantum=cfg.quantum, sample_every=cfg.sample_every,
                    engine_kernel=cfg.engine_kernel,
                    method=cfg.method,
                    tracer=handle.tracer,
                    pool=client,
                    stop_requested=lambda:
                        handle.controller.stop_requested)
                handle.sweep_result = result
                handle.publish({
                    "type": "sweep",
                    "run_id": run_id,
                    "n_points": result.n_points,
                    "n_cuts": result.n_cuts,
                    "observables": list(result.observable_names),
                    # cancelled sweeps leave unreached cuts NaN; ship
                    # null instead (strict JSON has no NaN)
                    "times": [t if t == t else None
                              for t in result.times.tolist()],
                    "final_mean": result.mean[:, -1, :].tolist(),
                })
            else:
                handle.windows = run_workflow(
                    model, spec.config, controller=handle.controller,
                    tracer=handle.tracer, pool=client).windows
            handle.state = (RunState.CANCELLED if handle.cancel_requested
                            else RunState.DONE)
        except BaseException as exc:  # noqa: BLE001 - reported to tenant
            handle.error = (f"{type(exc).__name__}: {exc}\n"
                            f"{traceback.format_exc(limit=5)}")
            handle.state = RunState.FAILED
        finally:
            if handle.started_monotonic is not None:
                handle.elapsed_s = (time.monotonic()
                                    - handle.started_monotonic)
            if client is not None:
                client.close()
            handle.publish({
                "type": "end",
                "run_id": run_id,
                "state": handle.state,
                "error": handle.error,
                "windows_streamed": len(handle.windows),
                "stop_window": getattr(handle.controller,
                                       "stop_window", None),
                "stop_reason": getattr(handle.controller,
                                       "stop_reason", ""),
            })
            handle._finished.set()

    # -- control ---------------------------------------------------------
    def get(self, run_id: str) -> RunHandle:
        with self._lock:
            handle = self._runs.get(run_id)
        if handle is None:
            raise KeyError(f"unknown run {run_id!r}")
        return handle

    def list(self) -> list[RunHandle]:
        with self._lock:
            return list(self._runs.values())

    def cancel(self, run_id: str) -> dict[str, Any]:
        """Steered early stop: in-flight dispatches retire when they come
        back (at a task's next sample), the backlog is cancelled
        outright."""
        handle = self.get(run_id)
        if not handle.finished:
            handle.cancel_requested = True
            handle.controller.stop()
        return handle.status(self.fleet)

    def steer(self, run_id: str, action: dict[str, Any]) -> dict[str, Any]:
        """Apply one steering action: ``{"action": "stop"}`` (same as
        cancel) or ``{"action": "repriority"}`` (re-key the run's
        backlog laggards-first, the adaptive hook driven manually)."""
        kind = action.get("action")
        if kind == "stop":
            return self.cancel(run_id)
        if kind == "repriority":
            handle = self.get(run_id)
            scheduler = handle.controller.scheduler
            moved = 0
            if scheduler is not None and hasattr(scheduler, "repriority"):
                moved = scheduler.repriority(task_lag_key)
            status = handle.status(self.fleet)
            status["reprioritized"] = moved
            return status
        raise ValueError(
            f"unknown steer action {kind!r}; expected 'stop' or "
            f"'repriority'")

    def close(self, timeout: float = 30.0) -> None:
        """Stop every live run and wait for the drain; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._runs.values())
        for handle in handles:
            if not handle.finished:
                handle.cancel_requested = True
                handle.controller.stop()
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.wait(max(0.0, deadline - time.monotonic()))
