"""Steering: the programmatic equivalent of the paper's GUI front-end.

The paper's interface can "start new simulations, steer and terminate
running simulations" and "view partial results during the run".  A
:class:`SteeringController` provides exactly that surface: it is handed to
:func:`repro.pipeline.builder.run_workflow`, receives a
:class:`ProgressEvent` for every analysed window while the pipeline is
still running, and its :meth:`stop` drains the run early (in-flight tasks
are retired at their next quantum boundary instead of being re-dispatched).

:class:`repro.pipeline.adaptive.AdaptiveController` extends this surface
into a closed feedback loop: policies consume the progress events and
issue scheduling decisions (stop, re-prioritise) back into the simulation
half through the scheduler link registered via :meth:`attach_scheduler`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.analysis.engines import WindowStatistics


@dataclass(frozen=True)
class ProgressEvent:
    """One analysed window, delivered while the run is in flight."""

    window_index: int
    start_time: float
    end_time: float
    statistics: WindowStatistics
    #: how many windows this controller has seen *including this one*
    #: (captured atomically with the notification, so callbacks never
    #: race the counter)
    windows_seen: int = 0


class SteeringController:
    """Thread-safe run steering + progress observation.

    The whole notify-and-callback sequence runs under the controller's
    (reentrant) lock: bumping ``windows_seen``, publishing ``latest`` and
    invoking ``on_progress`` are one atomic step, so a callback observes
    exactly the state produced by its own event even when several stat
    workers notify concurrently.  Callbacks may call :meth:`stop` (it
    takes no lock) and re-enter controller accessors, but must not block.
    """

    def __init__(self,
                 on_progress: Optional[Callable[[ProgressEvent], None]] = None):
        self._stop = threading.Event()
        self._on_progress = on_progress
        self._lock = threading.RLock()
        self.windows_seen = 0
        self.latest: Optional[WindowStatistics] = None
        self._scheduler = None

    # -- control ---------------------------------------------------------
    def stop(self) -> None:
        """Request early termination: running trajectories are retired at
        the end of their current dispatch (the quantum that yields their
        next sample, or their horizon; see
        :class:`~repro.sim.scheduler.SimTaskEmitter`)."""
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    # -- wiring (called by the pipeline) ----------------------------------
    def attach_scheduler(self, scheduler: Any) -> None:
        """Register the run's scheduler (the simulation-farm emitter or
        the cluster master) so adaptive controllers can issue decisions
        back into the simulation half.  The base controller only stores
        it; see :class:`repro.pipeline.adaptive.AdaptiveController`."""
        with self._lock:
            self._scheduler = scheduler

    @property
    def scheduler(self) -> Any:
        return self._scheduler

    def _notify(self, stats: WindowStatistics) -> bool:
        """Deliver one analysed window; returns True when the window
        should continue downstream (subclasses may veto windows that
        arrive after an adaptive stop decision, so every backend reports
        the same truncated window set)."""
        with self._lock:
            self.windows_seen += 1
            self.latest = stats
            if self._on_progress is not None:
                self._on_progress(ProgressEvent(
                    window_index=stats.window_index,
                    start_time=stats.start_time,
                    end_time=stats.end_time,
                    statistics=stats,
                    windows_seen=self.windows_seen))
        return True

    def drain_counters(self) -> list[tuple[str, float]]:
        """Trace counters produced since the last drain (the progress
        node flushes them into the run report); none for the base
        controller."""
        return []

    def stop_after(self, n_windows: int) -> Callable[[ProgressEvent], None]:
        """Helper: returns a progress callback that stops the run once
        ``n_windows`` windows have been analysed (used in tests and the
        steering example)."""
        def callback(event: ProgressEvent) -> None:
            # the callback runs inside _notify's lock, so the count
            # carried by the event *is* the current count: the stop fires
            # on exactly the n-th notification, never a window early or
            # late under concurrent notifies
            if event.windows_seen >= n_windows:
                self.stop()
        return callback
