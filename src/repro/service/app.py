"""Composition root: fleet + run manager + asyncio server, one object.

:class:`ServiceApp` wires the layers together and owns their lifetimes:

* a :class:`~repro.service.fleet.SharedFleet` (started first -- this is
  also where startup shared-memory hygiene runs),
* a :class:`~repro.service.run_manager.RunManager` attached to it,
* an asyncio TCP server speaking :class:`~repro.service.api.ServiceAPI`.

Two ways to run it: :meth:`serve_forever` (the ``python -m
repro.service`` path -- blocks the calling thread on the event loop)
and :meth:`start_background` (tests and notebooks -- the loop runs in a
daemon thread, the caller gets host/port back immediately and calls
:meth:`close` when done).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.service.api import ServiceAPI
from repro.service.fleet import SharedFleet
from repro.service.run_manager import RunManager


class ServiceApp:
    """The repro service: N tenant runs over one shared worker fleet."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 n_workers: int = 4, backend: str = "processes",
                 max_inflight: Optional[int] = None):
        self.host = host
        self.port = port
        self.fleet = SharedFleet(n_workers, backend=backend,
                                 max_inflight=max_inflight)
        self.manager = RunManager(self.fleet)
        self.api = ServiceAPI(self.manager)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closed = False

    # -- foreground ------------------------------------------------------
    def serve_forever(self) -> None:
        """Start the fleet and block serving requests until cancelled."""
        self.fleet.start()
        try:
            asyncio.run(self._serve())
        finally:
            self._shutdown_sync()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self.api.handle, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._ready.set()
        async with self._server:
            await self._server.serve_forever()

    # -- background (tests, notebooks) -----------------------------------
    def start_background(self, timeout: float = 30.0) -> "ServiceApp":
        """Start fleet + server with the event loop on a daemon thread;
        returns once the listening port is bound (port 0 is resolved to
        the real one)."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self.fleet.start()

        def runner() -> None:
            try:
                asyncio.run(self._serve())
            except asyncio.CancelledError:
                pass
            except BaseException as exc:  # noqa: BLE001 - reported below
                self._startup_error = exc
                self._ready.set()

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="service-loop")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start listening")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service startup failed: {self._startup_error}")
        return self

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        """Stop accepting, cancel live runs, drain, tear the fleet down;
        idempotent."""
        if self._closed:
            return
        self._closed = True
        loop, server = self._loop, self._server
        if loop is not None and server is not None and loop.is_running():
            def stop() -> None:
                server.close()
                for task in asyncio.all_tasks(loop):
                    task.cancel()
            loop.call_soon_threadsafe(stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._shutdown_sync()

    def _shutdown_sync(self) -> None:
        self.manager.close()
        self.fleet.close()

    def __enter__(self) -> "ServiceApp":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
