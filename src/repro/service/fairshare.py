"""Fair-share scheduling across tenant runs: stride scheduling.

The fleet has one question to answer, many times per second: *several
tenants have a simulation quantum ready -- whose goes to the next free
worker?*  FIFO answers "whoever queued first", which lets a saturating
parameter sweep (thousands of queued quanta) starve an interactive run
(a handful).  Stride scheduling answers it proportionally: each tenant
holds ``weight`` tickets and a *pass* value; the ready tenant with the
smallest pass wins and is charged ``stride = STRIDE1 / weight``.  Over
any interval, tenant throughput converges to the ticket ratio, and --
the property the service actually needs -- **no ready tenant waits more
than ~one full rotation**, however deep another tenant's backlog is.

Chosen over deficit round-robin because quanta are scheduled one at a
time (there is no per-packet byte cost to amortise, DRR's reason to
exist) and stride keeps an explicit, inspectable notion of "how far
behind fair is this tenant" (``pass``), which the service exposes in
its status endpoint.

Thread-safety: all methods take the internal lock; :meth:`turn` is
asked on the submitting engines' threads (by the fleet's gate or a
master's ledger) while tenants join and leave from API threads.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

#: numerator of the stride computation; large so integer strides keep
#: precision over a wide weight range (classic Waldspurger constant)
STRIDE1 = 1 << 20


class StrideScheduler:
    """Weighted fair-share selection among tenant keys.

    ``add(key, weight)`` registers a tenant; :meth:`select` picks, among
    the given ready tenants, the one with the smallest pass value and
    charges it one stride.  A tenant joining mid-run starts at the
    current *global pass* (the pass floor of the active set), so it
    neither owes history it was not present for nor gets to monopolise
    the fleet to "catch up".
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> (stride, pass)
        self._stride: dict[object, int] = {}
        self._pass: dict[object, float] = {}
        self._weight: dict[object, float] = {}
        self._selections: dict[object, int] = {}

    # -- membership ------------------------------------------------------
    def add(self, key: object, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        with self._lock:
            if key in self._stride:
                raise KeyError(f"tenant {key!r} already registered")
            self._stride[key] = max(1, int(STRIDE1 / weight))
            self._pass[key] = self._global_pass()
            self._weight[key] = weight
            self._selections[key] = 0

    def remove(self, key: object) -> None:
        with self._lock:
            self._stride.pop(key, None)
            self._pass.pop(key, None)
            self._weight.pop(key, None)
            self._selections.pop(key, None)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._stride

    def tenants(self) -> list[object]:
        with self._lock:
            return list(self._stride)

    # -- selection -------------------------------------------------------
    def select(self, ready: Iterable[object]) -> Optional[object]:
        """The ready tenant with the smallest pass (ties to the earliest
        registered), charged one stride; None when no ready tenant is
        registered."""
        with self._lock:
            best = self._lowest(ready)
            if best is not None:
                self._charge(best)
            return best

    def turn(self, key: object, waiting: Iterable[object]) -> bool:
        """Whether ``key`` goes before every tenant ``waiting`` by
        :meth:`select`'s rule, charged if so: for a slot only its caller
        can take now.  An unregistered ``key`` is always let through."""
        with self._lock:
            if key not in self._pass:
                return True
            if self._lowest([key, *waiting]) != key:
                return False
            self._charge(key)
            return True

    def _lowest(self, ready: Iterable[object]) -> Optional[object]:
        """Called under the lock."""
        ready = set(ready)
        return min((key for key in self._pass if key in ready),
                   key=self._pass.__getitem__, default=None)

    def _charge(self, key: object) -> None:
        self._pass[key] += self._stride[key]
        self._selections[key] += 1

    # -- inspection ------------------------------------------------------
    def _global_pass(self) -> float:
        """Pass floor of the active set (0 when empty): where a joining
        tenant starts.  Called under the lock."""
        return min(self._pass.values(), default=0.0)

    def lag(self, key: object) -> float:
        """How far behind the fair-share frontier ``key`` is, in strides
        of its own weight (0 = exactly on schedule; larger = owed
        service).  Surfaced by the service status endpoint."""
        with self._lock:
            if key not in self._pass:
                raise KeyError(key)
            behind = self._pass[key] - self._global_pass()
            return -behind / self._stride[key]

    def snapshot(self) -> dict[object, dict[str, float]]:
        with self._lock:
            floor = self._global_pass()
            return {
                key: {
                    "weight": self._weight[key],
                    "pass": self._pass[key] - floor,
                    "selections": self._selections[key],
                }
                for key in self._stride
            }
