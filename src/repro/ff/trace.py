"""Runtime tracing & metrics for the streaming runtime.

FastFlow ships a trace mode (``TRACE_FASTFLOW``) that records, per node,
how many items it processed and how long it spent servicing them, and,
per queue, how often producers and consumers blocked -- the measurements
behind the paper's bottleneck analysis (which farm worker idles, which
bounded queue saturates and propagates backpressure).  This module is the
Python counterpart:

* :class:`Tracer` -- the per-run recorder the executors call into.  It is
  **off by default**: when no tracer is attached, the hot paths perform a
  single ``is None`` check per item (the "null-tracer fast path"); the
  overhead budget for the disabled path is < 5% on the farm throughput
  microbenchmark (guarded by ``benchmarks/bench_trace_overhead.py``).
* :class:`NodeTrace` -- per-node counters: items in/out, service-time
  histogram (log-scale buckets), idle time spent blocked on the input
  channel, and svc error counts.  Owned by exactly one executor thread,
  so it needs no lock.
* :class:`ChannelTrace` -- per-channel gauges: occupancy samples taken at
  every push, blocked-push / blocked-pop time.  Updated under the
  channel's own lock.  High-water marks and push/pop totals live on the
  channel itself (:meth:`repro.ff.queues.Channel.stats`).
* :class:`RunReport` -- the structured result: JSON / pretty text, plus a
  bottleneck diagnosis (slowest stage, most saturated queue, farm worker
  imbalance).

Usage::

    from repro.ff import Farm, Pipeline, Tracer, run

    tracer = Tracer()
    run(Pipeline([range(1000), Farm.replicate(work, 4)]), trace=tracer)
    report = tracer.report()
    print(report.to_text())
    report.save("run_report.json")
"""

from __future__ import annotations

import json
import re
import threading
from time import perf_counter
from typing import Any, Optional

#: Upper bounds (seconds) of the service-time histogram buckets.  Roughly
#: powers of four from 4 microseconds up, which spans "pure-Python no-op"
#: to "one Gillespie quantum" without needing per-run calibration.
HISTOGRAM_BOUNDS = (
    4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1.0,
)


def _bucket_label(i: int) -> str:
    def fmt(s: float) -> str:
        if s < 1e-3:
            return f"{s * 1e6:.0f}us"
        if s < 1.0:
            return f"{s * 1e3:.0f}ms"
        return f"{s:.0f}s"

    if i == 0:
        return f"<{fmt(HISTOGRAM_BOUNDS[0])}"
    if i == len(HISTOGRAM_BOUNDS):
        return f">={fmt(HISTOGRAM_BOUNDS[-1])}"
    return f"{fmt(HISTOGRAM_BOUNDS[i - 1])}-{fmt(HISTOGRAM_BOUNDS[i])}"


class NodeTrace:
    """Per-node counters; see module docstring."""

    __slots__ = (
        "name", "items_in", "items_out", "svc_calls", "svc_errors",
        "svc_time", "svc_min", "svc_max", "idle_time", "idle_waits",
        "buckets",
    )

    def __init__(self, name: str):
        self.name = name
        self.items_in = 0
        self.items_out = 0
        self.svc_calls = 0
        self.svc_errors = 0
        self.svc_time = 0.0
        self.svc_min = float("inf")
        self.svc_max = 0.0
        self.idle_time = 0.0
        self.idle_waits = 0
        self.buckets = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def record_svc(self, dt: float) -> None:
        self.svc_calls += 1
        self.svc_time += dt
        if dt < self.svc_min:
            self.svc_min = dt
        if dt > self.svc_max:
            self.svc_max = dt
        for i, bound in enumerate(HISTOGRAM_BOUNDS):
            if dt < bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def record_idle(self, dt: float) -> None:
        self.idle_time += dt
        self.idle_waits += 1

    def snapshot(self) -> dict[str, Any]:
        calls = self.svc_calls
        return {
            "name": self.name,
            "items_in": self.items_in,
            "items_out": self.items_out,
            "svc_calls": calls,
            "svc_errors": self.svc_errors,
            "svc_time_s": {
                "total": self.svc_time,
                "mean": (self.svc_time / calls) if calls else 0.0,
                "min": self.svc_min if calls else 0.0,
                "max": self.svc_max,
            },
            "svc_histogram": {
                _bucket_label(i): n
                for i, n in enumerate(self.buckets) if n
            },
            "idle_time_s": self.idle_time,
            "idle_waits": self.idle_waits,
        }


class ChannelTrace:
    """Per-channel gauges; see module docstring."""

    __slots__ = (
        "name", "channels", "occupancy_sum", "occupancy_samples",
        "blocked_push_time", "blocked_push_count",
        "blocked_pop_time", "blocked_pop_count",
    )

    def __init__(self, name: str):
        self.name = name
        #: every Channel object this trace was attached to (one per run;
        #: totals/high-water are read back from them at report time)
        self.channels: list[Any] = []
        self.occupancy_sum = 0
        self.occupancy_samples = 0
        self.blocked_push_time = 0.0
        self.blocked_push_count = 0
        self.blocked_pop_time = 0.0
        self.blocked_pop_count = 0

    def record_push(self, occupancy: int, blocked: float) -> None:
        self.occupancy_sum += occupancy
        self.occupancy_samples += 1
        if blocked > 0.0:
            self.blocked_push_time += blocked
            self.blocked_push_count += 1

    def record_pop(self, blocked: float) -> None:
        if blocked > 0.0:
            self.blocked_pop_time += blocked
            self.blocked_pop_count += 1

    def snapshot(self) -> dict[str, Any]:
        pushed = popped = high_water = 0
        capacity = 0
        abandoned = False
        for ch in self.channels:
            st = ch.stats()
            pushed += st.pushed
            popped += st.popped
            high_water = max(high_water, st.high_water)
            capacity = st.capacity
            abandoned = abandoned or st.abandoned
        samples = self.occupancy_samples
        return {
            "name": self.name,
            "capacity": capacity,
            "pushed": pushed,
            "popped": popped,
            "high_water": high_water,
            "saturation": (high_water / capacity) if capacity else 0.0,
            "mean_occupancy": (self.occupancy_sum / samples) if samples
            else 0.0,
            "blocked_push_s": self.blocked_push_time,
            "blocked_push_count": self.blocked_push_count,
            "blocked_pop_s": self.blocked_pop_time,
            "blocked_pop_count": self.blocked_pop_count,
            "abandoned": abandoned,
        }


class TracingOutbox:
    """Wrap an outbox so every sent item bumps the node's ``items_out``."""

    __slots__ = ("inner", "trace")

    def __init__(self, inner, trace: NodeTrace):
        self.inner = inner
        self.trace = trace

    def send(self, item: Any) -> None:
        self.trace.items_out += 1
        self.inner.send(item)

    def close(self) -> None:
        self.inner.close()


class Tracer:
    """Collects :class:`NodeTrace` / :class:`ChannelTrace` records plus
    free-form named counters for one (or several accumulated) runs."""

    def __init__(self):
        self._lock = threading.Lock()
        self._nodes: dict[str, NodeTrace] = {}
        self._channels: dict[str, ChannelTrace] = {}
        self._counters: dict[str, float] = {}
        self._wall_time = 0.0
        self._started_at: Optional[float] = None

    # -- registry (executor side) ---------------------------------------
    def node(self, name: str) -> NodeTrace:
        with self._lock:
            trace = self._nodes.get(name)
            if trace is None:
                trace = self._nodes[name] = NodeTrace(name)
            return trace

    def channel(self, channel) -> ChannelTrace:
        name = channel.name or f"ch@{id(channel):x}"
        with self._lock:
            trace = self._channels.get(name)
            if trace is None:
                trace = self._channels[name] = ChannelTrace(name)
            trace.channels.append(channel)
            return trace

    def incr(self, name: str, n: float = 1) -> None:
        """Bump a named counter (thread-safe; used by domain nodes, e.g.
        ``sim.steps`` from the simulation engines)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    # -- run lifecycle ---------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._started_at is None:
                self._started_at = perf_counter()

    def stop(self) -> None:
        with self._lock:
            if self._started_at is not None:
                self._wall_time += perf_counter() - self._started_at
                self._started_at = None

    # -- reporting -------------------------------------------------------
    def report(self) -> "RunReport":
        """Snapshot everything recorded so far into a :class:`RunReport`.
        Call after the run finished (the executors stop the clock)."""
        with self._lock:
            wall = self._wall_time
            if self._started_at is not None:  # report mid-run
                wall += perf_counter() - self._started_at
            nodes = [t.snapshot() for t in self._nodes.values()]
            channels = [t.snapshot() for t in self._channels.values()]
            counters = dict(self._counters)
        return RunReport(wall_time=wall, nodes=nodes, channels=channels,
                         counters=counters)


_WORKER_RE = re.compile(r"^(?P<farm>.+)\.w(?P<idx>\d+)$")


class RunReport:
    """Structured run report: per-node service-time stats, per-channel
    occupancy gauges, counters, and a bottleneck diagnosis."""

    def __init__(self, wall_time: float, nodes: list[dict],
                 channels: list[dict], counters: dict[str, float]):
        self.wall_time = wall_time
        self.nodes = nodes
        self.channels = channels
        self.counters = counters

    # -- diagnosis -------------------------------------------------------
    def bottleneck(self) -> dict[str, Any]:
        """Name the slowest stage, the most saturated queue and the worst
        farm worker imbalance (the paper's Fig. 3-6 tuning questions)."""
        out: dict[str, Any] = {
            "slowest_stage": None,
            "most_saturated_channel": None,
            "farm_imbalance": None,
            "diagnosis": "no activity recorded",
        }
        busy_nodes = [n for n in self.nodes if n["svc_time_s"]["total"] > 0]
        parts = []
        if busy_nodes:
            slow = max(busy_nodes, key=lambda n: n["svc_time_s"]["total"])
            busy = slow["svc_time_s"]["total"]
            frac = busy / self.wall_time if self.wall_time > 0 else 0.0
            out["slowest_stage"] = {
                "name": slow["name"],
                "busy_s": busy,
                "busy_fraction": frac,
                "mean_svc_s": slow["svc_time_s"]["mean"],
            }
            parts.append(
                f"slowest stage {slow['name']!r} "
                f"(busy {busy:.3f}s, {frac:.0%} of wall, "
                f"mean svc {slow['svc_time_s']['mean'] * 1e3:.3f}ms)")
        active = [c for c in self.channels if c["pushed"] > 0]
        if active:
            sat = max(active, key=lambda c: (c["blocked_push_s"],
                                             c["saturation"]))
            out["most_saturated_channel"] = {
                "name": sat["name"],
                "high_water": sat["high_water"],
                "capacity": sat["capacity"],
                "blocked_push_s": sat["blocked_push_s"],
            }
            parts.append(
                f"most saturated queue {sat['name']!r} "
                f"(high-water {sat['high_water']}/{sat['capacity']}, "
                f"producers blocked {sat['blocked_push_s']:.3f}s)")
        imbalance = self._farm_imbalance()
        if imbalance is not None:
            out["farm_imbalance"] = imbalance
            parts.append(
                f"farm {imbalance['farm']!r} busy-time imbalance "
                f"{imbalance['imbalance']:.0%} across "
                f"{imbalance['n_workers']} workers")
        if parts:
            out["diagnosis"] = "; ".join(parts)
        return out

    def _farm_imbalance(self) -> Optional[dict[str, Any]]:
        farms: dict[str, list[dict]] = {}
        for n in self.nodes:
            m = _WORKER_RE.match(n["name"])
            if m:
                farms.setdefault(m.group("farm"), []).append(n)
        worst = None
        for farm, workers in farms.items():
            if len(workers) < 2:
                continue
            busy = [w["svc_time_s"]["total"] for w in workers]
            items = [w["items_in"] for w in workers]
            top = max(busy)
            imb = (top - min(busy)) / top if top > 0 else 0.0
            entry = {
                "farm": farm,
                "n_workers": len(workers),
                "imbalance": imb,
                "busy_s": {"min": min(busy), "max": top},
                "items_in": {"min": min(items), "max": max(items)},
            }
            if worst is None or imb > worst["imbalance"]:
                worst = entry
        return worst

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        wall = self.wall_time
        return {
            "wall_time_s": wall,
            "nodes": self.nodes,
            "channels": self.channels,
            "counters": self.counters,
            "rates_per_s": {
                name: (value / wall) if wall > 0 else 0.0
                for name, value in self.counters.items()
            },
            "bottleneck": self.bottleneck(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def to_text(self) -> str:
        lines = [f"run report  (wall {self.wall_time:.3f}s)", ""]
        lines.append(f"{'node':<24}{'in':>8}{'out':>8}{'err':>5}"
                     f"{'busy s':>10}{'mean svc':>12}{'idle s':>10}")
        for n in sorted(self.nodes,
                        key=lambda n: -n["svc_time_s"]["total"]):
            lines.append(
                f"{n['name']:<24}{n['items_in']:>8}{n['items_out']:>8}"
                f"{n['svc_errors']:>5}{n['svc_time_s']['total']:>10.3f}"
                f"{n['svc_time_s']['mean'] * 1e3:>10.3f}ms"
                f"{n['idle_time_s']:>10.3f}")
        lines.append("")
        lines.append(f"{'channel':<24}{'pushed':>8}{'popped':>8}"
                     f"{'hi-water':>9}{'cap':>6}{'mean occ':>9}"
                     f"{'blk push s':>11}{'blk pop s':>10}")
        for c in sorted(self.channels, key=lambda c: -c["blocked_push_s"]):
            lines.append(
                f"{c['name']:<24}{c['pushed']:>8}{c['popped']:>8}"
                f"{c['high_water']:>9}{c['capacity']:>6}"
                f"{c['mean_occupancy']:>9.1f}"
                f"{c['blocked_push_s']:>11.3f}{c['blocked_pop_s']:>10.3f}")
        if self.counters:
            lines.append("")
            wall = self.wall_time
            for name in sorted(self.counters):
                value = self.counters[name]
                rate = value / wall if wall > 0 else 0.0
                # counts print whole; a seconds counter keeps its ms
                shown = (f"{value:>14.0f}" if float(value).is_integer()
                         else f"{value:>14.3f}")
                lines.append(f"{name:<32}{shown}  ({rate:,.0f}/s)")
        lines.append("")
        lines.append("bottleneck: " + self.bottleneck()["diagnosis"])
        return "\n".join(lines)
