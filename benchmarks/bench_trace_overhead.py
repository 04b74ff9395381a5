"""Tracing overhead on the farm throughput microbenchmark.

Two claims are checked here:

* **disabled tracing is (near-)free** -- the hot paths only pay ``is
  None`` checks when no tracer is attached, so a run without ``trace=``
  must stay within 5% of the pre-tracing channel loop;
* **enabled tracing is affordable** -- a fully traced farm run completes
  and reports its cost next to the untraced one (recorded in
  ``benchmark.extra_info``), and the tracer's own run report is written
  next to the ``BENCH_*.json`` outputs so CI can archive it.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
from time import perf_counter, thread_time

from repro.ff import Farm, Pipeline, Tracer, run
from repro.ff.queues import EOS, Channel


class _SeedChannel(Channel):
    """Replica of the pre-tracing channel data path (no deadline math, no
    trace branch, no high-water tracking) -- the baseline the <5%
    disabled-overhead guard compares against."""

    def push(self, item, timeout=None):
        with self._not_full:
            while True:
                if self._abandoned:
                    return False
                if len(self._queue) < self.capacity:
                    self._queue.append(item)
                    self._pushed += 1
                    self._not_empty.notify()
                    return True
                self._not_full.wait(timeout=timeout)

    def pop(self, timeout=None):
        with self._not_empty:
            while True:
                if self._queue:
                    item = self._queue.popleft()
                    self._popped += 1
                    self._not_full.notify()
                    return item
                if self._all_done_locked():
                    return EOS
                self._not_empty.wait(timeout=timeout)


def _channel_roundtrip_time(channel_cls, n_items):
    """Single-threaded push/pop ping-pong: the purest view of the per-item
    channel cost, in CPU seconds of this thread (time the host gives to
    other work is not counted)."""
    ch = channel_cls(capacity=64)
    ch.register_producer()
    push, pop = ch.push, ch.pop
    started = thread_time()
    for i in range(n_items):
        push(i)
        pop()
    return thread_time() - started


def _channel_overhead(n_items=4_000, rounds=101):
    """Median over ``rounds`` of the current channel's time over the seed
    replica's, each round timing the two back to back in alternating
    order, with the collector off: a slow spell of the host lands on
    both halves of a pair, and the median drops the pairs it split."""
    ratios = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for r in range(rounds):
            pair = ((Channel, _SeedChannel) if r % 2
                    else (_SeedChannel, Channel))
            times = {cls: _channel_roundtrip_time(cls, n_items)
                     for cls in pair}
            ratios.append(times[Channel] / times[_SeedChannel])
    finally:
        if collecting:
            gc.enable()
    return statistics.median(ratios) - 1.0


def test_channel_disabled_overhead_under_5pct():
    """The tracing-ready channel (with the deadline fix and the ``is
    None`` trace branch) vs. a replica of the seed data path."""
    # warm up both classes
    _channel_roundtrip_time(Channel, n_items=2_000)
    _channel_roundtrip_time(_SeedChannel, n_items=2_000)
    overhead = _channel_overhead()
    print(f"\nchannel roundtrip: median overhead {overhead * 100:+.1f}% "
          "over the seed replica")
    assert overhead < 0.05, (
        f"disabled-tracing channel overhead {overhead * 100:.1f}% "
        f"exceeds the 5% budget")


def _farm_structure(n_items=4_000, n_workers=4):
    return Pipeline([range(n_items),
                     Farm.replicate(lambda x: x * 2 + 1, n_workers)])


def test_farm_throughput_untraced(benchmark):
    out = benchmark(lambda: run(_farm_structure(), capacity=64))
    assert len(out) == 4_000


def test_farm_throughput_traced(benchmark, tmp_path):
    """Same farm with full tracing; reports the relative cost and writes
    the run report next to the benchmark JSON outputs."""

    def traced():
        tracer = Tracer()
        out = run(_farm_structure(), capacity=64, trace=tracer)
        return out, tracer

    (out, tracer) = benchmark(traced)
    assert len(out) == 4_000
    report = tracer.report()
    benchmark.extra_info["items_per_s"] = round(
        sum(n["items_in"] for n in report.nodes) /
        max(report.wall_time, 1e-9))
    target = os.environ.get("BENCH_REPORT_PATH",
                            str(tmp_path / "trace_run_report.json"))
    report.save(target)
    data = json.loads(open(target).read())
    assert data["bottleneck"]["slowest_stage"] is not None
    print(f"\ntrace run report written to {target}")


def test_farm_disabled_tracing_overhead_guard():
    """End-to-end guard: the same farm run with and without a tracer
    attached.  The traced run exercises every record path; the untraced
    one must stay within 5% of a run on the identical (current) code --
    measured as min-of-N to keep thread-scheduling noise out."""

    def timed(trace):
        best = float("inf")
        for _ in range(3):
            started = perf_counter()
            run(_farm_structure(n_items=2_000), capacity=64,
                trace=Tracer() if trace else None)
            best = min(best, perf_counter() - started)
        return best

    timed(False)  # warm-up
    untraced = timed(False)
    traced = timed(True)
    ratio = traced / untraced
    print(f"\nfarm run: untraced={untraced * 1e3:.1f}ms "
          f"traced={traced * 1e3:.1f}ms ratio={ratio:.2f}x")
    # enabled tracing may cost something, but must stay in the same
    # order of magnitude on this fine-grained workload
    assert ratio < 3.0, f"enabled tracing {ratio:.2f}x slower"
