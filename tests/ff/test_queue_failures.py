"""Channel failure paths: timeout deadlines, abandonment while blocked,
and atomic stats snapshots under concurrency.

The timeout tests are regressions for a real bug: ``push``/``pop`` used
to restart ``Condition.wait(timeout)`` from scratch on every wakeup, so a
producer that kept being notified while the channel was still full would
block arbitrarily longer than its timeout.  The fix uses a deadline and
waits only the remaining budget.
"""

import threading
import time

import pytest

from repro.ff.queues import Channel


class TestTimeoutDeadline:
    def test_push_timeout_total_despite_notifications(self):
        """A producer notified every 50ms while the queue stays full must
        still raise TimeoutError ~at its 0.3s deadline (pre-fix: every
        notification restarted the full timeout and it never expired)."""
        ch = Channel(capacity=1)
        ch.register_producer()
        ch.push("fill")
        stop = threading.Event()

        def churn():
            # keep the queue full but notify the producer continuously;
            # self-bounded so the pre-fix code fails instead of hanging
            deadline = time.monotonic() + 2.0
            while not stop.is_set() and time.monotonic() < deadline:
                time.sleep(0.05)
                with ch._lock:
                    ch._not_full.notify_all()

        churner = threading.Thread(target=churn, daemon=True)
        churner.start()
        started = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                ch.push("blocked", timeout=0.3)
        finally:
            stop.set()
            churner.join()
        elapsed = time.monotonic() - started
        assert 0.25 <= elapsed < 1.2, elapsed

    def test_pop_timeout_total_despite_notifications(self):
        ch = Channel(capacity=4)
        ch.register_producer()
        stop = threading.Event()

        def churn():
            deadline = time.monotonic() + 2.0
            while not stop.is_set() and time.monotonic() < deadline:
                time.sleep(0.05)
                with ch._lock:
                    ch._not_empty.notify_all()

        churner = threading.Thread(target=churn, daemon=True)
        churner.start()
        started = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                ch.pop(timeout=0.3)
        finally:
            stop.set()
            churner.join()
        elapsed = time.monotonic() - started
        assert 0.25 <= elapsed < 1.2, elapsed

    def test_push_succeeds_within_deadline(self):
        ch = Channel(capacity=1)
        ch.register_producer()
        ch.push(1)

        def consume_later():
            time.sleep(0.05)
            ch.pop()

        threading.Thread(target=consume_later, daemon=True).start()
        assert ch.push(2, timeout=2.0) is True

    def test_zero_ish_timeout_expires_immediately(self):
        ch = Channel(capacity=1)
        ch.register_producer()
        ch.push(1)
        with pytest.raises(TimeoutError):
            ch.push(2, timeout=0.001)
        with pytest.raises(TimeoutError):
            Channel(capacity=1).pop(timeout=0.001)


class TestAbandonWhileBlocked:
    def test_blocked_push_returns_false_on_abandon(self):
        ch = Channel(capacity=1)
        ch.register_producer()
        ch.push("fill")
        outcome = {}
        blocked = threading.Event()

        def producer():
            blocked.set()
            outcome["pushed"] = ch.push("extra")

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        blocked.wait(1.0)
        time.sleep(0.05)  # let it actually block on the full queue
        ch.abandon()
        thread.join(timeout=1.0)
        assert not thread.is_alive()
        assert outcome["pushed"] is False

    def test_blocked_push_with_timeout_released_by_abandon(self):
        ch = Channel(capacity=1)
        ch.register_producer()
        ch.push("fill")
        outcome = {}

        def producer():
            outcome["pushed"] = ch.push("extra", timeout=5.0)

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        started = time.monotonic()
        ch.abandon()
        thread.join(timeout=1.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < 1.0  # released early, not at 5s
        assert outcome["pushed"] is False


class TestStatsSnapshot:
    def test_snapshot_is_internally_consistent_under_concurrency(self):
        """stats() must be atomic: pushed - popped == length in every
        sample, even while producers and consumers run concurrently."""
        ch = Channel(capacity=64)
        ch.register_producer()
        n = 20_000

        def producer():
            for i in range(n):
                ch.push(i)
            ch.producer_done()

        def consumer():
            for _ in iter(ch.drain()):
                pass

        threads = [threading.Thread(target=producer, daemon=True),
                   threading.Thread(target=consumer, daemon=True)]
        for t in threads:
            t.start()
        violations = []
        while any(t.is_alive() for t in threads):
            s = ch.stats()
            # the in-band GroupDone token enters the queue without a
            # push, so length may exceed pushed - popped by at most 1
            if s.length - (s.pushed - s.popped) not in (0, 1):
                violations.append(s)
        for t in threads:
            t.join()
        assert not violations, violations[:3]
        final = ch.stats()
        assert final.pushed == n
        assert final.high_water <= 64 + 1  # + in-band GroupDone token

    def test_stats_fields(self):
        ch = Channel(capacity=4, name="probe")
        ch.register_producer()
        ch.push(1)
        ch.push(2)
        ch.pop()
        s = ch.stats()
        assert (s.name, s.capacity) == ("probe", 4)
        assert (s.pushed, s.popped, s.length) == (2, 1, 1)
        assert s.high_water == 2
        assert not s.abandoned and not s.closed
        ch.producer_done()
        assert ch.stats().closed

    def test_locked_counters(self):
        ch = Channel(capacity=4)
        ch.register_producer()
        for i in range(3):
            ch.push(i)
        ch.pop()
        assert ch.stats().pushed == 3
        assert ch.stats().popped == 1

    def test_high_water_survives_abandon(self):
        ch = Channel(capacity=8)
        ch.register_producer()
        for i in range(5):
            ch.push(i)
        ch.abandon()
        assert ch.stats().high_water == 5
        assert ch.stats().abandoned
