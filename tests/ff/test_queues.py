"""Channel building-block semantics."""

import threading

import pytest

from repro.ff.errors import QueueClosedError
from repro.ff.queues import Channel, EOS, GroupDone


class TestBasicFifo:
    def test_push_pop_order(self):
        ch = Channel(capacity=8)
        ch.register_producer()
        for i in range(5):
            ch.push(i)
        assert [ch.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_len_tracks_queue(self):
        ch = Channel(capacity=8)
        ch.register_producer()
        assert len(ch) == 0
        ch.push("x")
        assert len(ch) == 1
        ch.pop()
        assert len(ch) == 0

    def test_counters(self):
        ch = Channel(capacity=8)
        ch.register_producer()
        for i in range(3):
            ch.push(i)
        ch.pop()
        assert ch.stats().pushed == 3
        assert ch.stats().popped == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Channel(capacity=0)


class TestEndOfStream:
    def test_eos_after_all_producers_done(self):
        ch = Channel()
        ch.register_producer()
        ch.push(1)
        ch.producer_done()
        assert ch.pop() == 1
        token = ch.pop()
        assert isinstance(token, GroupDone)
        assert ch.pop() is EOS

    def test_two_producers_same_group(self):
        ch = Channel()
        ch.register_producer()
        ch.register_producer()
        ch.producer_done()
        # one producer still alive: no EOS yet
        got, _ = ch.try_pop()
        assert not got
        ch.producer_done()
        got, item = ch.try_pop()
        assert got and isinstance(item, GroupDone)
        got, item = ch.try_pop()
        assert got and item is EOS

    def test_group_done_tokens_per_group(self):
        ch = Channel()
        ch.register_producer("upstream")
        ch.register_producer("feedback")
        ch.producer_done("upstream")
        token = ch.pop()
        assert token == GroupDone("upstream")
        # feedback still open
        got, _ = ch.try_pop()
        assert not got
        ch.producer_done("feedback")
        assert ch.pop() == GroupDone("feedback")
        assert ch.pop() is EOS

    def test_producer_done_without_register_raises(self):
        ch = Channel()
        with pytest.raises(QueueClosedError):
            ch.producer_done()

    def test_too_many_producer_done_raises(self):
        ch = Channel()
        ch.register_producer()
        ch.producer_done()
        with pytest.raises(QueueClosedError):
            ch.producer_done()

    def test_closed_property(self):
        ch = Channel()
        assert not ch.closed  # no producers registered yet
        ch.register_producer()
        assert not ch.closed
        ch.producer_done()
        assert ch.closed


class TestBackpressure:
    def test_push_blocks_until_pop(self):
        ch = Channel(capacity=1)
        ch.register_producer()
        ch.push("first")
        done = threading.Event()

        def producer():
            ch.push("second")  # blocks until consumer pops
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not done.wait(0.05)
        assert ch.pop() == "first"
        assert done.wait(1.0)
        assert ch.pop() == "second"

    def test_push_timeout(self):
        ch = Channel(capacity=1)
        ch.register_producer()
        ch.push(1)
        with pytest.raises(TimeoutError):
            ch.push(2, timeout=0.01)

    def test_pop_timeout(self):
        ch = Channel(capacity=1)
        ch.register_producer()
        with pytest.raises(TimeoutError):
            ch.pop(timeout=0.01)


class TestAbandon:
    def test_push_after_abandon_is_dropped(self):
        ch = Channel(capacity=2)
        ch.register_producer()
        ch.abandon()
        assert ch.push("ignored") is False
        assert len(ch) == 0

    def test_abandon_releases_blocked_producer(self):
        ch = Channel(capacity=1)
        ch.register_producer()
        ch.push(1)
        released = threading.Event()

        def producer():
            ch.push(2)
            released.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not released.wait(0.05)
        ch.abandon()
        assert released.wait(1.0)


class TestDrainAndSPSC:
    def test_drain_skips_tokens(self):
        ch = Channel()
        ch.register_producer()
        ch.push(1)
        ch.push(2)
        ch.producer_done()
        assert list(ch.drain()) == [1, 2]
