"""The cluster master's books (repro.distributed.ledger), driven without
sockets, threads or clocks.

Whatever the master's threads do is a sequence of ledger calls, so the
books are checked here over sequences: a hypothesis state machine
applies admits (two weighted tenants and un-namespaced ones), results,
deaths, forgets and failures in any order, one fixed schedule is cut by
a death after every possible result, and the re-pin that once made
``state_sends`` fall one short is replayed call by call.
"""

from __future__ import annotations

import ast
import inspect
from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.distributed import ledger as ledger_module
from repro.distributed.ledger import ClusterError, Ledger, in_namespace
from repro.distributed.net import Checkpoint
from repro.service.fairshare import STRIDE1, StrideScheduler


def checkpoint(key, steps=0, done=False):
    return Checkpoint(key, done, float(steps), steps, steps, b"state")


def check_books(ledger, fresh):
    """What holds after every ledger call, whatever came before it."""
    counts = ledger.counts
    assert counts["state_sends"] == fresh + counts["reassignments"]
    assert (counts["state_sends"] + counts["resident_sends"]
            == counts["tasks_dispatched"])
    flying = [key for worker in ledger.alive
              for key in ledger.in_flight[worker]]
    assert len(flying) == len(set(flying)), "a key in two windows"
    dead = ledger.in_flight.keys() - ledger.alive
    assert not any(ledger.in_flight[w] or ledger.holds[w] for w in dead)
    if ledger.error is not None:
        assert ledger.futures == {}
    else:
        assert set(ledger.futures) == set(flying)


class Spy:
    """Counts every attribute of ``inner`` looked up through it."""

    def __init__(self, inner):
        self.inner = inner
        self.touched = 0

    def __getattr__(self, name):
        self.touched += 1
        return getattr(self.inner, name)


def namespace_of(key):
    return key[0] if isinstance(key, tuple) else None


#: a pool: its workers, its window and the two tenants' weights
POOL = dict(n_workers=st.integers(1, 3), window=st.integers(1, 2),
            weights=st.tuples(*[st.sampled_from([0.5, 1.0, 3.0])] * 2))


class LedgerMachine(RuleBasedStateMachine):
    """The ledger beside a model of what its workers really hold and
    were really sent, and of the tenants' passes; keys are
    ``(namespace, n)`` so that forgetting one namespace leaves the
    other's, or a bare ``n`` for an un-namespaced (CLI) task.

    A failure is absorbing, so every call after one is checked at once
    (:meth:`_after_failure`) and the run goes on from a fresh pool: the
    other rules explore live books only."""

    @initialize(**POOL)
    def start(self, n_workers, window, weights):
        self._fresh(n_workers, window, weights)

    @precondition(lambda self: self.ledger.error is not None)
    @rule(**POOL)
    def restart(self, n_workers, window, weights):
        self._fresh(n_workers, window, weights)

    @property
    def live(self):
        return self.ledger.error is None

    def _fresh(self, n_workers, window, weights):
        self.ledger = Ledger(window)
        scheduler = StrideScheduler()
        for namespace, weight in zip("ab", weights):
            scheduler.add(namespace, weight)
        self.scheduler = self.ledger.scheduler = Spy(scheduler)
        #: the model of the turns: each namespace's pass and stride
        self.passes = dict.fromkeys("ab", 0)
        self.strides = {namespace: max(1, int(STRIDE1 / weight))
                        for namespace, weight in zip("ab", weights)}
        #: namespaced keys whose last admit waits
        self.waiters: set = set()
        self.workers = range(n_workers)
        for worker in self.workers:
            self.ledger.join(worker)
        self.window = window
        self.alive = set(self.workers)
        #: worker -> keys whose state it was sent to keep (the truth)
        self.resident = {worker: set() for worker in self.workers}
        #: worker -> keys replayed onto it and still in flight there
        self.replayed = {worker: set() for worker in self.workers}
        #: key -> (checkpoint, fresh) not yet (re-)admitted
        self.idle: dict = {}
        #: key -> (worker, future) of its outstanding dispatch
        self.flight: dict = {}
        #: every dispatch sent, answered or not: (worker, key)
        self.sent: list = []
        self.unsettled: set = set()
        self.fresh = 0
        self.next_key = 0

    @precondition(lambda self: self.live)
    @rule(namespace=st.sampled_from(["a", "b", None]))
    def new_task(self, namespace):
        key = self.next_key if namespace is None \
            else (namespace, self.next_key)
        self.next_key += 1
        self.idle[key] = (checkpoint(key), True)

    @precondition(lambda self: self.live and self.idle)
    @rule(data=st.data())
    def admit(self, data):
        self._admit(data.draw(st.sampled_from(list(self.idle))))

    @precondition(lambda self: self.live)
    @rule(worker=st.integers(0, 2),
          namespace=st.sampled_from(["a", "b", None]))
    def admit_on(self, worker, namespace):
        """New tasks admitted onto a chosen live worker, each pinned
        there as an earlier dispatch would have left it, until one
        waits (at most ``window + 1``).  Least-load pins spread new
        tasks out; this leaves a waiter on a full worker beside others
        with room, where turns and re-pins can go wrong."""
        if worker not in self.alive:
            return
        while True:
            key = self.next_key if namespace is None \
                else (namespace, self.next_key)
            self.next_key += 1
            self.idle[key] = (checkpoint(key), True)
            self.ledger.assignment[key] = worker
            self._admit(key)
            if key in self.idle:
                return

    @precondition(lambda self: self.live and self.idle)
    @rule(data=st.data())
    def wake(self, data):
        """What the master's ``notify_all`` does: every admit not yet
        booked tries again, in any order."""
        for key in data.draw(st.permutations(list(self.idle))):
            self._admit(key)

    def _admit(self, key):
        namespace = namespace_of(key)
        state, fresh = self.idle[key]
        future = object()
        if self.ledger.error is not None:
            with pytest.raises(ClusterError, match="fleet is down"):
                self.ledger.admit(state, fresh, future, namespace=namespace)
            return
        waiting = dict(self.ledger.waiting)
        touched = self.scheduler.touched
        send = self.ledger.admit(state, fresh, future, namespace=namespace)
        pinned = self.ledger.assignment[key]
        assert pinned in self.alive
        full = len(self.ledger.in_flight[pinned]) >= self.window + (
            send is not None)
        if namespace is None:
            assert self.scheduler.touched == touched, "a CLI admit's turn"
            assert (send is None) == full
        else:
            # the turn: among the namespaces waiting on this worker, the
            # lowest pass (ties to the first registered) goes first
            rivals = {waiting[other] for other in waiting.keys() - {key}
                      if self.ledger.assignment.get(other) == pinned}
            first = min(rivals | {namespace},
                        key=lambda n: (self.passes[n], "ab".index(n)))
            assert (send is None) == (full or first != namespace)
            if send is None:
                self.waiters.add(key)
                return
            self.waiters.discard(key)
            self.passes[namespace] += self.strides[namespace]
        if send is None:
            return
        assert send.worker == pinned and send.key == key
        if send.checkpoint is None:
            # by name only to a worker that really holds the state
            assert not fresh and key in self.resident[send.worker]
        else:
            assert send.checkpoint is state
            self.resident[send.worker].add(key)
        self.fresh += fresh
        del self.idle[key]
        self.flight[key] = (send.worker, future)
        self.unsettled.add(future)
        self.sent.append((send.worker, key))

    @precondition(lambda self: self.live and self.sent)
    @rule(data=st.data(), done=st.booleans())
    def answer(self, data, done):
        """A result frame for any dispatch ever sent: the current one,
        or a stale one from a worker since declared dead."""
        worker, key = self.sent.pop(
            data.draw(st.integers(0, len(self.sent) - 1)))
        steps = data.draw(st.integers(1, 9))
        owed = worker in self.alive and self.flight.get(key, (None,))[0] \
            == worker
        stale = self.ledger.counts["stale_results"]
        future = self.ledger.result(worker, checkpoint(key, steps, done))
        if not owed:
            assert future is None
            assert self.ledger.counts["stale_results"] == stale + 1
            return
        _, expected = self.flight.pop(key)
        self.replayed[worker].discard(key)
        assert future is (expected if expected in self.unsettled else None)
        self.unsettled.discard(expected)
        if done:
            self.resident[worker].discard(key)
        else:
            self.idle[key] = (checkpoint(key, steps), False)

    @precondition(lambda self: self.live)
    @rule(worker=st.integers(0, 2))
    def dead(self, worker):
        if worker not in self.workers:
            return
        replays, failed = self.ledger.dead(worker, "test")
        if worker not in self.alive:
            assert (replays, failed) == ([], [])
            return
        self.alive.discard(worker)
        self.resident[worker].clear()
        self.replayed[worker].clear()
        owed = {key for key, (w, _) in self.flight.items() if w == worker}
        if not self.alive:
            assert replays == [] and set(failed) == self.unsettled
            self.unsettled.clear()
            self.waiters.clear()
            self._after_failure()
            return
        assert failed == []
        assert {send.key for send in replays} == owed
        for send in replays:
            assert send.worker in self.alive
            assert send.checkpoint is not None, "a re-pin sent by name"
            self.resident[send.worker].add(send.key)
            self.replayed[send.worker].add(send.key)
            self.flight[send.key] = (send.worker, self.flight[send.key][1])
            self.sent.append((send.worker, send.key))

    @precondition(lambda self: self.live)
    @rule(namespace=st.sampled_from("ab"))
    def forget(self, namespace):
        assert self.ledger.forget(namespace) == sorted(self.alive)
        for keys in [*self.resident.values(), self.waiters]:
            keys -= {key for key in keys if in_namespace(key, namespace)}
        assert not any(in_namespace(key, namespace)
                       for key in self.ledger.assignment)

    @precondition(lambda self: self.live)
    @rule()
    def fail(self):
        failed = self.ledger.fail(ClusterError("test"))
        assert set(failed) == self.unsettled
        self.unsettled.clear()
        self.waiters.clear()
        self._after_failure()

    def _after_failure(self):
        """What every later call finds on a failed pool: the first cause
        stays, admits raise, late results settle nothing and deaths
        replay nothing."""
        first = self.ledger.error
        assert self.ledger.fail(ClusterError("again")) == []
        assert self.ledger.error is first
        for key in list(self.idle):
            self._admit(key)
        while self.sent:
            worker, key = self.sent.pop()
            assert self.ledger.result(worker, checkpoint(key, 1)) is None
        for worker in sorted(self.alive)[1:]:
            assert self.ledger.dead(worker, "late") == ([], [])
            self.alive.discard(worker)
            self.resident[worker].clear()
            self.replayed[worker].clear()

    @invariant()
    def books(self):
        check_books(self.ledger, self.fresh)

    @invariant()
    def holds_are_the_workers(self):
        for worker in self.alive:
            assert self.ledger.holds[worker] == self.resident[worker]

    @invariant()
    def windows_overflow_only_by_replays(self):
        for worker in self.alive:
            window = self.ledger.in_flight[worker]
            assert len(window.keys() - self.replayed[worker]) <= self.window

    @invariant()
    def a_failure_settles_everything(self):
        if self.ledger.error is not None:
            assert not self.unsettled

    @invariant()
    def waiters_wait_on_live_windows(self):
        """Only namespaced admits wait in the books, each pinned to a
        live worker: one waiting on a worker that died has re-pinned."""
        assert set(self.ledger.waiting) == self.waiters
        for key, namespace in self.ledger.waiting.items():
            assert namespace == namespace_of(key)
            assert self.ledger.assignment[key] in self.ledger.alive

    @invariant()
    def a_namespace_is_charged_once_per_dispatch(self):
        """The scheduler's passes are the model's: charged only where a
        turn was taken and its dispatch booked."""
        floor = min(self.passes.values())
        assert {namespace: row["pass"] for namespace, row
                in self.scheduler.snapshot().items()} \
            == {namespace: value - floor
                for namespace, value in self.passes.items()}


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(max_examples=100,
                                      stateful_step_count=30,
                                      deadline=None)


class TestReplayAccounting:
    def test_a_task_pinned_while_waiting_is_no_reassignment(self):
        """The ``state_sends`` shortfall a loaded processes run showed
        about once in 15: a fresh task pinned to a worker whose window
        is full, the worker dying before the task was ever sent there.
        It is re-pinned, but its one state send is its first; counted
        where the send is booked, it is no reassignment."""
        ledger = Ledger(window=1)
        ledger.join(0)
        ledger.join(1)
        assert ledger.admit(checkpoint(0), True, "f0").worker == 0
        assert ledger.admit(checkpoint(1), True, "f1").worker == 1
        assert ledger.admit(checkpoint(2), True, "f2") is None
        assert ledger.assignment[2] == 0
        replays, _ = ledger.dead(0, "killed")
        assert [(send.worker, send.key) for send in replays] == [(1, 0)]
        assert ledger.admit(checkpoint(2), True, "f2") is None
        assert ledger.result(1, checkpoint(1, 1)) == "f1"
        assert ledger.result(1, checkpoint(0, 1)) == "f0"
        send = ledger.admit(checkpoint(2), True, "f2")
        assert send.worker == 1 and send.checkpoint is not None
        counts = ledger.counts
        assert counts["reassignments"] == 1
        assert counts["state_sends"] == 3 + counts["reassignments"]


def tenants(window, n_workers, weights):
    """A ledger whose namespaces ``a`` and ``b`` take turns."""
    ledger = Ledger(window)
    for worker in range(n_workers):
        ledger.join(worker)
    ledger.scheduler = StrideScheduler()
    for namespace, weight in zip("ab", weights):
        ledger.scheduler.add(namespace, weight)
    return ledger


def admit(ledger, key, fresh=True, steps=0):
    return ledger.admit(checkpoint(key, steps), fresh, ("future", key),
                        namespace=namespace_of(key))


class TestTurns:
    def test_a_freed_slot_goes_to_the_lowest_pass_waiting_there(self):
        ledger = tenants(window=1, n_workers=1, weights=(1.0, 1.0))
        assert admit(ledger, ("a", 0)).worker == 0
        assert admit(ledger, ("b", 1)) is None  # window full
        assert admit(ledger, ("a", 2)) is None
        assert ledger.result(0, checkpoint(("a", 0), 1, done=True))
        # a was served once already: the slot is b's, whoever asks first
        assert admit(ledger, ("a", 2)) is None
        assert admit(ledger, ("b", 1)).worker == 0
        assert ledger.result(0, checkpoint(("b", 1), 1, done=True))
        assert admit(ledger, ("a", 2)).worker == 0
        assert ledger.waiting == {}
        assert {namespace: row["selections"] for namespace, row
                in ledger.scheduler.snapshot().items()} == {"a": 2, "b": 1}

    def test_a_waiter_on_a_busy_worker_holds_up_no_other(self):
        """``a`` is owed service but waits on worker 0; worker 1's slot
        is ``b``'s all the same."""
        ledger = tenants(window=1, n_workers=2, weights=(1.0, 0.5))
        assert admit(ledger, ("a", 0)).worker == 0
        assert admit(ledger, ("b", 1)).worker == 1
        assert admit(ledger, ("a", 2)) is None
        assert ledger.assignment[("a", 2)] == 0
        assert ledger.result(1, checkpoint(("b", 1), 1))
        send = admit(ledger, ("b", 1), fresh=False, steps=1)
        assert send.worker == 1 and send.checkpoint is None

    def test_a_waiter_on_a_dead_worker_repins(self):
        ledger = tenants(window=1, n_workers=2, weights=(1.0, 1.0))
        assert admit(ledger, ("a", 0)).worker == 0
        assert admit(ledger, ("a", 1)).worker == 1
        assert admit(ledger, ("b", 2)) is None
        assert ledger.assignment[("b", 2)] == 0
        replays, _ = ledger.dead(0, "killed")
        assert [send.worker for send in replays] == [1]
        assert ledger.assignment[("b", 2)] == 1
        assert ledger.result(1, checkpoint(("a", 1), 1, done=True))
        assert ledger.result(1, checkpoint(("a", 0), 1, done=True))
        assert admit(ledger, ("b", 2)).worker == 1

    def test_un_namespaced_admits_never_ask_the_scheduler(self):
        ledger = Ledger(window=1)
        ledger.join(0)
        ledger.scheduler = spy = Spy(StrideScheduler())
        assert admit(ledger, 0).worker == 0
        assert admit(ledger, 1) is None
        assert ledger.result(0, checkpoint(0, 1, done=True))
        assert admit(ledger, 1).worker == 0
        assert spy.touched == 0 and ledger.waiting == {}


N_TASKS, N_DISPATCHES = 4, 3


def run_schedule(death_after, victim):
    """``N_TASKS`` tasks of ``N_DISPATCHES`` dispatches each on two
    workers of window 2, frames answered in send order; ``victim`` dies
    once ``death_after`` results are in.  Its frames already on the wire
    still arrive, stale."""
    ledger = Ledger(window=2)
    ledger.join(0)
    ledger.join(1)
    idle = deque((checkpoint(key), True) for key in range(N_TASKS))
    wire: deque = deque()
    acked: dict = {key: [] for key in range(N_TASKS)}
    resident: dict = {0: {}, 1: {}}
    held_by_victim = None
    while idle or wire:
        for _ in range(len(idle)):
            state, fresh = idle.popleft()
            send = ledger.admit(state, fresh, (state.key, state.steps))
            if send is None:
                idle.append((state, fresh))
                continue
            if send.checkpoint is not None:
                resident[send.worker][send.key] = send.checkpoint.steps
            wire.append((send.worker, send.key))
        results = ledger.counts["results_received"]
        if held_by_victim is None and results == death_after:
            held_by_victim = len(ledger.holds[victim])
            replays, failed = ledger.dead(victim, "killed")
            assert failed == []
            for send in replays:
                resident[send.worker][send.key] = send.checkpoint.steps
                wire.append((send.worker, send.key))
        check_books(ledger, N_TASKS - sum(fresh for _, fresh in idle))
        worker, key = wire.popleft()
        steps = resident[worker][key] + 1
        resident[worker][key] = steps
        done = steps == N_DISPATCHES
        future = ledger.result(worker, checkpoint(key, steps, done))
        if held_by_victim is not None and worker == victim:
            assert future is None
            continue
        assert future == (key, steps - 1)
        acked[key].append(steps)
        if not done:
            idle.append((checkpoint(key, steps), False))
    return ledger, acked, held_by_victim


@pytest.mark.parametrize("victim", [0, 1])
@pytest.mark.parametrize("death_after", range(N_TASKS * N_DISPATCHES))
def test_a_death_after_any_result(death_after, victim):
    """Wherever the death falls, every key's checkpoints are
    acknowledged once each, in order, to the last, and the counts add
    up: each task the victim held crossed once more, as state."""
    ledger, acked, held_by_victim = run_schedule(death_after, victim)
    assert acked == {key: list(range(1, N_DISPATCHES + 1))
                     for key in range(N_TASKS)}
    counts = ledger.counts
    assert counts["results_received"] == N_TASKS * N_DISPATCHES
    assert counts["workers_failed"] == 1
    assert counts["reassignments"] == held_by_victim
    assert counts["state_sends"] == N_TASKS + counts["reassignments"]
    assert (counts["state_sends"] + counts["resident_sends"]
            == counts["tasks_dispatched"])
    assert ledger.assignment == {} and ledger.futures == {}


def test_the_ledger_does_no_io():
    """No socket, no thread, no clock: its module imports none of them."""
    tree = ast.parse(inspect.getsource(ledger_module))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not imported & {"socket", "threading", "time", "select",
                           "concurrent", "multiprocessing"}
