"""Determinism across serialisation and process boundaries.

The cluster runtime's fault tolerance rests on one property: a task
carries its complete simulator state (RNG included), so re-running a
pickled copy -- in this process, in another process, or on a worker that
replaced a dead one -- reproduces the lost quanta bit for bit.  These
tests pin that property down so engine changes cannot silently break it.
"""

import pickle
import subprocess
import sys

import pytest

from repro.distributed.message import decode_frame, encode_frame
from repro.sim.task import QuantumResult, ResultBlock, make_tasks


def run_to_end(task, max_quanta=1000):
    results = []
    for _ in range(max_quanta):
        outcome = task.run_quantum()
        results.extend(outcome.unpack() if isinstance(outcome, ResultBlock)
                       else [outcome])
        if task.done:
            return results
    raise AssertionError("task never finished")


def flat_samples(results):
    return [s for r in results for s in r.samples]


# One quantum in a *real* child process: unpickle the task from stdin,
# advance it, pickle (updated task, result) back -- the worker loop in
# miniature, without importing any test module in the child.
_CHILD = """
import pickle, sys
task = pickle.loads(sys.stdin.buffer.read())
result = task.run_quantum()
sys.stdout.buffer.write(pickle.dumps((task, result)))
"""


class TestProcessBoundary:
    def test_quantum_in_child_process_matches_local(self, neurospora_small):
        """Ship a mid-run task to a subprocess, run one quantum there,
        and get exactly the samples the local run would have produced."""
        make = lambda: make_tasks(  # noqa: E731
            neurospora_small, 1, 8.0, 2.0, 0.5, seed=7)[0]
        local = make()
        local.run_quantum()  # warm up: mid-run state is the hard case
        local_result = local.run_quantum()

        remote = make()
        remote.run_quantum()
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD],
            input=pickle.dumps(remote),
            capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        remote, remote_result = pickle.loads(proc.stdout)

        assert remote_result.samples == local_result.samples
        assert remote_result.steps == local_result.steps
        assert remote.time == local.time
        # and the returned state continues identically
        assert local.run_quantum().samples == remote.run_quantum().samples

    def test_frame_codec_preserves_task_state(self, neurospora_small):
        task = make_tasks(neurospora_small, 1, 6.0, 2.0, 0.5, seed=3)[0]
        task.run_quantum()
        clone, rest = decode_frame(encode_frame(task))
        assert rest == b""
        assert flat_samples(run_to_end(clone)) == flat_samples(run_to_end(task))

    def test_quantum_result_roundtrips(self, neurospora_small):
        task = make_tasks(neurospora_small, 1, 4.0, 2.0, 0.5, seed=1)[0]
        result = task.run_quantum()
        clone, _ = decode_frame(encode_frame(result))
        assert isinstance(clone, QuantumResult)
        assert (clone.task_id, clone.samples, clone.time,
                clone.steps, clone.done) == (
            result.task_id, result.samples, result.time,
            result.steps, result.done)


class TestSeededReplay:
    @pytest.mark.parametrize("engine", ["flat", "batch"])
    def test_same_seed_same_trajectory(self, neurospora_small, engine):
        runs = []
        for _ in range(2):
            tasks = make_tasks(neurospora_small, 2, 6.0, 2.0, 0.5,
                               seed=11, engine=engine, batch_size=2)
            runs.append([flat_samples(run_to_end(t)) for t in tasks])
        assert runs[0] == runs[1]

    def test_snapshot_replay_is_bit_identical(self, neurospora_small):
        """The reassignment scenario: the master holds the last
        acknowledged (pickled) state; replaying from it must reproduce
        the quanta the dead worker never delivered."""
        task = make_tasks(neurospora_small, 1, 10.0, 2.0, 0.5, seed=5)[0]
        task.run_quantum()
        snapshot = pickle.dumps(task)  # last state the master acknowledged
        original_rest = flat_samples(run_to_end(task))
        replayed_rest = flat_samples(run_to_end(pickle.loads(snapshot)))
        assert replayed_rest == original_rest
