#!/usr/bin/env python
"""Result-transport cost: pickled copies vs zero-copy frames and pages.

Measures the two halves of the zero-copy transport tentpole on a
realistic payload -- one cluster ``ResultMsg`` carrying a full
1024-trajectory batch quantum, the one ``ResultBlock`` of ``--n-traj``
members the runtime ships per quantum:

* **wire frames** (cluster backend): legacy v1 frames copy every sample
  array into the pickle stream (and scan it again for the checksum);
  v2 out-of-band frames ship the arrays as raw buffer segments, pickle
  only the object skeleton, and checksum only the control data.  The
  benchmark reports bytes *copied through pickle* per quantum for both
  formats -- the acceptance axis (CI asserts a >= 5x reduction) -- plus
  encode/decode frames per second.
* **shared pages** (processes backend): the same block published to
  the shared-memory result ring (``ShmCoalescedEntry``) and mapped back,
  versus a pickle/unpickle round trip of it (what a pipe does without
  the ring).

``--round-trip`` measures the other direction of the cluster wire
instead: what one *scalar* quantum's master -> worker -> master round
trip costs in codec + ``StreamDecoder`` work (kernel excluded) when the
live task travels both ways, against a worker-resident task
(``TaskMsg(None, key)`` out, checkpoint blob + results back).

Everything runs in-process (no sockets, no pool) so the numbers isolate
serialisation and copy cost from transport latency.

Usage::

    PYTHONPATH=src python benchmarks/bench_transport.py \
        [--n-traj 1024] [--samples 16] [--n-obs 3] [--repeat 5] \
        [--json BENCH_transport.json] [--assert-reduction 5]
    PYTHONPATH=src python benchmarks/bench_transport.py --round-trip
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time

import numpy as np

from repro.distributed.message import (
    FrameCodec,
    StreamDecoder,
    decode_frame,
    encode_frame,
    encode_frame_oob,
    encode_frame_segments,
    segments_nbytes,
)
from repro.distributed.net import Checkpoint, ResultMsg, TaskMsg
from repro.distributed.shm import (make_prefix, map_results,
                                   publish_results, sweep_orphans)
from repro.sim.task import ResultBlock


def make_quantum(n_traj: int, samples_per_quantum: int, n_obs: int,
                 seed: int = 0) -> list[ResultBlock]:
    """One batch quantum's stream item, as the worker holds it."""
    rng = np.random.default_rng(seed)
    times = np.arange(samples_per_quantum, dtype=float) * 0.5
    values = rng.integers(
        0, 200, size=(n_traj, samples_per_quantum, n_obs)).astype(float)
    return [ResultBlock(range(n_traj), 0, times, values,
                        np.full(n_traj, times[-1]),
                        100 + np.arange(n_traj), False)]


def payload_nbytes(results: list[ResultBlock]) -> int:
    return sum(r._times.nbytes + r._values.nbytes for r in results)


def time_loop(fn, repeat: int) -> float:
    """Best-of-``repeat`` wall time of ``fn()`` (minimum filters noise)."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_frames(results, repeat: int) -> dict:
    msg = ResultMsg(0, None, tuple(results))
    payload = payload_nbytes(results)

    v1_frame = encode_frame(msg)
    segments = encode_frame_segments(msg)
    control = segments_nbytes(segments[:2])
    total = segments_nbytes(segments)
    v2_frame = encode_frame_oob(msg)

    # bytes that cross a *pickle copy* per quantum: the whole v1 frame
    # vs only the v2 control data (the buffer segments are the arrays
    # themselves, vectored out without an intermediate copy)
    report = {
        "payload_bytes": payload,
        "v1_frame_bytes": len(v1_frame),
        "v2_frame_bytes": len(v2_frame),
        "v1_pickled_bytes": len(v1_frame),
        "v2_pickled_bytes": control,
        "copy_reduction": len(v1_frame) / control,
        "v1_encode_s": time_loop(lambda: encode_frame(msg), repeat),
        "v2_encode_s": time_loop(lambda: encode_frame_segments(msg),
                                 repeat),
        "v1_decode_s": time_loop(lambda: decode_frame(v1_frame), repeat),
        "v2_decode_s": time_loop(lambda: decode_frame(v2_frame), repeat),
    }
    report["v1_roundtrips_per_s"] = 1.0 / (report["v1_encode_s"]
                                           + report["v1_decode_s"])
    report["v2_roundtrips_per_s"] = 1.0 / (report["v2_encode_s"]
                                           + report["v2_decode_s"])
    report["roundtrip_speedup"] = (report["v2_roundtrips_per_s"]
                                   / report["v1_roundtrips_per_s"])
    return report


def bench_shm(results, repeat: int) -> dict:
    prefix = make_prefix()

    def pickled_roundtrip():
        pickle.loads(pickle.dumps(results))

    def shm_roundtrip():
        block = publish_results(results, prefix)
        for result in map_results(block):
            result.release()

    try:
        pickled_s = time_loop(pickled_roundtrip, repeat)
        shm_s = time_loop(shm_roundtrip, repeat)
        block = publish_results(results, prefix)
        descriptor_bytes = len(pickle.dumps(block))
        for result in map_results(block):
            result.release()
    finally:
        sweep_orphans(prefix)
    return {
        "pickled_pipe_bytes": len(pickle.dumps(results)),
        "shm_descriptor_bytes": descriptor_bytes,
        "pipe_reduction": len(pickle.dumps(results)) / descriptor_bytes,
        "pickled_roundtrip_s": pickled_s,
        "shm_roundtrip_s": shm_s,
        "roundtrip_speedup": pickled_s / shm_s,
    }


def bench_round_trip(repeat: int, rounds: int = 500) -> dict:
    """Codec + decoder cost of one scalar enzyme quantum's round trip,
    for both ways of moving the task; the kernel runs once, up front."""
    from repro.models import mm_enzyme_network
    from repro.sim.task import make_tasks

    (task,) = make_tasks(mm_enzyme_network(), 1, 4.0, 0.25, 0.5, seed=0)
    results = (task.run_quantum(),)
    key = task.task_id

    def live(master, worker, to_worker, to_master):
        (msg,) = to_worker.feed(b"".join(
            master.encode_segments(TaskMsg(task))))
        to_master.feed(b"".join(worker.encode_segments(
            ResultMsg(0, msg.task, results))))

    def resident(master, worker, to_worker, to_master):
        to_worker.feed(b"".join(master.encode_segments(TaskMsg(None, key))))
        to_master.feed(b"".join(worker.encode_segments(
            ResultMsg(0, Checkpoint.of(task, key), results))))

    report = {}
    for name, round_trip in (("live", live), ("resident", resident)):
        ends = (FrameCodec("master"), FrameCodec("worker"),
                StreamDecoder(), StreamDecoder())
        round_trip(*ends)
        report[f"{name}_bytes_out"] = ends[0].bytes_out
        report[f"{name}_bytes_in"] = ends[1].bytes_out

        def many():
            for _ in range(rounds):
                round_trip(*ends)

        report[f"{name}_us"] = 1e6 / rounds * time_loop(many, repeat)
    report["bytes_out_reduction"] = (report["live_bytes_out"]
                                     / report["resident_bytes_out"])
    report["speedup"] = report["live_us"] / report["resident_us"]
    return report


def verify(results) -> None:
    """The fast path must not change a byte before we trust its timing."""
    msg = ResultMsg(0, None, tuple(results))
    clone, rest = decode_frame(encode_frame_oob(msg))
    assert rest == b""
    for a, b in zip(results, clone.results):
        assert a._times.tobytes() == b._times.tobytes()
        assert a._values.tobytes() == b._values.tobytes()
    prefix = make_prefix()
    try:
        mapped = map_results(publish_results(results, prefix))
        for a, b in zip(results, mapped):
            assert a._times.tobytes() == b._times.tobytes()
            assert a._values.tobytes() == b._values.tobytes()
        for b in mapped:
            b.release()
    finally:
        sweep_orphans(prefix)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-traj", type=int, default=1024)
    parser.add_argument("--samples", type=int, default=16,
                        help="grid samples per quantum")
    parser.add_argument("--n-obs", type=int, default=3)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--json", default="BENCH_transport.json")
    parser.add_argument("--assert-reduction", type=float, default=None,
                        help="fail unless pickled-bytes-per-quantum "
                             "shrink by at least this factor")
    parser.add_argument("--assert-roundtrip", type=float, default=0.9,
                        help="with --assert-reduction: fail unless the "
                             "v2 encode+decode roundtrip rate is at "
                             "least this fraction of v1's (guards "
                             "against decode regressions hiding behind "
                             "the byte counts)")
    parser.add_argument("--round-trip", action="store_true",
                        help="measure one scalar quantum's task round "
                             "trip (live task both ways vs worker-"
                             "resident task + checkpoint) and exit")
    args = parser.parse_args(argv)

    if args.round_trip:
        trip = bench_round_trip(args.repeat)
        for name in ("live", "resident"):
            print(f"{name:8s} task: {trip[f'{name}_bytes_out']:,} B out + "
                  f"{trip[f'{name}_bytes_in']:,} B back, "
                  f"{trip[f'{name}_us']:.1f} us per round trip")
        print(f"resident: {trip['bytes_out_reduction']:.0f}x fewer bytes "
              f"master->worker, {trip['speedup']:.2f}x round trips/s")
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"round_trip": trip}, fh, indent=2)
        print(f"wrote {args.json}")
        return 0

    results = make_quantum(args.n_traj, args.samples, args.n_obs)
    verify(results)

    frames = bench_frames(results, args.repeat)
    shm = bench_shm(results, args.repeat)
    report = {
        "n_traj": args.n_traj,
        "samples_per_quantum": args.samples,
        "n_obs": args.n_obs,
        "frames": frames,
        "shm": shm,
    }

    print(f"payload: {frames['payload_bytes'] / 1e6:.2f} MB/quantum "
          f"({args.n_traj} trajectories x {args.samples} samples)")
    print(f"wire:  v1 pickles {frames['v1_pickled_bytes']:,} B/quantum, "
          f"v2 pickles {frames['v2_pickled_bytes']:,} B "
          f"({frames['copy_reduction']:.1f}x fewer copied bytes)")
    print(f"wire:  roundtrips {frames['v1_roundtrips_per_s']:.1f}/s -> "
          f"{frames['v2_roundtrips_per_s']:.1f}/s "
          f"({frames['roundtrip_speedup']:.2f}x)")
    print(f"pages: future pipe {shm['pickled_pipe_bytes']:,} B/quantum -> "
          f"descriptor {shm['shm_descriptor_bytes']:,} B "
          f"({shm['pipe_reduction']:.1f}x)")
    print(f"pages: roundtrip {shm['pickled_roundtrip_s'] * 1e3:.2f} ms -> "
          f"{shm['shm_roundtrip_s'] * 1e3:.2f} ms "
          f"({shm['roundtrip_speedup']:.2f}x)")

    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.json}")

    if args.assert_reduction is not None:
        failed = False
        for axis, value in (("wire copied-bytes", frames["copy_reduction"]),
                            ("processes-pipe", shm["pipe_reduction"])):
            if value < args.assert_reduction:
                print(f"FAIL: {axis} reduction {value:.1f}x < "
                      f"{args.assert_reduction:.1f}x", file=sys.stderr)
                failed = True
        # byte counts alone can mask a slow decode path: the v2 frames
        # must also roundtrip at (near) v1 speed
        if frames["roundtrip_speedup"] < args.assert_roundtrip:
            print(f"FAIL: v2 wire roundtrip "
                  f"{frames['roundtrip_speedup']:.2f}x of v1 < "
                  f"{args.assert_roundtrip:.2f}x floor", file=sys.stderr)
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
