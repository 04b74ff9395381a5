"""One benchmark rep, in a process of its own.

``--mode real`` runs the workload once through the public entry point
(``repro.pipeline.run_workflow`` or ``repro.sweep.run_sweep`` +
``save_sweep_store``) and reports the end-to-end numbers of that one
call; with ``--trace`` the run records a ``RunReport`` and the (R) layer
metrics are read from it.

``--mode hand`` drives the same workload by hand in this one process --
``make_tasks``, ``run_quantum`` until every task is done, each quantum
through the workload's transport functions, results into aligner ->
window node -> stat engine -- with a span around every call into a
layer.  Its windows are the reference digest the real reps must equal,
and its span self times are the (H) layer metrics.

The last line of stdout is one JSON object.  The parent runs this file
with ``-W error::RuntimeWarning``, so a numerical warning anywhere in the
rep (worker processes are forked and inherit the filter) fails it.
"""

from time import perf_counter

T_START = perf_counter()  # set-up is timed from the first line executed

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402

#: items pushed through the no-op feedback farm of the queue-hop probe;
#: each crosses four channels (source->emitter, emitter->worker,
#: worker->feedback, worker->sink)
HOP_ITEMS = 100000
HOPS_PER_ITEM = 4


def _cpu_seconds() -> float:
    """User+sys seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """``ru_maxrss`` (KiB on Linux) of this process plus the largest
    child's."""
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def _steal_seconds() -> float:
    """Seconds the hypervisor has withheld this VM's CPUs so far (the
    ``steal`` column of ``/proc/stat``); 0 where the kernel has none."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 \
        else 0.0


def _set_up(workload: wl.Workload, seed: int, scale: float):
    """What a user pays before the run can start: import the package,
    build the model, compile it, generate the tasks (discarded here; the
    timed call generates its own against the warm compile cache)."""
    from repro.cwc.batch import compile_network
    model = wl.build_model(workload)
    compile_network(model)
    _make_tasks(workload, model, seed, scale)
    return model


def _make_tasks(workload: wl.Workload, model, seed: int, scale: float):
    t_end = wl.horizon(workload, scale)
    if workload.sweep:
        from repro.sweep import make_fused_tasks
        return make_fused_tasks(model, wl.build_sweep_spec(workload, seed),
                                t_end, workload.quantum,
                                workload.sample_every)
    from repro.sim.task import make_tasks
    cfg = workload.config
    return make_tasks(model, workload.n_trajectories, t_end,
                      workload.quantum, workload.sample_every, seed=seed,
                      engine=cfg["engine"],
                      batch_size=cfg.get("batch_size", 64),
                      method=cfg["method"])


# ---------------------------------------------------------------------------
# the real rep
# ---------------------------------------------------------------------------

def real_rep(workload: wl.Workload, seed: int, scale: float, trace: bool,
             out_dir: Path) -> dict:
    model = _set_up(workload, seed, scale)
    setup_s = perf_counter() - T_START
    cpu_before = _cpu_seconds()
    steal_before = _steal_seconds()
    started = perf_counter()
    if workload.sweep:
        from repro.pipeline.storage import save_sweep_store
        from repro.sweep import run_sweep
        store = out_dir / f"sweep-store-{os.getpid()}"
        try:
            result = run_sweep(
                model, wl.build_sweep_spec(workload, seed),
                t_end=wl.horizon(workload, scale),
                quantum=workload.quantum,
                sample_every=workload.sample_every,
                backend=workload.backend, trace=trace)
            # a sweep streams nothing: its first visible result is the
            # finished summary, before the store is written
            first_s = perf_counter() - started
            save_sweep_store(result, store)
            wall_s = perf_counter() - started
        finally:
            shutil.rmtree(store, ignore_errors=True)
        digest = wl.digest_sweep(result.times, result.mean,
                                 result.variance)
    else:
        from repro.pipeline import SteeringController, run_workflow
        first: list[float] = []

        def on_progress(_event) -> None:
            if not first:
                first.append(perf_counter())

        result = run_workflow(
            model, wl.build_config(workload, seed, scale, trace=trace),
            controller=SteeringController(on_progress=on_progress))
        wall_s = perf_counter() - started
        first_s = first[0] - started
        digest = wl.digest_windows(result.windows)
    out = {
        "digest": digest,
        "wall_s": wall_s,
        "first_window_s": first_s,
        "cpu_s": _cpu_seconds() - cpu_before,
        "samples_per_s": wl.n_samples(workload, scale) / wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_s,
        "steal_s": _steal_seconds() - steal_before,
    }
    if trace:
        out["report"] = report_metrics(result.trace_report.to_dict())
    return out


def report_metrics(report: dict) -> dict:
    """The (R) layer metrics: what the program's own ``RunReport`` says
    about farm nodes, channels and the cluster master."""
    nodes = {n["name"]: n for n in report["nodes"]}
    workers = [n for name, n in nodes.items()
               if name.startswith(("sim-farm.w", "sweep-farm.w"))]
    busy = [n["svc_time_s"]["total"] for n in workers]
    emitter = (nodes.get("sim-farm.emitter")
               or nodes.get("sweep-farm.emitter"))
    channels = report["channels"]
    return {
        "sim.emitter_busy_s":
            emitter["svc_time_s"]["total"] if emitter else 0.0,
        "sim.worker_busy_s": sum(busy),
        "sim.worker_idle_s": sum(n["idle_time_s"] for n in workers),
        "sim.imbalance_frac":
            (max(busy) - min(busy)) / max(busy) if busy and max(busy)
            else 0.0,
        "analysis.stat_busy_s": sum(
            n["svc_time_s"]["total"] for name, n in nodes.items()
            if name.startswith("stat-farm.w")),
        "analysis.windows_busy_s":
            nodes["windows"]["svc_time_s"]["total"]
            if "windows" in nodes else 0.0,
        "distributed.inflight_wait_s":
            report["counters"].get("net.inflight_wait_s", 0.0),
        "ff.items": sum(c["pushed"] for c in channels),
        "ff.blocked_push_s": sum(c["blocked_push_s"] for c in channels),
        "ff.max_occupancy_frac": max(
            (c["saturation"] for c in channels), default=0.0),
    }


# ---------------------------------------------------------------------------
# the hand-driven traced run
# ---------------------------------------------------------------------------

def _as_list(outcome) -> list:
    return outcome if isinstance(outcome, list) else [outcome]


class _Direct:
    """threads / sequential: the task object itself is handed over."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec

    def quantum(self, task):
        with self.rec.span("cwc.kernel"):
            outcome = task.run_quantum()
        return task, _as_list(outcome)

    def counts(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class _ShmRing(_Direct):
    """processes: task and descriptor cross the pool's pipes pickled,
    sample arrays cross through a shared-memory segment."""

    def __init__(self, rec: SpanRecorder):
        super().__init__(rec)
        from repro.distributed import shm
        self.shm = shm
        self.prefix = shm.make_prefix()
        self.nbytes = 0

    def quantum(self, task):
        rec = self.rec
        with rec.span("distributed.pipe_pickle"):
            remote = pickle.loads(pickle.dumps(task))
        with rec.span("cwc.kernel"):
            outcome = remote.run_quantum()
        with rec.span("distributed.shm_publish"):
            block = self.shm.publish_results(_as_list(outcome), self.prefix)
        with rec.span("distributed.pipe_pickle"):
            task, block = pickle.loads(pickle.dumps((remote, block)))
        with rec.span("distributed.shm_map"):
            results = self.shm.map_results(block)
        self.nbytes += block.payload_nbytes
        return task, results

    def counts(self) -> dict:
        return {"distributed.shm_bytes": self.nbytes}

    def close(self) -> None:
        self.shm.sweep_orphans(self.prefix)


class _Wire(_Direct):
    """cluster: TaskMsg out and ResultMsg back, each through the frame
    codec and the stream decoder, as master and worker do."""

    def __init__(self, rec: SpanRecorder):
        super().__init__(rec)
        from repro.distributed.message import FrameCodec, StreamDecoder
        from repro.distributed.net import ResultMsg, TaskMsg
        self.TaskMsg, self.ResultMsg = TaskMsg, ResultMsg
        self.master, self.worker = FrameCodec("master"), FrameCodec("worker")
        self.to_worker, self.to_master = StreamDecoder(), StreamDecoder()

    def _ship(self, codec, decoder, message):
        with self.rec.span("distributed.wire_encode"):
            segments = codec.encode_segments(message)
        data = b"".join(segments)  # the socket's copy, not the codec's
        with self.rec.span("distributed.wire_decode"):
            (received,) = decoder.feed(data)
        return received

    def quantum(self, task):
        remote = self._ship(self.master, self.to_worker,
                            self.TaskMsg(task)).task
        with self.rec.span("cwc.kernel"):
            outcome = remote.run_quantum()
        reply = self._ship(self.worker, self.to_master, self.ResultMsg(
            0, remote, tuple(_as_list(outcome))))
        return reply.task, list(reply.results)

    def counts(self) -> dict:
        codecs = (self.master, self.worker)
        return {
            "distributed.wire_msgs": sum(c.messages_out for c in codecs),
            "distributed.wire_bytes": sum(c.bytes_out for c in codecs),
            "distributed.wire_bytes_pickled":
                sum(c.bytes_pickled for c in codecs),
        }


_TRANSPORTS = {"threads": _Direct, "sequential": _Direct,
               "processes": _ShmRing, "cluster": _Wire}


class _Feed:
    """Outbox handing one node's emissions to the next node's ``svc``
    inside a span (the chaining of ``bench_analysis_throughput.py``)."""

    def __init__(self, rec: SpanRecorder, span: str, node, sink=None):
        self.rec, self.span, self.node, self.sink = rec, span, node, sink

    def send(self, item) -> None:
        with self.rec.span(self.span):
            result = self.node.svc(item)
        if self.sink is not None:
            self.sink.append(result)


def hand_driven(workload: wl.Workload, seed: int, scale: float,
                trace: bool, out_dir: Path) -> dict:
    from repro.cwc.batch import compile_network
    from repro.sim.alignment import TrajectoryAligner
    rec = SpanRecorder(workload.name)
    model = wl.build_model(workload)
    transport = _TRANSPORTS[workload.backend](rec)
    windows: list = []
    counts: dict = {"cwc.events": 0}
    with rec.span("run"):
        with rec.span("cwc.compile"):
            compile_network(model)
        with rec.span("sim.taskgen"):
            tasks = _make_tasks(workload, model, seed, scale)
        n_rows = sum(getattr(t, "n", 1) for t in tasks)
        aligner = TrajectoryAligner(n_rows)
        if workload.sweep:
            from repro.sweep.runner import SweepAccumulator
            spec = wl.build_sweep_spec(workload, seed)
            n_cuts = int(round(wl.horizon(workload, scale)
                               / workload.sample_every)) + 1
            accumulator = SweepAccumulator(
                spec.n_points, spec.n_trajectories, n_cuts,
                len(model.observables))
            aligner._outbox = _Feed(rec, "sweep.reduce", accumulator)
            window = None
        else:
            from repro.analysis.engines import StatEngineNode
            from repro.analysis.windows import SlidingWindowNode
            cfg = workload.config
            window = SlidingWindowNode(cfg["window_size"],
                                       cfg.get("window_slide"))
            engine = StatEngineNode(
                kmeans_k=cfg.get("kmeans_k"),
                filter_width=cfg.get("filter_width"),
                histogram_bins=cfg.get("histogram_bins"))
            aligner._outbox = _Feed(rec, "analysis.window", window)
            window._outbox = _Feed(rec, "analysis.stat", engine, windows)
        try:
            quanta = align_results = 0
            pending = tasks
            while pending:
                unfinished = []
                for task in pending:
                    task, results = transport.quantum(task)
                    quanta += 1
                    for result in results:
                        if len(result) or result.done:
                            align_results += 1
                            with rec.span("sim.align"):
                                aligner.svc(result)
                        else:
                            result.release()
                    if not task.done:
                        unfinished.append(task)
                    else:
                        counts["cwc.events"] += task.steps
                pending = unfinished
            if window is not None:
                with rec.span("analysis.window"):
                    window.svc_end()  # the partial tail window
        finally:
            transport.close()
        counts.update(transport.counts())
        counts["cwc.quanta"] = quanta
        counts["sim.align_results"] = align_results
        counts["sim.align_cuts"] = aligner.cuts_emitted
        if workload.sweep:
            from repro.pipeline.storage import save_sweep_store
            from repro.sweep import SweepResult
            result = SweepResult(
                spec=spec, observable_names=tuple(model.observables),
                times=accumulator.times, mean=accumulator.mean,
                variance=accumulator.variance)
            store = out_dir / f"sweep-store-{os.getpid()}"
            try:
                with rec.span("sweep.store_write"):
                    save_sweep_store(result, store)
                counts["sweep.store_bytes"] = sum(
                    f.stat().st_size for f in store.iterdir())
            finally:
                shutil.rmtree(store, ignore_errors=True)
            counts["sweep.points"] = spec.n_points
            counts["sweep.rows"] = spec.n_rows
            digest = wl.digest_sweep(accumulator.times, accumulator.mean,
                                     accumulator.variance)
        else:
            counts["analysis.windows"] = len(windows)
            digest = wl.digest_windows(windows)
    out = {"digest": digest, "wall_s": rec.spans[0][2] - rec.spans[0][1]}
    if trace:  # an untraced caller only wants the reference digest
        rec.save(out_dir / f"trace_{workload.name}.json")
        counts["analysis.samples"] = (
            0 if workload.sweep else wl.n_samples(workload, scale))
        out["layer"] = layer_metrics(rec.spans, counts,
                                     bool(workload.sweep))
        out["layer"]["ff.hop_us"] = hop_us(workload.backend)
    return out


def layer_metrics(spans: list, counts: dict, sweep: bool) -> dict:
    """The (H) layer metrics from span self times and boundary counts;
    a layer the workload does not use reads 0."""
    own = self_times(spans)

    def seconds(name: str) -> float:
        return own.get(name, 0.0)

    def per_second(count: float, time: float) -> float:
        return count / time if time else 0.0

    kernel_s = seconds("cwc.kernel")
    quanta = counts["cwc.quanta"]
    analysis_s = seconds("analysis.window") + seconds("analysis.stat")
    layers = {
        "cwc.kernel_s": kernel_s,
        "cwc.compile_s": seconds("cwc.compile"),
        "sim.taskgen_s": seconds("sim.taskgen"),
        "sim.align_s": seconds("sim.align"),
        "distributed.wire_encode_s": seconds("distributed.wire_encode"),
        "distributed.wire_decode_s": seconds("distributed.wire_decode"),
        "distributed.shm_publish_s": seconds("distributed.shm_publish"),
        "distributed.shm_map_s": seconds("distributed.shm_map"),
        "distributed.pipe_pickle_s": seconds("distributed.pipe_pickle"),
        "analysis.window_s": seconds("analysis.window"),
        "analysis.stat_s": seconds("analysis.stat"),
        "sweep.reduce_s": seconds("sweep.reduce"),
        "sweep.store_write_s": seconds("sweep.store_write"),
    }
    out = dict(layers)
    out["pipeline.layer_sum_s"] = sum(layers.values())
    out.update({
        "cwc.quanta": quanta,
        "cwc.events": counts["cwc.events"],
        "cwc.events_per_s": per_second(counts["cwc.events"], kernel_s),
        "cwc.us_per_quantum": 1e6 * kernel_s / quanta,
        "sim.align_results": counts["sim.align_results"],
        "sim.align_cuts": counts["sim.align_cuts"],
        "distributed.wire_msgs": counts.get("distributed.wire_msgs", 0),
        "distributed.wire_bytes": counts.get("distributed.wire_bytes", 0),
        "distributed.wire_bytes_pickled":
            counts.get("distributed.wire_bytes_pickled", 0),
        "distributed.shm_bytes": counts.get("distributed.shm_bytes", 0),
        "analysis.windows": counts.get("analysis.windows", 0),
        "analysis.samples": counts["analysis.samples"],
        "analysis.samples_per_s":
            per_second(counts["analysis.samples"], analysis_s),
        "sweep.fuse_s": seconds("sim.taskgen") if sweep else 0.0,
        "sweep.store_bytes": counts.get("sweep.store_bytes", 0),
        "sweep.points": counts.get("sweep.points", 0),
        "sweep.rows": counts.get("sweep.rows", 0),
    })
    return out


def hop_us(backend: str) -> float:
    """Microseconds per item per channel hop of ``repro.ff`` on the
    workload's executor: a no-op source -> feedback farm -> sink."""
    from repro.ff import (GO_ON, Farm, MasterWorkerEmitter, Node, Pipeline,
                          SinkNode, SourceNode)
    from repro.ff import run as ff_run

    class Once(MasterWorkerEmitter):
        def is_complete(self, item) -> bool:
            return True

    class Bounce(Node):
        def svc(self, item):
            self.ff_send_out(item)
            self.send_feedback(item)
            return GO_ON

    graph = Pipeline([
        SourceNode(range(HOP_ITEMS)),
        Farm([Bounce(name=f"bounce-{i}") for i in range(2)],
             emitter=Once(), feedback=True, name="hop-farm"),
        SinkNode()])
    executor = "sequential" if backend == "sequential" else "threads"
    started = perf_counter()
    ff_run(graph, backend=executor, collect=False)
    return 1e6 * (perf_counter() - started) / (HOP_ITEMS * HOPS_PER_ITEM)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("real", "hand"), required=True)
    parser.add_argument("--workload", choices=sorted(wl.BY_NAME),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = wl.BY_NAME[args.workload]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "real":
        out = real_rep(workload, args.seed, args.scale, args.trace,
                       args.out_dir)
    else:
        out = hand_driven(workload, args.seed, args.scale, args.trace,
                          args.out_dir)
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
