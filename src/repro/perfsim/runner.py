"""The DES model of the paper's workflow, single-host and distributed.

``simulate_workflow`` models Fig. 2 on one shared-memory host: emitter ->
on-demand farm of simulation engines with quantum feedback -> trajectory
alignment -> sliding windows -> farm of statistical engines -> gather +
output.  Every piece of service work acquires a core of the host (so
service stages contend with workers when cores are scarce -- the effect
behind the sub-linear quad-core VM speedup of Fig. 5); bounded queues
propagate backpressure (the effect behind the single-stat-engine
saturation of Fig. 3).

``simulate_distributed`` models the distributed/cloud version: a *farm of
simulation pipelines*, one per host, each with its own local emitter,
workers and feedback; results are serialised and streamed over the
platform's inter-host channel to the master (host 0), which runs
alignment and the analysis pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.perfsim.costmodel import CostModel
from repro.perfsim.des import Environment, Event, Resource, Store
from repro.perfsim.platform import HostSpec, PlatformSpec, intel32
from repro.perfsim.workload import TrajectoryWorkload

_SENTINEL = object()


@dataclass
class PerfResult:
    """Outcome of one modeled run."""

    makespan: float
    n_trajectories: int
    n_quanta: int
    n_cuts: int
    n_windows: int
    total_steps: float
    #: busy seconds per simulation worker (load-balance diagnostics)
    worker_busy: list[float] = field(default_factory=list)
    #: total service seconds spent in the analysis side
    analysis_busy: float = 0.0

    @property
    def worker_utilisation(self) -> float:
        if not self.worker_busy or self.makespan <= 0:
            return 0.0
        return sum(self.worker_busy) / (len(self.worker_busy) * self.makespan)

    @property
    def load_imbalance(self) -> float:
        """max/mean busy-time ratio across workers (1.0 = perfect)."""
        if not self.worker_busy:
            return 1.0
        mean = sum(self.worker_busy) / len(self.worker_busy)
        return max(self.worker_busy) / mean if mean > 0 else 1.0


def _expected_windows(n_cuts: int, window_size: int) -> int:
    return math.ceil(n_cuts / window_size)


def simulate_workflow(workload: TrajectoryWorkload,
                      cost: Optional[CostModel] = None,
                      n_sim_workers: int = 4,
                      n_stat_workers: int = 1,
                      window_size: int = 20,
                      host: Optional[HostSpec] = None,
                      queue_capacity: int = 64) -> PerfResult:
    """Model the single-host workflow; see module docstring."""
    cost = cost or CostModel()
    host = host or intel32().hosts[0]
    if n_sim_workers < 1 or n_stat_workers < 1:
        raise ValueError("worker counts must be >= 1")

    env = Environment()
    core = Resource(env, host.cores)
    speed = host.core_speed

    def service(seconds: float):
        yield core.acquire()
        yield env.timeout(seconds / speed)
        core.release()

    n_traj = workload.n_trajectories
    n_quanta = workload.n_quanta
    n_grid = workload.n_grid_points

    sched_q = Store(env, name="sched")  # emitter input (initial + feedback)
    work_q = Store(env, capacity=max(2, 2 * n_sim_workers), name="work")
    result_q = Store(env, capacity=queue_capacity, name="results")
    cut_q = Store(env, capacity=queue_capacity, name="cuts")
    window_q = Store(env, capacity=queue_capacity, name="windows")
    gather_q = Store(env, capacity=queue_capacity, name="gathered")
    done = Event(env)

    worker_busy = [0.0] * n_sim_workers
    analysis_busy = [0.0]

    # ------------------------------------------------------------ emitter
    def emitter():
        for trajectory in range(n_traj):
            yield sched_q.put(("task", trajectory, 0))
        remaining = n_traj
        while remaining:
            kind, trajectory, quantum = yield sched_q.get()
            if kind == "done":
                remaining -= 1
                continue
            yield from service(cost.dispatch_cost)
            yield work_q.put((trajectory, quantum))
        for _ in range(n_sim_workers):
            yield work_q.put(_SENTINEL)

    # ------------------------------------------------------------ workers
    def worker(index: int):
        while True:
            item = yield work_q.get()
            if item is _SENTINEL:
                return
            trajectory, quantum = item
            steps = workload.quantum_steps(trajectory, quantum)
            seconds = cost.quantum_service(steps) / speed
            yield core.acquire()
            yield env.timeout(seconds)
            core.release()
            worker_busy[index] += seconds
            yield result_q.put((trajectory, quantum))
            if quantum + 1 < n_quanta:
                yield sched_q.put(("task", trajectory, quantum + 1))
            else:
                yield sched_q.put(("done", trajectory, 0))

    # ------------------------------------------------------------ aligner
    def aligner():
        grid_seen = [0] * n_grid
        grid_of_quantum = [
            workload.samples_in_quantum(q) for q in range(n_quanta)]
        # precompute which grid indices each quantum covers
        starts = []
        acc = 0
        for q in range(n_quanta):
            starts.append(acc)
            acc += grid_of_quantum[q]
        expected = n_traj * n_quanta
        for _ in range(expected):
            trajectory, quantum = yield result_q.get()
            n_samples = grid_of_quantum[quantum]
            seconds = (cost.align_cost_per_sample * n_samples
                       * workload.n_observables)
            yield from service(seconds)
            analysis_busy[0] += seconds / speed
            for g in range(starts[quantum], starts[quantum] + n_samples):
                grid_seen[g] += 1
                if grid_seen[g] == n_traj:
                    assembly = cost.cut_cost_per_trajectory * n_traj
                    yield from service(assembly)
                    analysis_busy[0] += assembly / speed
                    yield cut_q.put(g)
        yield cut_q.put(_SENTINEL)

    # ------------------------------------------------------------ windows
    def window_generator():
        emitted = 0
        pending = 0
        while True:
            item = yield cut_q.get()
            if item is _SENTINEL:
                break
            yield from service(cost.window_cost_per_cut)
            pending += 1
            if pending == window_size:
                yield window_q.put(pending)
                emitted += 1
                pending = 0
        if pending:
            yield window_q.put(pending)
        for _ in range(n_stat_workers):
            yield window_q.put(_SENTINEL)

    # ------------------------------------------------------- stat engines
    def stat_worker():
        while True:
            item = yield window_q.get()
            if item is _SENTINEL:
                return
            seconds = cost.stat_cost_per_cut(n_traj) * item
            yield from service(seconds)
            analysis_busy[0] += seconds / speed
            yield gather_q.put(item)

    # ------------------------------------------------------------- gather
    def gather():
        expected = _expected_windows(n_grid, window_size)
        for _ in range(expected):
            cuts_in_window = yield gather_q.get()
            seconds = (cost.gather_cost
                       + cost.io_cost_per_sample * n_traj * cuts_in_window)
            yield from service(seconds)
            analysis_busy[0] += seconds / speed
        done.succeed()

    env.process(emitter())
    for i in range(n_sim_workers):
        env.process(worker(i))
    env.process(aligner())
    env.process(window_generator())
    for _ in range(n_stat_workers):
        env.process(stat_worker())
    env.process(gather())
    env.run(until=done)

    return PerfResult(
        makespan=env.now,
        n_trajectories=n_traj,
        n_quanta=n_quanta,
        n_cuts=n_grid,
        n_windows=_expected_windows(n_grid, window_size),
        total_steps=workload.total_steps(),
        worker_busy=worker_busy,
        analysis_busy=analysis_busy[0])


def speedup_curve(workload_factory, worker_counts: Sequence[int],
                  cost: Optional[CostModel] = None,
                  n_stat_workers: int = 1,
                  window_size: int = 20,
                  host: Optional[HostSpec] = None) -> dict[int, float]:
    """Speedup vs. number of simulation workers, relative to the same
    pipeline with one simulation engine (the paper's Fig. 3 convention).

    ``workload_factory()`` must return a fresh workload (they are
    stateless, so one instance is fine too).
    """
    workload = workload_factory() if callable(workload_factory) else workload_factory
    base = simulate_workflow(
        workload, cost=cost, n_sim_workers=1,
        n_stat_workers=n_stat_workers, window_size=window_size,
        host=host).makespan
    out: dict[int, float] = {}
    for w in worker_counts:
        result = simulate_workflow(
            workload, cost=cost, n_sim_workers=w,
            n_stat_workers=n_stat_workers, window_size=window_size,
            host=host)
        out[w] = base / result.makespan
    return out


def simulate_distributed(workload: TrajectoryWorkload,
                         platform: PlatformSpec,
                         workers_per_host: "int | Sequence[int]",
                         cost: Optional[CostModel] = None,
                         n_stat_workers: int = 4,
                         window_size: int = 20,
                         queue_capacity: int = 64,
                         scheduling: str = "dynamic") -> PerfResult:
    """Model the distributed farm-of-pipelines; see module docstring.

    ``scheduling`` selects how trajectories reach the hosts:

    * ``"dynamic"`` (default, the paper's streaming design): the master
      streams simulation parameters to hosts on demand -- each host keeps
      a few more active trajectories than it has workers and requests a
      new one whenever one finishes, so fast hosts naturally take more
      work (essential on heterogeneous platforms);
    * ``"static"`` (ablation): trajectories are partitioned up front,
      proportionally to worker capacity (workers x core speed).

    Quantum feedback always stays host-local; results stream to the
    master (host 0) over the platform's inter-host channel through a
    per-host asynchronous collector.
    """
    if scheduling not in ("dynamic", "static"):
        raise ValueError(f"unknown scheduling {scheduling!r}")
    cost = cost or CostModel()
    hosts = platform.hosts
    if isinstance(workers_per_host, int):
        workers = [workers_per_host] * len(hosts)
    else:
        workers = list(workers_per_host)
    if len(workers) != len(hosts):
        raise ValueError(
            f"workers_per_host has {len(workers)} entries for "
            f"{len(hosts)} hosts")
    for host, w in zip(hosts, workers):
        if not 0 <= w <= host.cores:
            raise ValueError(
                f"host {host.name!r} has {host.cores} cores, "
                f"cannot run {w} workers")
    if workers[0] < 0 or sum(workers) < 1:
        raise ValueError("need at least one worker somewhere")

    n_traj = workload.n_trajectories
    n_quanta = workload.n_quanta
    n_grid = workload.n_grid_points

    # --- proportional static partition (largest remainder); also used to
    # bound the trajectory count of hosts in dynamic mode at 0 workers ---
    capacity = [w * h.core_speed for w, h in zip(workers, hosts)]
    total_capacity = sum(capacity)
    share = [c / total_capacity * n_traj for c in capacity]
    assigned = [int(s) for s in share]
    remainder = n_traj - sum(assigned)
    order = sorted(range(len(hosts)),
                   key=lambda i: share[i] - assigned[i], reverse=True)
    for i in range(remainder):
        assigned[order[i % len(order)]] += 1

    env = Environment()
    cores = [Resource(env, h.cores) for h in hosts]
    nics = [Resource(env, 1) for _ in hosts]

    # dynamic mode: a global pool of trajectory ids on the master, closed
    # by one sentinel per participating host
    participating = [i for i in range(len(hosts))
                     if workers[i] > 0 and (scheduling == "dynamic"
                                            or assigned[i] > 0)]
    pool = Store(env, name="pool")
    if scheduling == "dynamic":
        for trajectory in range(n_traj):
            pool.put(trajectory)
        for _ in participating:
            pool.put(_SENTINEL)

    def service_on(host_index: int, seconds: float):
        yield cores[host_index].acquire()
        yield env.timeout(seconds / hosts[host_index].core_speed)
        cores[host_index].release()

    result_q = Store(env, capacity=queue_capacity, name="results")
    cut_q = Store(env, capacity=queue_capacity, name="cuts")
    window_q = Store(env, capacity=queue_capacity, name="windows")
    gather_q = Store(env, capacity=queue_capacity, name="gathered")
    done = Event(env)

    worker_busy_all: list[float] = []
    analysis_busy = [0.0]

    # --- one simulation pipeline per host --------------------------------
    next_trajectory = 0
    for host_index in participating:
        host, n_workers, n_assigned = (
            hosts[host_index], workers[host_index], assigned[host_index])
        trajectories = range(next_trajectory, next_trajectory + n_assigned)
        next_trajectory += n_assigned
        sched_q = Store(env, name=f"sched{host_index}")
        work_q = Store(env, capacity=max(2, 2 * n_workers),
                       name=f"work{host_index}")
        busy_base = len(worker_busy_all)
        worker_busy_all.extend([0.0] * n_workers)

        host_channel = platform.channel_to_master(host_index)

        def transfer(sender: int, size: float, channel=host_channel):
            # The NIC is held only for the wire occupancy (size/bandwidth);
            # propagation latency is pipelined: messages stream back to
            # back, each arriving one latency after leaving the wire.
            yield nics[sender].acquire()
            yield env.timeout(size / channel.bandwidth)
            nics[sender].release()
            yield env.timeout(channel.latency)

        def deliver(size: float, payload, channel=host_channel):
            # in-flight message: latency + receive-side deserialisation
            # happen off the sender's critical path
            yield env.timeout(channel.latency)
            yield from service_on(0, cost.serialize_cost(size))
            yield result_q.put(payload)

        def ship_task(host_index=host_index):
            # the master serialises a task's parameters and ships them
            size = workload.task_message_size()
            yield from service_on(0, cost.serialize_cost(size))
            if host_index != 0:
                yield from transfer(0, size)
                yield from service_on(host_index, cost.serialize_cost(size))

        credit_q = Store(env, name=f"credit{host_index}")

        def fetcher(sched_q=sched_q, credit_q=credit_q,
                    n_workers=n_workers, ship_task=ship_task):
            # dynamic mode: pull trajectories from the master's pool, a
            # few more than the host has workers, then one per completion
            for _ in range(n_workers + 2):
                credit_q.put(None)
            while True:
                yield credit_q.get()
                item = yield pool.get()
                if item is _SENTINEL:
                    yield sched_q.put(("no-more", 0, 0))
                    return
                yield from ship_task()
                yield sched_q.put(("new", item, 0))

        def emitter(host_index=host_index, trajectories=trajectories,
                    sched_q=sched_q, work_q=work_q, n_workers=n_workers,
                    credit_q=credit_q, ship_task=ship_task):
            if scheduling == "static":
                for trajectory in trajectories:
                    yield from ship_task()
                    yield sched_q.put(("new", trajectory, 0))
                yield sched_q.put(("no-more", 0, 0))
            active = 0
            no_more = False
            while not (no_more and active == 0):
                kind, trajectory, quantum = yield sched_q.get()
                if kind == "no-more":
                    no_more = True
                    continue
                if kind == "done":
                    active -= 1
                    if scheduling == "dynamic":
                        credit_q.put(None)
                    continue
                if kind == "new":
                    active += 1
                yield from service_on(host_index, cost.dispatch_cost)
                yield work_q.put((trajectory, quantum))
            for _ in range(n_workers):
                yield work_q.put(_SENTINEL)

        # Results are handed to a per-host collector (the farm collector +
        # FastFlow dnode of the paper), which serialises and ships them
        # asynchronously so workers never block on the network.
        out_q = Store(env, capacity=queue_capacity, name=f"out{host_index}")

        def worker(index: int, host_index=host_index, work_q=work_q,
                   sched_q=sched_q, out_q=out_q):
            while True:
                item = yield work_q.get()
                if item is _SENTINEL:
                    yield out_q.put(_SENTINEL)
                    return
                trajectory, quantum = item
                steps = workload.quantum_steps(trajectory, quantum)
                seconds = (cost.quantum_service(steps)
                           / hosts[host_index].core_speed)
                yield cores[host_index].acquire()
                yield env.timeout(seconds)
                cores[host_index].release()
                worker_busy_all[index] += seconds
                # feedback stays host-local: reschedule immediately
                if quantum + 1 < n_quanta:
                    yield sched_q.put(("task", trajectory, quantum + 1))
                else:
                    yield sched_q.put(("done", trajectory, 0))
                yield out_q.put((trajectory, quantum))

        def collector(host_index=host_index, out_q=out_q,
                      n_workers=n_workers, deliver=deliver,
                      channel=host_channel):
            remaining_workers = n_workers
            while remaining_workers:
                item = yield out_q.get()
                if item is _SENTINEL:
                    remaining_workers -= 1
                    continue
                trajectory, quantum = item
                if host_index == 0:
                    yield result_q.put((trajectory, quantum))
                    continue
                size = workload.result_message_size(quantum)
                yield from service_on(host_index, cost.serialize_cost(size))
                yield nics[host_index].acquire()
                yield env.timeout(size / channel.bandwidth)
                nics[host_index].release()
                env.process(deliver(size, (trajectory, quantum)))

        env.process(emitter())
        if scheduling == "dynamic":
            env.process(fetcher())
        for k in range(n_workers):
            env.process(worker(busy_base + k))
        env.process(collector())

    # --- master-side analysis (host 0) ------------------------------------
    def aligner():
        grid_seen = [0] * n_grid
        samples = [workload.samples_in_quantum(q) for q in range(n_quanta)]
        starts = []
        acc = 0
        for q in range(n_quanta):
            starts.append(acc)
            acc += samples[q]
        for _ in range(n_traj * n_quanta):
            trajectory, quantum = yield result_q.get()
            seconds = (cost.align_cost_per_sample * samples[quantum]
                       * workload.n_observables)
            yield from service_on(0, seconds)
            analysis_busy[0] += seconds
            for g in range(starts[quantum], starts[quantum] + samples[quantum]):
                grid_seen[g] += 1
                if grid_seen[g] == n_traj:
                    assembly = cost.cut_cost_per_trajectory * n_traj
                    yield from service_on(0, assembly)
                    yield cut_q.put(g)
        yield cut_q.put(_SENTINEL)

    def window_generator():
        pending = 0
        while True:
            item = yield cut_q.get()
            if item is _SENTINEL:
                break
            yield from service_on(0, cost.window_cost_per_cut)
            pending += 1
            if pending == window_size:
                yield window_q.put(pending)
                pending = 0
        if pending:
            yield window_q.put(pending)
        for _ in range(n_stat_workers):
            yield window_q.put(_SENTINEL)

    def stat_worker():
        while True:
            item = yield window_q.get()
            if item is _SENTINEL:
                return
            seconds = cost.stat_cost_per_cut(n_traj) * item
            yield from service_on(0, seconds)
            analysis_busy[0] += seconds
            yield gather_q.put(item)

    def gather():
        for _ in range(_expected_windows(n_grid, window_size)):
            cuts_in_window = yield gather_q.get()
            seconds = (cost.gather_cost
                       + cost.io_cost_per_sample * n_traj * cuts_in_window)
            yield from service_on(0, seconds)
            analysis_busy[0] += seconds
        done.succeed()

    env.process(aligner())
    env.process(window_generator())
    for _ in range(n_stat_workers):
        env.process(stat_worker())
    env.process(gather())
    env.run(until=done)

    return PerfResult(
        makespan=env.now,
        n_trajectories=n_traj,
        n_quanta=n_quanta,
        n_cuts=n_grid,
        n_windows=_expected_windows(n_grid, window_size),
        total_steps=workload.total_steps(),
        worker_busy=worker_busy_all,
        analysis_busy=analysis_busy[0])
