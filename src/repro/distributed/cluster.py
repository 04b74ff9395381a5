"""A virtual cluster: the workflow re-wired as a farm of simulation
pipelines with per-host serialisation boundaries.

The distributed CWC simulator (paper section IV-B) changes exactly one
thing in the architecture: the farm of simulation *engines* becomes a farm
of simulation *pipelines*, one per remote host, with de-serialising and
serialising activities added at the boundaries.  This module builds that
topology functionally, inside one OS process:

* every simulation task shipped to a host crosses a real
  :class:`~repro.distributed.channel.NetworkLink` (pickled, framed,
  checksummed, metered);
* every quantum result returned to the master crosses the host's uplink;
* tasks have *host affinity*: after a quantum, the master reschedules the
  task to the same host (quantum feedback is host-local in the real
  system; the master round-trip here is an accounting convenience, the
  traffic is charged to the same links either way);
* the master-side alignment/analysis half is byte-identical to the
  shared-memory workflow.

The result is a *functional* distributed run whose message counts and
sizes are measured, not assumed -- they feed the DES models
(:func:`repro.perfsim.runner.simulate_distributed`) with real inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.cwc.model import Model
from repro.cwc.network import ReactionNetwork
from repro.distributed.channel import NetworkLink
from repro.ff.farm import Farm, MasterWorkerEmitter
from repro.ff.graph import ToWorker
from repro.ff.node import GO_ON, Node
from repro.ff.pipeline import Pipeline
from repro.ff.executor import run as ff_run
from repro.perfsim.platform import ChannelSpec, GIGABIT_ETHERNET
from repro.pipeline.builder import WorkflowResult, analysis_stages
from repro.pipeline.config import WorkflowConfig
from repro.sim.alignment import TrajectoryAligner
from repro.sim.scheduler import TaskGenerator
from repro.sim.task import SimulationTask


@dataclass(frozen=True)
class HostSpec:
    """One virtual host: how many engine lanes it runs and its link."""

    name: str
    lanes: int = 2
    channel: ChannelSpec = GIGABIT_ETHERNET

    def __post_init__(self):
        if self.lanes < 1:
            raise ValueError(f"host {self.name!r} needs >= 1 lane")


class _AffinityEmitter(MasterWorkerEmitter):
    """Dispatch tasks to hosts round-robin at first sight, then keep each
    task pinned to its host (its simulator state lives there)."""

    def __init__(self, lanes_of_worker: list[int], name: str = "dispatch"):
        super().__init__(name=name)
        self._host_of_task: dict[int, int] = {}
        self._next_worker = 0
        self._n_workers = len(lanes_of_worker)

    def _route(self, task: SimulationTask) -> ToWorker:
        worker = self._host_of_task.get(task.task_id)
        if worker is None:
            worker = self._next_worker
            self._next_worker = (self._next_worker + 1) % self._n_workers
            self._host_of_task[task.task_id] = worker
        return ToWorker(worker, task)

    def is_complete(self, task: SimulationTask) -> bool:
        return task.done

    def on_task(self, task: SimulationTask) -> ToWorker:
        return self._route(task)

    def on_reschedule(self, task: SimulationTask) -> ToWorker:
        return self._route(task)


class _RemoteSimLane(Node):
    """One engine lane of a remote host, behind serialisation boundaries.

    Input tasks are shipped through the host's downlink (really encoded,
    decoded, metered); the decoded copy runs one quantum; results and the
    updated task state return through the uplink.
    """

    def __init__(self, host: HostSpec, lane: int,
                 downlink: NetworkLink, uplink: NetworkLink):
        super().__init__(name=f"{host.name}.lane{lane}")
        self.host = host
        self.downlink = downlink
        self.uplink = uplink
        self.quanta_executed = 0

    def svc(self, task: SimulationTask):
        # master -> host: the task state crosses the wire
        down_frame = self.downlink.send(task)
        remote_task: SimulationTask = self.downlink.receive(down_frame)
        steps_before = remote_task.steps
        result = remote_task.run_quantum()
        self.quanta_executed += 1
        wire_bytes = len(down_frame)
        wire_messages = 1
        # host -> master: quantum results and updated task state return
        if len(result) or result.done:
            up_frame = self.uplink.send(result)
            wire_bytes += len(up_frame)
            wire_messages += 1
            self.ff_send_out(self.uplink.receive(up_frame))
        back_frame = self.uplink.send(remote_task)
        wire_bytes += len(back_frame)
        wire_messages += 1
        self.send_feedback(self.uplink.receive(back_frame))
        self.trace_incr("net.bytes", wire_bytes)
        self.trace_incr("net.messages", wire_messages)
        self.trace_incr(f"net.host.{self.host.name}.bytes", wire_bytes)
        self.trace_incr("sim.quanta", 1)
        self.trace_incr("sim.steps", remote_task.steps - steps_before)
        return GO_ON


@dataclass
class DistributedRunResult:
    """A WorkflowResult plus the measured per-host traffic."""

    workflow: WorkflowResult
    downlinks: dict[str, NetworkLink]
    uplinks: dict[str, NetworkLink]

    def total_bytes(self) -> int:
        return sum(l.meter.bytes for l in self.downlinks.values()) + \
            sum(l.meter.bytes for l in self.uplinks.values())

    def total_messages(self) -> int:
        return sum(l.meter.messages for l in self.downlinks.values()) + \
            sum(l.meter.messages for l in self.uplinks.values())

    def modeled_network_time(self) -> float:
        return max(
            (l.meter.modeled_time + self.uplinks[name].meter.modeled_time)
            for name, l in self.downlinks.items())


class DistributedWorkflow:
    """Build and run the farm-of-pipelines workflow on virtual hosts."""

    def __init__(self, model: Union[Model, ReactionNetwork],
                 config: WorkflowConfig,
                 hosts: list[HostSpec]):
        if not hosts:
            raise ValueError("need at least one host")
        self.model = model
        self.config = config
        self.hosts = hosts

    def run(self, tracer=None) -> DistributedRunResult:
        """Execute the virtual-cluster workflow.  With ``tracer`` (or
        ``config.trace``) the run records the usual node/channel metrics
        plus the domain counters of the serialisation boundaries
        (``net.bytes``, ``net.messages``, per-host byte counts); the
        report lands in ``result.workflow.trace_report``."""
        from repro.ff.trace import Tracer

        config = self.config
        if tracer is None and config.trace:
            tracer = Tracer()
        downlinks = {h.name: NetworkLink(f"{h.name}.down", h.channel)
                     for h in self.hosts}
        uplinks = {h.name: NetworkLink(f"{h.name}.up", h.channel)
                   for h in self.hosts}
        lanes: list[_RemoteSimLane] = []
        lanes_of_worker: list[int] = []
        for host in self.hosts:
            for lane in range(host.lanes):
                lanes.append(_RemoteSimLane(
                    host, lane, downlinks[host.name], uplinks[host.name]))
                lanes_of_worker.append(lane)
        generator = TaskGenerator(
            self.model, config.n_simulations, config.t_end, config.quantum,
            config.sample_every, seed=config.seed, engine=config.engine)
        sim_farm = Farm(
            lanes,
            emitter=_AffinityEmitter(lanes_of_worker),
            collector=TrajectoryAligner(config.n_simulations),
            feedback=True,
            scheduling=config.scheduling,
            name="host-farm")
        workflow = Pipeline(
            [generator, sim_farm] + analysis_stages(config),
            name="distributed-workflow")
        windows = ff_run(workflow, backend=config.backend, trace=tracer)
        report = tracer.report() if tracer is not None else None
        return DistributedRunResult(
            workflow=WorkflowResult(config=config, windows=windows,
                                    trace_report=report),
            downlinks=downlinks, uplinks=uplinks)
