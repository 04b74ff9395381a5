"""repro.distributed: the distributed CWC simulator (functional side).

The paper ports the simulator to clusters and IaaS clouds by replacing
FastFlow's shared-memory channels with "distributed zero-copy channels":
streams are serialised, shipped, and de-serialised "without modifying the
existing code".  This package is the functional half of that story (the
*timing* half lives in :mod:`repro.perfsim`):

* :mod:`repro.distributed.message` -- length-prefixed, checksummed frame
  codec (every task and result really round-trips through serialisation);
* :mod:`repro.distributed.channel` -- traffic-metered links with a
  latency/bandwidth cost model (used to account communication volume and
  to feed the performance simulator with real message sizes);
* :mod:`repro.distributed.cluster` -- a virtual cluster: the Fig. 2
  workflow re-wired as *farm of simulation pipelines* whose workers sit
  behind serialisation boundaries with per-host task affinity;
* :mod:`repro.distributed.net` / :mod:`repro.distributed.worker` -- the
  one out-of-process runtime (``backend="processes"`` and
  ``backend="cluster"`` are two names for it): a TCP master/worker
  runtime with worker-resident tasks, host affinity, bounded in-flight
  windows, heartbeat failure detection and deterministic task
  reassignment on worker death;
* :mod:`repro.distributed.shm` -- its local data plane: workers the
  master spawned on its own host return quantum results through
  shared-memory segments instead of the socket;
* :mod:`repro.distributed.procfarm` -- the engine node that drives a
  tenant run's quanta through the service's shared fleet.
"""

from repro.distributed.message import (
    FrameCodec,
    FrameError,
    StreamDecoder,
    encode_frame,
    decode_frame,
)
from repro.distributed.channel import NetworkLink, TrafficMeter
from repro.distributed.cluster import DistributedWorkflow, HostSpec as VirtualHost
from repro.distributed.net import (
    ClusterError,
    ClusterMaster,
    ClusterSourceNode,
    KillWorkerAfter,
    run_workflow_cluster,
)
from repro.distributed.procfarm import ProcessSimEngineNode

__all__ = [
    "FrameCodec",
    "FrameError",
    "StreamDecoder",
    "encode_frame",
    "decode_frame",
    "NetworkLink",
    "TrafficMeter",
    "DistributedWorkflow",
    "VirtualHost",
    "ClusterError",
    "ClusterMaster",
    "ClusterSourceNode",
    "KillWorkerAfter",
    "run_workflow_cluster",
    "ProcessSimEngineNode",
]
