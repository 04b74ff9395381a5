"""repro.distributed: the distributed CWC simulator (functional side).

The paper ports the simulator to clusters and IaaS clouds by replacing
FastFlow's shared-memory channels with "distributed zero-copy channels":
streams are serialised, shipped, and de-serialised "without modifying the
existing code".  This package is the functional half of that story (the
*timing* half lives in :mod:`repro.perfsim`):

* :mod:`repro.distributed.message` -- length-prefixed, checksummed frame
  codec (every task and result really round-trips through serialisation);
* :mod:`repro.distributed.net` / :mod:`repro.distributed.worker` -- the
  one out-of-process runtime (``backend="processes"`` and
  ``backend="cluster"`` are two names for it): a TCP master/worker
  runtime with worker-resident tasks, host affinity, bounded in-flight
  windows, heartbeat failure detection and deterministic task
  reassignment on worker death.  It is the pool
  :func:`repro.pipeline.builder.workflow_pool` puts under the simulation
  farm's engines, for runs and sweeps alike; its per-link byte and
  message counters (``net.link.w*``) are what a deployment would send;
* :mod:`repro.distributed.shm` -- its local data plane: workers the
  master spawned on its own host return quantum results through
  shared-memory segments instead of the socket.
"""

from repro.distributed.message import (
    FrameCodec,
    FrameError,
    StreamDecoder,
    encode_frame,
    decode_frame,
)
from repro.distributed.net import (
    ClusterError,
    ClusterMaster,
    KillWorkerAfter,
    run_workflow_cluster,
)

__all__ = [
    "FrameCodec",
    "FrameError",
    "StreamDecoder",
    "encode_frame",
    "decode_frame",
    "ClusterError",
    "ClusterMaster",
    "KillWorkerAfter",
    "run_workflow_cluster",
]
