"""repro.ff: a FastFlow-style pattern-based streaming runtime.

FastFlow (the C++ framework the paper builds on) is organised as a stack of
layers: *building blocks* (nodes and lock-free SPSC queues), *core patterns*
(pipeline, farm, feedback) and *high-level patterns* (parallel-for, map,
reduce, divide&conquer).  This package mirrors that stack in Python:

* building blocks: :mod:`repro.ff.queues` (bounded SPSC/MPSC channels) and
  :mod:`repro.ff.node` (the ``ff_node`` equivalent);
* core patterns: :mod:`repro.ff.pipeline`, :mod:`repro.ff.farm` (with
  feedback / master-worker support and ordered collection);
* high-level patterns: :mod:`repro.ff.patterns` (parallel_for, pmap,
  preduce, map_reduce, divide_and_conquer);
* executors: :mod:`repro.ff.executor` runs a pattern composition either on
  one thread (deterministic, for testing and debugging) or on a thread per
  node (concurrent, overlapping stages), mirroring FastFlow's thread-per-node
  runtime.

The GPU-oriented ``stencilReduce`` core pattern lives in
:mod:`repro.gpu.stencil_reduce` next to the SIMT device model it targets.
"""

from repro.ff.errors import (
    FFError,
    GraphError,
    MultiNodeError,
    NodeError,
    QueueClosedError,
)
from repro.ff.node import EOS, GO_ON, Emit, Node, FunctionNode, SourceNode, SinkNode
from repro.ff.pipeline import Pipeline
from repro.ff.farm import Farm, MasterWorkerEmitter
from repro.ff.queues import Channel, ChannelStats
from repro.ff.executor import run, SequentialExecutor, ThreadedExecutor
from repro.ff.describe import describe
from repro.ff.trace import RunReport, Tracer
from repro.ff.patterns import (
    parallel_for,
    pmap,
    preduce,
    map_reduce,
    divide_and_conquer,
)

__all__ = [
    "FFError",
    "GraphError",
    "MultiNodeError",
    "NodeError",
    "QueueClosedError",
    "EOS",
    "GO_ON",
    "Emit",
    "Node",
    "FunctionNode",
    "SourceNode",
    "SinkNode",
    "Pipeline",
    "Farm",
    "MasterWorkerEmitter",
    "Channel",
    "ChannelStats",
    "RunReport",
    "Tracer",
    "run",
    "SequentialExecutor",
    "ThreadedExecutor",
    "describe",
    "parallel_for",
    "pmap",
    "preduce",
    "map_reduce",
    "divide_and_conquer",
]
