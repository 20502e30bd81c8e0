"""Pipeline-parallel training substrate.

Implements the paper's execution model (§2): a model's weights are
partitioned in topological order into P stages; microbatches flow through a
bubble-free pipe; each stage reads its weights at delayed versions

    ``τ_fwd,i = (2(P−i)+1)/N``,  ``τ_bkwd,i ∈ {τ_fwd,i (PipeDream), 0
    (PipeMare), 0 ≡ fwd (GPipe, synchronous)}``

and applies accumulated gradients at minibatch boundaries.  The executor
realises the *exact* microbatch-granularity version arithmetic, while the
cost models reproduce Table 1, Table 4/5 and the Appendix A.3 throughput
analysis.
"""

from repro.pipeline.partition import (
    GRANULARITIES,
    PARTITION_MODES,
    PartitionPlan,
    Partitioner,
    Stage,
    balanced_bounds,
    check_replica_count,
    check_stage_count,
    even_bounds,
    num_weight_units,
    partition_model,
    partition_units,
)
from repro.pipeline.delays import DelayProfile, Method
from repro.pipeline.weight_store import SharedWeightMirror, WeightVersionStore
from repro.pipeline.plan import ReplicaPlan, ResolverSpec, StepPlan, WorkerPlanMirror
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.stage_compute import (
    GraphNode,
    ModelSpec,
    StageGraph,
    WorkerGraph,
    build_worker_graph,
)
from repro.pipeline.transport import (
    ShmRing,
    TransportClosed,
    TransportError,
    TransportTimeout,
)
from repro.pipeline.registry import (
    TaskState,
    WorkerLostError,
    WorkerRegistry,
)
from repro.pipeline.worker import PipelineDeadlockError
from repro.pipeline.net import RemoteWeightMirror, SocketWorkerPool, Transport
from repro.pipeline.runtime import (
    AsyncPipelineRuntime,
    ProcessWorkerPool,
    ReplicaGroup,
    RuntimeWedgedError,
    ThreadWorkerPool,
)
from repro.pipeline.waveprogram import (
    WaveBlock,
    WaveCompileError,
    WaveProgram,
    compile_wave_programs,
)
from repro.pipeline import costmodel
from repro.pipeline import recompute
from repro.pipeline.schedule import (
    ScheduleGrid,
    build_schedule,
    bubble_fraction,
    stage_programs,
)

RUNTIME_BACKENDS = ("simulator", "async", "process", "socket")


def make_backend(runtime: str, *args, **kwargs):
    """Build the requested pipeline backend: the sequential ``simulator``,
    the thread-worker ``async`` runtime, the multi-process shared-memory
    ``process`` runtime, or the framed-socket ``socket`` runtime (workers
    over TCP/UDS with a registry and typed failure handling).  All accept
    the :class:`PipelineExecutor` constructor arguments; the concurrent
    ones additionally accept the :class:`AsyncPipelineRuntime` tuning
    knobs (``overlap_boundary``, ``deadlock_timeout``, ``done_grace``,
    ``granularity``, ``max_workers``, ``inflight_steps``, and for
    ``process``/``socket`` also ``model_spec`` and ``start_method``, for
    ``socket`` ``net_options``).  The simulator has no minibatch barrier
    to overlap and executes the model monolithically, so
    ``overlap_boundary``, ``granularity`` and ``max_workers`` are accepted
    and ignored there — callers can pass one backend-agnostic kwargs
    dict.  ``num_replicas`` (hybrid data ×
    pipeline parallelism) is honoured by every backend except ``socket``:
    the simulator runs the R replicas sequentially with exact staleness,
    the thread/process runtimes run them as a :class:`ReplicaGroup` of
    worker pools."""
    if runtime == "simulator":
        for concurrent_only in ("overlap_boundary", "granularity", "max_workers"):
            kwargs.pop(concurrent_only, None)
        return PipelineExecutor(*args, **kwargs)
    if runtime == "async":
        return AsyncPipelineRuntime(*args, **kwargs)
    if runtime == "process":
        return AsyncPipelineRuntime(*args, backend="process", **kwargs)
    if runtime == "socket":
        return AsyncPipelineRuntime(*args, backend="socket", **kwargs)
    raise ValueError(f"unknown runtime {runtime!r} (expected one of {RUNTIME_BACKENDS})")


__all__ = [
    "Stage",
    "partition_model",
    "partition_units",
    "Partitioner",
    "PartitionPlan",
    "GRANULARITIES",
    "PARTITION_MODES",
    "balanced_bounds",
    "check_replica_count",
    "check_stage_count",
    "even_bounds",
    "num_weight_units",
    "DelayProfile",
    "Method",
    "WeightVersionStore",
    "SharedWeightMirror",
    "StepPlan",
    "ReplicaPlan",
    "ResolverSpec",
    "WorkerPlanMirror",
    "PipelineExecutor",
    "AsyncPipelineRuntime",
    "ReplicaGroup",
    "ThreadWorkerPool",
    "ProcessWorkerPool",
    "SocketWorkerPool",
    "PipelineDeadlockError",
    "RuntimeWedgedError",
    "WorkerLostError",
    "WorkerRegistry",
    "TaskState",
    "Transport",
    "RemoteWeightMirror",
    "ModelSpec",
    "StageGraph",
    "GraphNode",
    "WorkerGraph",
    "build_worker_graph",
    "WaveBlock",
    "WaveCompileError",
    "WaveProgram",
    "compile_wave_programs",
    "ShmRing",
    "TransportError",
    "TransportTimeout",
    "TransportClosed",
    "RUNTIME_BACKENDS",
    "make_backend",
    "costmodel",
    "recompute",
    "ScheduleGrid",
    "build_schedule",
    "bubble_fraction",
    "stage_programs",
]
