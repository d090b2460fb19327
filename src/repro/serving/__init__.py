"""Serving layer: request coalescing over the batched MC engines.

Four front-ends share one coalescing core (see ``docs/serving.md``),
reachable uniformly through :func:`serve`:

- :class:`BatchScheduler` — synchronous, single engine
  (``backend="sync"``);
- :class:`ShardedScheduler` — synchronous, fan-out across engine
  replicas in threads (``backend="threads"``);
- :class:`ProcReplicaPool` — replicas in worker *processes* with
  shared-memory row transport, served through a sharded scheduler
  (``backend="procs"``);
- :class:`AsyncBatchScheduler` — :mod:`asyncio` coroutines over
  either, with :class:`LoadMetrics` observability and optional
  :class:`Autoscaler`-driven replica scaling (``backend="async"``).

The SLO-driven control plane (:class:`ControlPlane`) layers replica
health quarantine, admission control, and adaptive-T degradation over
any of them; :mod:`repro.serving.faults` provides the deterministic
fault-injection doubles used to exercise it.  Every serving-surface
exception lives in :mod:`repro.serving.errors` (the ticket lifecycle
is documented there too).
"""

from repro.serving.api import Frontend, ServingConfig, serve
from repro.serving.async_frontend import (
    AsyncBatchScheduler,
    AsyncPrediction,
)
from repro.serving.autoscale import Autoscaler
from repro.serving.controlplane import (
    AdmissionController,
    AdmissionPolicy,
    ControlPlane,
    HealthPolicy,
    ReplicaHealth,
    SloPolicy,
)
from repro.serving.errors import (
    AdmissionRejected,
    InvalidInput,
    Overload,
    QueueFull,
    RemoteEngineError,
    ResultTimeout,
    WorkerDied,
)
from repro.serving.metrics import LoadMetrics, MetricsSnapshot, ModelLatency
from repro.serving.procpool import ProcReplica, ProcReplicaPool
from repro.serving.registry import ModelRegistry
from repro.serving.scheduler import (
    BatchScheduler,
    PendingPrediction,
    SchedulerStats,
)
from repro.serving.sharded import ShardedScheduler

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionRejected",
    "AsyncBatchScheduler",
    "AsyncPrediction",
    "Autoscaler",
    "BatchScheduler",
    "ControlPlane",
    "Frontend",
    "HealthPolicy",
    "InvalidInput",
    "LoadMetrics",
    "MetricsSnapshot",
    "ModelLatency",
    "ModelRegistry",
    "Overload",
    "PendingPrediction",
    "ProcReplica",
    "ProcReplicaPool",
    "QueueFull",
    "RemoteEngineError",
    "ReplicaHealth",
    "ResultTimeout",
    "SchedulerStats",
    "ServingConfig",
    "ShardedScheduler",
    "SloPolicy",
    "WorkerDied",
    "serve",
]
