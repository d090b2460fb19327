"""One home for every serving-surface exception, and the ticket
lifecycle those exceptions punctuate.

Before this module each front-end raised its own spelling of the same
failures (:class:`AdmissionRejected` lived in ``controlplane``,
:class:`ResultTimeout` in ``scheduler``); clients handling both had to
import from two modules and switch on a string ``reason``.  Every
front-end — :class:`~repro.serving.scheduler.BatchScheduler`,
:class:`~repro.serving.sharded.ShardedScheduler`,
:class:`~repro.serving.async_frontend.AsyncBatchScheduler`, the
process pool, and the unified :func:`repro.serving.api.serve`
factory — now raises the types defined here (the old import paths
keep working as re-exports).

Ticket lifecycle
----------------
Every ``submit(x, ...)`` follows the same state machine on every
front-end:

0. **Validation** — the request's shape, sample count and model route
   are checked, and so are its values: a row holding NaN or ±inf
   raises :class:`InvalidInput` (a :class:`ValueError`).  The
   binarizing wordline drive would otherwise serve such a row
   silently, a NaN row as confident-looking probabilities and an
   ``inf`` as ``+1``.
   Like every validation failure it is raised by ``submit`` itself:
   the request never joins a batch, so requests coalesced around it
   are served as if it had never been sent.
1. **Admission** — with an admission policy attached, the request is
   checked against the queue watermarks *before* it is enqueued.  A
   hard-bound breach raises :class:`QueueFull`; a soft-watermark breach
   under latency pressure raises :class:`Overload` (both are
   :class:`AdmissionRejected`, so ``except AdmissionRejected`` catches
   either).  A rejected request holds no rows and needs no cleanup.
2. **Pending** — the request joins the coalescing batch and counts
   against ``max_batch`` (and, on the async front-end, the
   backpressure bound).  A ticket (:class:`~repro.serving.scheduler.
   PendingPrediction` / :class:`~repro.serving.async_frontend.
   AsyncPrediction`) is returned immediately.
3. **Flushed** — at ``max_batch`` rows, at the deadline, or on an
   explicit ``flush()``, the batch runs as one engine call per
   (model, T) group.  An engine failure fails only that group's
   tickets, which re-raise the original exception on resolution.
4. **Resolved / abandoned** — ``result()`` hands back the request's
   own :class:`~repro.bayesian.base.PredictiveResult` exactly once.
   A bounded wait that expires withdraws the request (its rows are
   freed) and raises :class:`ResultTimeout`; a cancelled async ticket
   releases its backpressure slot and reconciles its admission
   accounting (see :meth:`~repro.serving.controlplane.
   AdmissionController.release`).
"""

from __future__ import annotations


class InvalidInput(ValueError):
    """A request whose features are not all finite (NaN or ±inf).

    Raised by ``submit`` before the request is enqueued; no other
    request is affected.
    """


class AdmissionRejected(RuntimeError):
    """A request refused by admission control (never enqueued).

    ``reason`` is ``"queue_full"`` (hard bound) or ``"overload"``
    (soft watermark + latency breach) — distinct from engine errors,
    so clients can back off instead of retrying into the same wall.
    Raised as one of the two subclasses below; catching this base
    type handles both.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class QueueFull(AdmissionRejected):
    """The hard queue bound was hit: pending rows + the request would
    exceed ``max_queue_rows``.  Back off and retry later."""

    def __init__(self, message: str, reason: str = "queue_full"):
        super().__init__(message, reason)


class Overload(AdmissionRejected):
    """The request was shed: the queue is past its soft watermark
    *while* the observed p95 flush latency is over target.  Reduce
    offered load (or request fewer MC passes) before retrying."""

    def __init__(self, message: str, reason: str = "overload"):
        super().__init__(message, reason)


class ResultTimeout(RuntimeError):
    """``result(timeout=...)`` expired before the request resolved.

    The ticket's pending slot is released on the way out: the request
    is withdrawn from the batch (it will not run) and its rows no
    longer count against ``max_batch``/admission watermarks, instead
    of lingering for ``max_retained_results`` LRU eviction.  Retrying
    the same ticket re-raises this error.
    """


class WorkerDied(RuntimeError):
    """A process-pool replica's worker is gone (crash, kill, or OOM).

    Raised by :class:`~repro.serving.procpool.ProcReplica` calls after
    the worker process died mid-request or between requests.  Under a
    sharded scheduler this fails only the dead replica's own shard
    (sibling tickets resolve normally) and, with a control plane
    attached, flows through the ordinary failure path: the replica is
    quarantined and a warm spare promoted in its place.
    """


class RemoteEngineError(RuntimeError):
    """An engine call raised *inside* a process-pool worker.

    The worker survives (only the request failed); the remote
    traceback is carried in the message.  The original exception type
    cannot always cross the process boundary (exceptions are not
    required to pickle), so this wrapper is what the ticket re-raises.
    """


__all__ = [
    "AdmissionRejected",
    "InvalidInput",
    "Overload",
    "QueueFull",
    "RemoteEngineError",
    "ResultTimeout",
    "WorkerDied",
]
