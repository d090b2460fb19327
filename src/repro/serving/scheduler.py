"""Request coalescing for batched Monte-Carlo inference.

The batched MC engines (:meth:`repro.bayesian.BayesianCim.
forward_batched`, :meth:`repro.bayesian.SpinBayesNetwork.
forward_batched`) amortize the T-pass Monte-Carlo loop over one
stacked tensor; :class:`BatchScheduler` amortizes it over *requests*
as well.  Concurrent callers submit inputs of any size, the scheduler
concatenates them into one coalesced batch, runs a single batched MC
call, and hands each caller back its own slice of the predictive
distribution — the serving-side shape of the ROADMAP's "heavy
traffic" goal.

Coalescing changes nothing about a request's semantics: every MC pass
draws one mask bank shared across the whole coalesced batch, exactly
as a single ``mc_forward`` call over the concatenated inputs would
(and, under a fixed seed, exactly *bit-for-bit* that call).  Requests
may ask for their own sample count T; at flush time pending requests
are grouped by T and each group runs as one engine call, so the
invariant holds per group.

Flushes happen when the pending rows reach ``max_batch``, on an
explicit :meth:`BatchScheduler.flush` or ``result()`` call, or — when
``flush_interval`` is set — automatically once the oldest pending
request has waited that many seconds (the latency deadline of a
lightly-loaded service).

:class:`~repro.serving.sharded.ShardedScheduler` extends the flush
step to spread one coalesced batch across multiple engine replicas.

An attached :class:`~repro.serving.controlplane.ControlPlane` makes
the scheduler SLO-aware: submits pass admission control (bounded
queue, distinct :class:`~repro.serving.controlplane.AdmissionRejected`
error), and each flush group's T may be degraded under latency
pressure (adaptive-T; results carry ``served_samples``/``degraded``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bayesian.base import PredictiveResult
from repro.serving.errors import InvalidInput, ResultTimeout
from repro.serving.metrics import LoadMetrics

# Back-compat: ResultTimeout predates repro.serving.errors and was
# defined here through PR 9; importing it from this module keeps
# working.
__all__ = ["BatchScheduler", "PendingPrediction", "ResultTimeout",
           "SchedulerStats"]


@dataclasses.dataclass
class SchedulerStats:
    """Operational counters of one :class:`BatchScheduler`."""

    requests: int = 0
    rows: int = 0
    flushes: int = 0             # engine calls (one per T-group per flush)
    coalesced_rows: int = 0      # rows that shared a flush with another request
    evicted: int = 0             # unclaimed results dropped at the cap
    timer_flushes: int = 0       # flushes triggered by the deadline timer
    shard_calls: int = 0         # per-replica engine calls (sharded scheduler)
    timeouts: int = 0            # tickets abandoned by result(timeout=...)
    degraded_flushes: int = 0    # groups served below their requested T

    @property
    def mean_rows_per_flush(self) -> float:
        return self.rows / self.flushes if self.flushes else 0.0


@dataclasses.dataclass
class _Request:
    """One submitted request waiting for its flush.

    ``model_id`` names a :class:`~repro.serving.registry.ModelRegistry`
    entry; ``None`` means the scheduler's own default engine.
    """

    seq: int
    x: np.ndarray
    n_samples: int
    model_id: Optional[str] = None


class _FailedResult:
    """A flush-time engine failure, stored in a request's result slot.

    When an engine call raises, only the requests of that call fail:
    their slots hold the original exception (re-raised, traceback
    intact, when the ticket is resolved) while sibling requests from
    other T-groups or shards resolve normally.
    """

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


class PendingPrediction:
    """Handle for a submitted request; resolves on flush.

    ``result()`` returns the request's own :class:`PredictiveResult`
    (predictive mean probabilities, per-pass samples, and therefore
    every uncertainty score).  Calling it while the request is still
    pending forces a flush of the current pending batch.
    """

    def __init__(self, scheduler: "BatchScheduler", seq: int, n_rows: int,
                 n_samples: int, deadline: Optional[float] = None):
        self._scheduler = scheduler
        self._seq = seq
        self.n_rows = n_rows
        self.n_samples = n_samples
        # Absolute monotonic deadline from submit(deadline_s=...);
        # result() then defaults to waiting out the remaining budget.
        self._deadline = deadline

    def done(self) -> bool:
        """True once the request's flush has run (even if it failed)."""
        return self._scheduler._has_result(self._seq)

    def result(self, timeout: Optional[float] = None) -> PredictiveResult:
        """Return (once) this request's :class:`PredictiveResult`.

        With ``timeout=None`` (default) a still-pending request forces
        an immediate flush — unless the request was submitted with
        ``deadline_s=``, in which case the remaining deadline budget is
        used as the timeout.  With a timeout, the call instead *waits*
        for another flush trigger (the deadline timer, ``max_batch``,
        or a concurrent ``flush()``) to resolve the request — the
        polite form for a caller that wants batching to happen — and
        on expiry withdraws the request entirely (its queue slot is
        freed; it will not run) and raises :class:`ResultTimeout`.

        Raises
        ------
        ResultTimeout
            The timeout expired first (and on any retry of the same
            ticket).
        RuntimeError
            If the result was already consumed, or was evicted past
            ``max_retained_results``.
        Exception
            If the engine call serving this request raised, the
            original exception is re-raised with its traceback.
        """
        if timeout is None and self._deadline is not None:
            timeout = max(self._deadline - time.monotonic(), 1e-9)
        return self._scheduler._resolve(self._seq, timeout)


class BatchScheduler:
    """Coalesces concurrent inference requests into batched MC calls.

    Parameters
    ----------
    engine:
        Any object exposing ``mc_forward_batched(x, n_samples=...,
        chunk_passes=...) -> PredictiveResult`` — normally a
        :class:`~repro.bayesian.BayesianCim`,
        :class:`~repro.bayesian.SpinBayesNetwork`, or (for per-pixel
        workloads) a :class:`~repro.bayesian.SegmenterEngine`, whose
        results carry H·W rows per input image; construct the
        scheduler with ``feature_shape=(C, H, W)`` and each request
        gets back exactly its own pixels.
    n_samples:
        Default Monte-Carlo passes per request (the T of the
        predictive distribution); individual requests may override it
        via ``submit(x, n_samples=...)``.  At flush time pending
        requests are grouped by T, one engine call per distinct T.
    max_batch:
        Flush automatically once the pending rows reach this count.
        Requests larger than ``max_batch`` are accepted and flushed
        immediately rather than split (a request's rows always share
        one flush, so its samples stay mutually consistent).
    chunk_passes:
        Forwarded to the engine to bound peak memory.
    feature_shape:
        Per-sample input shape, e.g. ``(256,)`` or ``(1, 16, 16)``.
        When omitted it is inferred from the first request, which must
        then be 1-D features or a *batched* ``(n, features)`` matrix —
        a first request with more than two axes is rejected as
        ambiguous (a single ``(C, H, W)`` image is indistinguishable
        from a batch of 2-D inputs); pass ``feature_shape`` explicitly
        to serve image engines.
    max_retained_results:
        Bound on flushed-but-unclaimed results kept for late
        ``result()`` calls.  A long-lived scheduler whose callers
        abandon tickets (e.g. after timeouts) would otherwise grow
        without limit; beyond the cap the *oldest* unclaimed results
        are dropped (counted in ``stats.evicted``) and their tickets
        raise on ``result()``.
    flush_interval:
        Optional deadline in seconds: when set, a daemon timer flushes
        the pending batch once the *oldest* pending request has waited
        this long, bounding tail latency under light traffic.  Call
        :meth:`close` (or use the scheduler as a context manager) to
        cancel the timer on shutdown.
    registry:
        Optional :class:`~repro.serving.registry.ModelRegistry`.  When
        set, requests may name a registered model via ``submit(x,
        model=...)`` and one scheduler fleet serves every tenant:
        pending requests group by ``(model, T)``, each group runs on
        its own (lazily loaded) engine, and every group's flush is
        recorded in that model's :class:`~repro.serving.metrics.
        LoadMetrics`.  ``engine`` may then be ``None``, making every
        request name a model explicitly.
    default_model:
        Registry model-id used for requests that do not name a model.
        Requires ``registry``; mutually exclusive with ``engine``.
    metrics:
        Optional :class:`~repro.serving.metrics.LoadMetrics` fed one
        record per successful engine flush (with per-model windows on
        registry routes) plus queue-depth observations — giving the
        *sync* front-ends the observability the async front-end
        always had.  Defaults to the control plane's collector when
        one is attached.
    admission:
        Optional bounded-queue policy applied on every ``submit()``:
        an :class:`~repro.serving.controlplane.AdmissionPolicy` (or a
        prepared :class:`~repro.serving.controlplane.
        AdmissionController`) that rejects with
        :class:`~repro.serving.controlplane.AdmissionRejected` once
        pending rows cross its watermarks, instead of letting the
        queue grow without bound.  Defaults to the control plane's
        admission controller when one is attached.
    controlplane:
        Optional :class:`~repro.serving.controlplane.ControlPlane`
        binding this scheduler to SLO machinery: admission control on
        submit, adaptive-T degradation per flush group, and (for
        sharded schedulers) replica health quarantine.
    """

    def __init__(self, engine=None, n_samples: int = 20,
                 max_batch: int = 64,
                 chunk_passes: Optional[int] = None,
                 feature_shape: Optional[tuple] = None,
                 max_retained_results: int = 1024,
                 flush_interval: Optional[float] = None,
                 registry=None, default_model: Optional[str] = None,
                 metrics: Optional[LoadMetrics] = None,
                 admission=None, controlplane=None):
        if n_samples < 1:
            raise ValueError("need at least one MC sample")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_retained_results < 1:
            raise ValueError("max_retained_results must be positive")
        if flush_interval is not None and flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        if engine is None and registry is None:
            raise ValueError(
                "need an engine or a registry (or both) to serve from")
        if default_model is not None:
            if registry is None:
                raise ValueError("default_model requires a registry")
            if engine is not None:
                raise ValueError(
                    "pass either a default engine or a default_model, "
                    "not both")
        self.engine = engine
        self.registry = registry
        self.default_model = default_model
        self.n_samples = n_samples
        self.max_batch = max_batch
        self.chunk_passes = chunk_passes
        self.max_retained_results = max_retained_results
        self.flush_interval = flush_interval
        self.controlplane = controlplane
        if controlplane is not None:
            controlplane.bind(self)
            if metrics is None:
                metrics = controlplane.metrics
            if admission is None:
                admission = controlplane.admission
        self.metrics = metrics
        if admission is not None:
            from repro.serving.controlplane import (
                AdmissionController,
                AdmissionPolicy,
            )
            if isinstance(admission, AdmissionPolicy):
                admission = AdmissionController(admission)
            elif not hasattr(admission, "admit"):
                raise ValueError(
                    "admission must be an AdmissionController or an "
                    "AdmissionPolicy")
        self.admission = admission
        self.stats = SchedulerStats()
        self._lock = threading.RLock()
        # Signalled after every flush; result(timeout=...) waits on it
        # instead of force-flushing.
        self._cond = threading.Condition(self._lock)
        self._pending: List[_Request] = []
        self._pending_rows = 0
        # Rows served by each engine replica in the most recent engine
        # call ([total] for the single-engine scheduler; one entry per
        # replica for ShardedScheduler) — the load-metrics hook.
        self.last_shard_loads: List[int] = []
        # Values are PredictiveResult or _FailedResult slots.
        self._results: dict[int, object] = {}
        # Evicted seqs are remembered (insertion-ordered, bounded) so
        # their tickets raise a precise error; beyond the bound the
        # oldest degrade to the generic "already consumed" message
        # rather than growing memory forever.
        self._evicted_seqs: dict[int, None] = {}
        # Tickets withdrawn by result(timeout=...) — bounded like the
        # evicted set; retrying one re-raises ResultTimeout.
        self._timed_out_seqs: dict[int, None] = {}
        # Per-sample input shape, keyed by model-id (None = the
        # default engine / default_model route).  Shapes are pinned by
        # the constructor argument, by the registry entry, or inferred
        # from a route's first request.
        self._feature_shapes: Dict[Optional[str], tuple] = {}
        if feature_shape is not None:
            self._feature_shapes[None] = tuple(feature_shape)
        self._next_seq = 0
        self._timer: Optional[threading.Timer] = None
        self._closed = False

    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray,
               n_samples: Optional[int] = None,
               model: Optional[str] = None, *,
               feature_shape: Optional[tuple] = None,
               deadline_s: Optional[float] = None) -> PendingPrediction:
        """Enqueue a request: ``x`` is (n, …features) or (…features,).

        ``n_samples`` overrides the scheduler default for this request
        only.  ``model`` routes the request to a registered model
        (requires a ``registry``); omitted, it goes to the default
        engine or ``default_model``.  ``feature_shape`` pins the
        route's per-sample shape from the request (must agree with an
        already-pinned shape); ``deadline_s`` bounds how long the
        returned ticket's ``result()`` waits before withdrawing the
        request with :class:`~repro.serving.errors.ResultTimeout`.
        Returns a :class:`PendingPrediction` that resolves once the
        request's batch is flushed (automatically at ``max_batch``
        rows, after ``flush_interval`` seconds, or on :meth:`flush` /
        ``result()``).

        Raises
        ------
        InvalidInput
            For features holding NaN or ±inf (a ``ValueError``).
        ValueError
            For an empty request, a feature-shape mismatch, an
            ambiguous multi-dimensional first request without
            ``feature_shape``, a ``model`` without a registry,
            a non-positive ``deadline_s``, or ``n_samples < 1``.
        KeyError
            For a ``model`` the registry does not know.
        AdmissionRejected
            When an admission policy is attached and the request
            crosses its queue/latency watermarks (it is never
            enqueued).  Raised as :class:`~repro.serving.errors.
            QueueFull` or :class:`~repro.serving.errors.Overload`.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        with self._lock:
            x, n_samples, model_id = self._normalize_request(
                x, n_samples, model, feature_shape)
            if self.admission is not None:
                self.admission.admit(
                    x.shape[0], self._pending_rows, self._observed_p95)
            seq = self._next_seq
            self._next_seq += 1
            was_empty = not self._pending
            self._pending.append(_Request(seq, x, n_samples, model_id))
            self._pending_rows += x.shape[0]
            self.stats.requests += 1
            self.stats.rows += x.shape[0]
            if self.metrics is not None:
                self.metrics.observe_queue_depth(self._pending_rows)
            deadline = (time.monotonic() + deadline_s
                        if deadline_s is not None else None)
            ticket = PendingPrediction(self, seq, x.shape[0], n_samples,
                                       deadline)
            if self._pending_rows >= self.max_batch:
                self._flush_locked()
            elif was_empty and self.flush_interval is not None \
                    and not self._closed:
                self._arm_timer_locked()
            return ticket

    def _normalize_request(self, x: np.ndarray,
                           n_samples: Optional[int],
                           model: Optional[str] = None,
                           feature_shape: Optional[tuple] = None) -> tuple:
        """Validate one request; return its batched array, T, and
        model-id (``None`` for the default-engine route).

        Shared by the synchronous :meth:`submit` and the async
        front-end (:class:`~repro.serving.async_frontend.
        AsyncBatchScheduler`), so both enforce identical feature-shape
        inference, model routing, and per-request sample-count rules.
        Takes the scheduler lock (re-entrant) because it may fix a
        route's feature shape from its first request.
        """
        if n_samples is None:
            n_samples = self.n_samples
        if n_samples < 1:
            raise ValueError("need at least one MC sample")
        if model is None:
            model = self.default_model
        if model is not None and self.registry is None:
            raise ValueError(
                f"request names model {model!r} but the scheduler has "
                f"no registry")
        x = np.asarray(x, dtype=np.float64)
        if not np.isfinite(x).all():
            raise InvalidInput(
                "request features must be finite (found NaN or inf)")
        with self._lock:
            if feature_shape is not None:
                # A per-request pin (the normalized submit signature):
                # fixes the route's shape on first use, and must agree
                # with an already-pinned one afterwards.
                pinned = tuple(feature_shape)
                known = self._feature_shapes.get(model)
                if known is None:
                    self._feature_shapes[model] = pinned
                elif known != pinned:
                    raise ValueError(
                        f"request pins feature_shape={pinned} but the "
                        f"route is already pinned to {known}")
            shape = self._feature_shapes.get(model)
            if shape is None and model is not None:
                # Raises KeyError for an unknown model — reject it at
                # submit time rather than at flush.
                shape = self.registry.feature_shape(model)
                if shape is not None:
                    self._feature_shapes[model] = shape
            if shape is None:
                if x.ndim > 2:
                    raise ValueError(
                        f"cannot infer the feature shape from a first "
                        f"request of shape {x.shape}: with multi-"
                        f"dimensional features a single (C, H, W) image "
                        f"is indistinguishable from a batch of 2-D "
                        f"inputs.  Construct the scheduler with "
                        f"feature_shape=, e.g. "
                        f"BatchScheduler(engine, feature_shape="
                        f"{tuple(x.shape[1:])}), or register the model "
                        f"with feature_shape=")
                if x.ndim < 2:
                    x = x[None]
                shape = x.shape[1:]
                self._feature_shapes[model] = shape
            elif x.shape == shape:
                x = x[None]          # single unbatched sample
            if x.shape[1:] != shape:
                raise ValueError(
                    f"request features {x.shape[1:]} != "
                    f"{'model ' + repr(model) if model else 'scheduler'}"
                    f" features {shape}")
            if x.shape[0] == 0:
                raise ValueError("empty request")
        return x, n_samples, model

    def flush(self) -> int:
        """Run batched MC over everything pending (one call per T).

        Returns the number of requests resolved (0 if nothing pending).
        """
        with self._lock:
            return self._flush_locked()

    @property
    def pending_rows(self) -> int:
        with self._lock:
            return self._pending_rows

    def close(self) -> None:
        """Flush any pending requests and cancel the deadline timer."""
        with self._lock:
            self._closed = True
            self._cancel_timer_locked()
            self._flush_locked()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _arm_timer_locked(self) -> None:
        self._cancel_timer_locked()
        timer = threading.Timer(self.flush_interval, self._timer_fire)
        timer.daemon = True
        # The callback receives its own Timer so a stale firing (one
        # that was cancelled after its thread already woke up and is
        # waiting on the lock) can recognize it is no longer current
        # and must not flush a newer batch early.
        timer.args = (timer,)
        self._timer = timer
        timer.start()

    def _cancel_timer_locked(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _timer_fire(self, timer: threading.Timer) -> None:
        with self._lock:
            if self._timer is not timer:
                return
            self._timer = None
            if self._pending:
                self.stats.timer_flushes += 1
                self._flush_locked()

    # ------------------------------------------------------------------
    def _observed_p95(self) -> float:
        """p95 flush latency for admission decisions (0 if untracked)."""
        return self.metrics.p95_latency_s() if self.metrics is not None \
            else 0.0

    def _flush_locked(self) -> int:
        self._cancel_timer_locked()
        if not self._pending:
            return 0
        batch, self._pending = self._pending, []
        self._pending_rows = 0
        if self.metrics is not None:
            self.metrics.observe_queue_depth(0)
        for (model_id, n_samples), requests in \
                self._group_requests(batch).items():
            resolved = self._serve_group(requests, n_samples, model_id)
            self.stats.flushes += 1
            if len(requests) > 1:
                self.stats.coalesced_rows += sum(
                    r.x.shape[0] for r in requests)
            self._results.update(resolved)
        # Bound unclaimed-result retention (dicts iterate in insertion
        # order, so the front is the oldest flushed result).
        while len(self._results) > self.max_retained_results:
            oldest = next(iter(self._results))
            del self._results[oldest]
            self._evicted_seqs[oldest] = None
            self.stats.evicted += 1
        while len(self._evicted_seqs) > 4 * self.max_retained_results:
            del self._evicted_seqs[next(iter(self._evicted_seqs))]
        if self.controlplane is not None:
            self.controlplane.after_flush()
        self._cond.notify_all()
        return len(batch)

    def _serve_group(self, requests: List[_Request], requested_t: int,
                     model_id: Optional[str] = None) -> Dict[int, object]:
        """Run one (model, T)-group at its SLO-adjusted sample count.

        The control plane may shed MC passes under latency pressure
        (adaptive-T): the group then runs at ``served_t <
        requested_t`` and every resolved result is flagged
        ``degraded`` (``served_samples`` already carries the actual
        pass count).  Without a control plane — or with the p95 under
        target — the group runs exactly as requested, keeping results
        bit-identical to a plain scheduler.  Shared by the sync flush
        and the async front-end's executor flush.
        """
        served_t = requested_t
        if self.controlplane is not None:
            served_t = self.controlplane.served_t(requested_t)
        resolved = self._run_group_safe(requests, served_t, model_id)
        if served_t != requested_t:
            self.stats.degraded_flushes += 1
            for value in resolved.values():
                if isinstance(value, PredictiveResult):
                    value.degraded = True
        return resolved

    @staticmethod
    def _group_requests(batch: List[_Request]
                        ) -> Dict[Tuple[Optional[str], int],
                                  List[_Request]]:
        """Group a flush batch by ``(model, sample count)``.

        Each group is one engine call whose samples every member
        shares, exactly as a direct ``mc_forward_batched`` over the
        group's concatenated inputs — per-model T-grouping, so a
        mixed-tenant flush never blends two models' rows into one
        engine call.  Insertion-ordered (groups run in arrival order
        of their first member), so a seeded replay of the same
        submissions reproduces the engine-call sequence — the async
        front-end reuses this helper to keep that guarantee.
        """
        groups: Dict[Tuple[Optional[str], int], List[_Request]] = {}
        for request in batch:
            key = (request.model_id, request.n_samples)
            groups.setdefault(key, []).append(request)
        return groups

    def _run_group_safe(self, requests: List[_Request], n_samples: int,
                        model_id: Optional[str] = None
                        ) -> Dict[int, object]:
        """Run one (model, T)-group, converting an engine failure into
        :class:`_FailedResult` slots for exactly that group's
        requests — a poisoned engine must not wedge sibling groups
        (their tickets would otherwise stay pending forever).
        Registry-routed groups also feed their model's
        :class:`~repro.serving.metrics.LoadMetrics`, and every
        successful group feeds the scheduler's own ``metrics``
        collector (when attached) under its model-id window."""
        t0 = time.perf_counter()
        try:
            resolved = self._run_group(requests, n_samples, model_id)
        except Exception as exc:      # noqa: BLE001 — delivered to tickets
            return {r.seq: _FailedResult(exc) for r in requests}
        latency_s = time.perf_counter() - t0
        rows = sum(r.x.shape[0] for r in requests)
        if self.metrics is not None:
            self.metrics.record_flush(
                rows=rows, n_requests=len(requests), latency_s=latency_s,
                replica_loads=self.last_shard_loads, model_id=model_id)
        if model_id is not None and self.registry is not None:
            self.registry.record_flush(
                model_id, rows=rows, n_requests=len(requests),
                latency_s=latency_s)
        return resolved

    def _resolve_engine(self, model_id: Optional[str]):
        """The engine serving one group: the scheduler's own for the
        default route, else the registry's (lazily loaded)."""
        if model_id is None:
            if self.engine is None:
                raise ValueError(
                    "scheduler has no default engine; submit with "
                    "model=")
            return self.engine
        return self.registry.engine(model_id)

    def _run_group(self, requests: List[_Request], n_samples: int,
                   model_id: Optional[str] = None
                   ) -> Dict[int, PredictiveResult]:
        """One engine call over a same-(model, T) group; per-request
        slices."""
        engine = self._resolve_engine(model_id)
        coalesced = np.concatenate([r.x for r in requests], axis=0)
        self.last_shard_loads = [coalesced.shape[0]]
        result = engine.mc_forward_batched(
            coalesced, n_samples=n_samples, chunk_passes=self.chunk_passes)
        return self._slice_group(requests, result)

    @staticmethod
    def _slice_group(requests: List[_Request], result: PredictiveResult
                     ) -> Dict[int, PredictiveResult]:
        """Hand each request its own slice of the stacked samples.

        Engines may return more result rows than input rows — a
        segmentation engine yields H·W per-pixel rows per image (see
        :class:`repro.bayesian.SegmenterEngine`).  The expansion
        factor is uniform per engine, so each request's slice is its
        row span scaled by ``result_rows / input_rows``.
        """
        total_rows = sum(r.x.shape[0] for r in requests)
        out_rows = result.samples.shape[1]
        if out_rows % total_rows:
            raise ValueError(
                f"engine returned {out_rows} result rows for "
                f"{total_rows} input rows — not an integer per-input "
                f"expansion, so per-request slices are ambiguous")
        scale = out_rows // total_rows
        resolved: Dict[int, PredictiveResult] = {}
        lo = 0
        for request in requests:
            hi = lo + request.x.shape[0]
            resolved[request.seq] = PredictiveResult.from_samples(
                result.samples[:, lo * scale:hi * scale])
            lo = hi
        return resolved

    def _has_result(self, seq: int) -> bool:
        with self._lock:
            return seq in self._results

    def _resolve(self, seq: int,
                 timeout: Optional[float] = None) -> PredictiveResult:
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        with self._lock:
            if timeout is None:
                if seq not in self._results and any(
                        r.seq == seq for r in self._pending):
                    # Only force a flush when this ticket's request is
                    # genuinely still pending — resolving a consumed or
                    # evicted ticket must not disturb unrelated
                    # requests.
                    self._flush_locked()
            else:
                self._wait_for_result_locked(seq, timeout)
            if seq not in self._results:
                if seq in self._timed_out_seqs:
                    raise ResultTimeout(
                        f"request {seq} was withdrawn by an earlier "
                        f"result(timeout=...) expiry")
                if seq in self._evicted_seqs:
                    raise RuntimeError(
                        f"result for request {seq} was evicted: it "
                        f"stayed unclaimed past max_retained_results="
                        f"{self.max_retained_results}")
                raise RuntimeError(
                    f"result for request {seq} was already consumed "
                    f"(each ticket's result() can be taken once)")
            value = self._results.pop(seq)
        if isinstance(value, _FailedResult):
            # Re-raise the engine's original exception (traceback
            # intact) outside the lock.
            raise value.exc
        return value

    def _wait_for_result_locked(self, seq: int, timeout: float) -> None:
        """Wait (without forcing a flush) until ``seq`` resolves.

        Relies on the deadline timer / ``max_batch`` / concurrent
        ``flush()`` calls to run the batch; the condition variable is
        signalled after every flush.  On expiry the request is
        withdrawn from the pending batch — freeing its rows for
        ``max_batch`` and admission accounting immediately, rather
        than parking an unclaimed result for LRU eviction — and the
        caller raises :class:`ResultTimeout` via the ordinary
        missing-result path.
        """
        deadline = time.monotonic() + timeout
        while seq not in self._results:
            if not any(r.seq == seq for r in self._pending):
                return               # resolved+consumed, evicted, or gone
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for i, request in enumerate(self._pending):
                    if request.seq == seq:
                        del self._pending[i]
                        self._pending_rows -= request.x.shape[0]
                        if self.metrics is not None:
                            self.metrics.observe_queue_depth(
                                self._pending_rows)
                        if self.admission is not None:
                            # The withdrawn rows were admitted but will
                            # never be served — reconcile the counters
                            # so admitted totals don't drift.
                            self.admission.release(request.x.shape[0])
                        break
                self._timed_out_seqs[seq] = None
                while len(self._timed_out_seqs) > \
                        4 * self.max_retained_results:
                    del self._timed_out_seqs[
                        next(iter(self._timed_out_seqs))]
                self.stats.timeouts += 1
                return
            self._cond.wait(remaining)
