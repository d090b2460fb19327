"""In-memory spans and counters at the program's layer boundaries.

:meth:`Tracer.install` wraps the public (and a few named internal) entry
points of each layer from the outside — nothing in ``src/`` changes — and
:meth:`Tracer.uninstall` puts the originals back.  An untraced run never
calls :meth:`install`, so it runs the program unwrapped.

Each span has a name, start, end, parent and the thread it ran on; spans
stay in memory and are written as JSON lines when the run ends.  A
span's self time is its duration minus the part of it that its child
spans cover.  Counters are kept per thread at the same boundaries and
summed on read.
"""

from __future__ import annotations

import collections
import functools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

from spinbench.estimators import union_length

ENGINE_SPAN = "bayesian.mc_forward_batched"
FLUSH_SPAN = "serving.flush_group"


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name, start, parent, thread, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._thread_counters: List[collections.Counter] = []
        self._patches: List[tuple] = []
        # The open serving flush: shard calls run on pool threads whose
        # own span stack is empty, and take it as their parent.
        self._flush: Optional[Span] = None

    # -- spans and counters --------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = collections.Counter()
            self._thread_counters.append(counter)
        counter[name] += n

    @property
    def counters(self) -> collections.Counter:
        total: collections.Counter = collections.Counter()
        for counter in list(self._thread_counters):
            total.update(counter)
        return total

    def _open(self, name: str, attrs=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._flush
        span = Span(name, time.perf_counter(), parent,
                    threading.get_ident(), attrs)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    # -- wrapping --------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str,
              before: Optional[Callable] = None,
              attrs: Optional[Callable] = None, guard: bool = False) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        static = isinstance(raw, staticmethod)
        original = raw.__func__ if static else raw
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = tracer._open(name, attrs(args) if attrs else None)
            if name == FLUSH_SPAN:
                tracer._flush = span
            if guard:
                tracer._local.in_mvm = getattr(tracer._local, "in_mvm", 0) + 1
            try:
                return original(*args, **kwargs)
            finally:
                if guard:
                    tracer._local.in_mvm -= 1
                if name == FLUSH_SPAN:
                    tracer._flush = None
                tracer._close(span)

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._patches.append((owner, attr, raw))


    def install(self, probe_cls) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from repro.bayesian.deploy import BayesianCim
        from repro.bayesian.spinbayes import (
            SpinBayesNetwork,
            _SpinBayesMvmLayer,
        )
        from repro.cim import adc, crossbar, layers
        from repro.devices.rng import SpintronicRNG
        from repro.serving.async_frontend import AsyncBatchScheduler
        from repro.serving.registry import ModelRegistry
        from repro.serving.scheduler import BatchScheduler
        from repro.tensor import bitpack

        if self._patches:
            raise RuntimeError("tracer already installed")
        # serving
        self._wrap(BatchScheduler, "_normalize_request", "serving.admit")
        self._wrap(BatchScheduler, "_serve_group", FLUSH_SPAN)
        self._wrap(BatchScheduler, "_slice_group", "serving.slice")
        self._wrap(AsyncBatchScheduler, "_run_flush", "serving.async_flush")
        self._wrap(ModelRegistry, "engine", "serving.registry")
        # bayesian
        self._wrap(probe_cls, "mc_forward_batched", ENGINE_SPAN,
                   attrs=lambda a: {"model": a[0].model,
                                    "replica": a[0].replica,
                                    "call": len(a[0].calls),
                                    "rows": int(a[1].shape[0])})
        self._wrap(BayesianCim, "_draw_sample_banks", "bayesian.mask_banks")
        self._wrap(SpinBayesNetwork, "_draw_selections",
                   "bayesian.mask_banks")
        self._wrap(BayesianCim, "_install_banks", "bayesian.install_banks")
        # cim
        self._wrap(layers.CimLinear, "forward", "cim.CimLinear")
        self._wrap(layers.CimConv2d, "forward", "cim.CimConv2d")
        self._wrap(_SpinBayesMvmLayer, "forward", "cim.SpinBayesMvm")
        self._wrap(_SpinBayesMvmLayer, "forward_banked", "cim.SpinBayesMvm")
        for cls in (layers.FrozenNorm, layers.DropoutGate,
                    layers.DigitalScale, layers.DigitalSign,
                    layers.DigitalReLU, layers.DigitalMaxPool,
                    layers.DigitalFlatten):
            self._wrap(cls, "forward", "cim.periphery")
        self._wrap(adc.ADC, "convert", "cim.adc")
        self._wrap(adc.PopcountADC, "convert", "cim.adc")
        analog = (lambda a: self.count("cim.mvm.analog"))
        self._wrap(crossbar.XnorCrossbar, "mvm_prepared", "cim.xbar.analog",
                   before=analog, guard=True)
        self._wrap(crossbar.XnorCrossbar, "mvm_cols", "cim.xbar.analog",
                   before=analog, guard=True)
        self._wrap(crossbar.XnorCrossbar, "mvm_packed", "cim.xbar.packed",
                   before=lambda a: self.count("cim.mvm.packed"), guard=True)
        raw_book = crossbar.XnorCrossbar.__dict__["book_mvm"]

        def book_mvm(bar, total_active):
            # Outside mvm_prepared/mvm_cols/mvm_packed: the exact route.
            if not getattr(self._local, "in_mvm", 0):
                self.count("cim.mvm.exact")
            return raw_book(bar, total_active)
        crossbar.XnorCrossbar.book_mvm = book_mvm
        self._patches.append((crossbar.XnorCrossbar, "book_mvm", raw_book))
        # devices
        self._wrap(SpintronicRNG, "generate", "devices.rng",
                   before=lambda a: self.count("devices.rng.bits", a[1]))
        # tensor
        self._wrap(layers, "_gather_padded_patches", "tensor.im2col")
        for fn in ("pack_ternary_rows", "pack_ternary_cols", "packed_mvm"):
            self._wrap(bitpack, fn, "tensor.bitpack")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- reading -----------------------------------------------------------
    def finished(self) -> List[Span]:
        return [s for s in self.spans if s.end is not None]

    def self_times(self) -> Dict[str, float]:
        """Total self time (seconds) per span name."""
        spans = self.finished()
        children: Dict[int, list] = collections.defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        totals: Dict[str, float] = collections.defaultdict(float)
        for span in spans:
            covered = _covered(span, children.get(id(span), ()))
            totals[span.name] += span.duration - covered
        return dict(totals)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.finished() if s.name == name]

    def write_jsonl(self, path: str,
                    requests_of: Callable[[Span], Iterable[int]]) -> int:
        """Write every finished span as one JSON line; returns the count.

        ``requests_of(engine_span)`` names the requests an engine call
        served; other spans inherit them from their engine-call ancestor,
        and a flush carries those of the calls it made.
        """
        spans = self.finished()
        ids = {id(s): i for i, s in enumerate(spans)}
        served: Dict[int, list] = {}
        for span in spans:
            if span.name == ENGINE_SPAN:
                served[id(span)] = sorted(requests_of(span))
        flush_requests: Dict[int, set] = collections.defaultdict(set)
        for span in spans:
            if span.name == ENGINE_SPAN and span.parent is not None:
                flush_requests[id(span.parent)].update(served[id(span)])
        with open(path, "w") as fh:
            for i, span in enumerate(spans):
                requests = _inherited(span, served)
                if requests is None:
                    requests = sorted(flush_requests.get(id(span), ()))
                fh.write(json.dumps({
                    "id": i, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": ids.get(id(span.parent)),
                    "thread": span.thread, "requests": requests,
                    "attrs": span.attrs}) + "\n")
        return len(spans)


def _covered(span: Span, children) -> float:
    """Length of the union of the children's intervals within ``span``."""
    return union_length((max(c.start, span.start), min(c.end, span.end))
                        for c in children)


def _inherited(span: Optional[Span], served: Dict[int, list]):
    while span is not None:
        if id(span) in served:
            return served[id(span)]
        span = span.parent
    return None
