"""Statistics the benchmark reports, kept free of NumPy and of the program.

Host-time figures on a shared 2-vCPU host drift in plateaus several
seconds long and slow down in bursts of a few hundred milliseconds (see
README.md).  The estimators here turn raw samples into
figures that survive that drift:

* :func:`tail` — the highest percentile (capped at p99) that still has at
  least ten samples beyond it, with the sample count it rests on;
* :func:`normalised` — latency at a reference host speed: each request's
  latency scaled by how slowly the interleaved reference kernel ran just
  before and just after it;
* :func:`steal_exposure` and :func:`least_exposed` — how much CPU the
  hypervisor took from the VM (steal) while each request was in flight,
  and the requests that saw none;
* :func:`due_latency` — open-loop latency timed from when a request was
  due, together with how late the generator submitted it.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Tuple

TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
TAIL_CAP = 0.99


def tail(values: Iterable[float]) -> Tuple[float, float, int]:
    """``(value, quantile, n)``: the highest quantile up to p99 that has
    at least ``TAIL_BEYOND`` samples strictly above its position.

    With ``n >= 1000`` samples this is the plain p99 (the 990th smallest
    of 1000).  With fewer it falls back to the highest quantile the
    sample supports, e.g. the 590th of 600 (q = 0.983).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    k = min(n - TAIL_BEYOND - 1, math.ceil(TAIL_CAP * n) - 1)
    return ordered[k], (k + 1) / n, n


def normalised(requests, samples, ref_ms: float, floor_s: float = 0.0
               ) -> List[float]:
    """Latency (ms) of each request at the host speed where the reference
    kernel takes ``ref_ms``.

    ``samples`` are ``(stamp, kernel_ms)`` in time order.  A request's
    latency beyond ``floor_s`` is scaled by ``ref_ms`` over the mean of
    the two samples around it: the last taken before it was submitted and
    the first taken after it completed (one of them at either end of the
    run).  The first ``floor_s`` — the serving stack's flush timer, a
    wall-clock wait that host speed does not change — is kept as
    measured.
    """
    if not samples:
        raise ValueError("no host samples")
    stamps = [stamp for stamp, _ in samples]
    out = []
    for r in requests:
        before = bisect.bisect_right(stamps, r.submitted) - 1
        after = bisect.bisect_left(stamps, r.done)
        near = [samples[i][1] for i in (before, after)
                if 0 <= i < len(samples)]
        latency = r.done - r.due
        waited = min(latency, floor_s)
        out.append((waited + (latency - waited) * ref_ms * len(near)
                    / sum(near)) * 1e3)
    return out


def steal_exposure(requests, marks) -> List[float]:
    """Steal (ms) the VM lost while each request was in flight.

    ``marks`` are ``(stamp, cumulative steal ms)`` in time order.  A
    request's exposure is the counter's growth from the last mark at or
    before it was due to the first mark at or after it completed (the
    run's first or last mark where there is none).
    """
    if not marks:
        raise ValueError("no steal marks")
    stamps = [stamp for stamp, _ in marks]
    counts = [ms for _, ms in marks]
    out = []
    for r in requests:
        before = max(bisect.bisect_right(stamps, r.due) - 1, 0)
        after = min(bisect.bisect_left(stamps, r.done), len(marks) - 1)
        out.append(counts[after] - counts[before])
    return out


def least_exposed(exposure: List[float], min_share: float) -> List[bool]:
    """Which requests the host-time figures keep: every one that saw no
    steal, and, when fewer than ``min_share`` of them did, the least
    exposed ones up to the smallest exposure that keeps that share."""
    if not exposure:
        return []
    ordered = sorted(exposure)
    limit = ordered[max(math.ceil(min_share * len(ordered)) - 1, 0)]
    return [e <= limit for e in exposure]


def due_latency(due: float, submitted: float, done: float
                ) -> Tuple[float, float]:
    """``(latency, lag)`` of one open-loop request.

    Latency runs from when the request was *due*, not from when the
    generator got round to submitting it, so a stall that delays later
    submissions is charged to the requests it delayed.  ``lag`` is how
    late the generator ran for this request.
    """
    if not due <= submitted <= done:
        raise ValueError("expected due <= submitted <= done")
    return done - due, submitted - due


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total
