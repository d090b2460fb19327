"""Recording probe engines and the output check.

Every engine the benchmark serves on is wrapped in a :class:`ProbeEngine`
that records each ``mc_forward_batched`` call: its input, its samples and
the op-ledger delta it booked.  After the run, :func:`check_run` proves
three things from the recording:

1. **Replay.**  A twin engine rebuilt from the same snapshot, fed the
   recorded inputs in the recorded order, returns bit-identical samples
   and books the identical ledger delta on every call, and ends on the
   same ledger totals as the served engine.
2. **Slicing.**  Each ticket's result equals its own rows of the engine
   call it rode in, and those rows are exactly the ticket's input.
3. **Energy.**  Per-request energy (each call's priced ledger delta split
   by rows) sums to the priced total of the engine ledgers.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

ENERGY_RTOL = 1e-9


@dataclasses.dataclass
class Call:
    """One recorded engine call."""

    x: np.ndarray
    n_samples: int
    chunk_passes: Optional[int]
    samples: np.ndarray
    ledger: Dict[str, int]      # the delta this call booked
    start: float                # perf_counter stamps
    end: float


class ProbeEngine:
    """Wraps a batched-MC engine and records every call it serves."""

    def __init__(self, engine, model: str, replica: int):
        self.engine = engine
        self.model = model
        self.replica = replica
        self.ledger = engine.ledger
        self.ledger_start = engine.ledger.as_dict()
        self.calls: List[Call] = []
        self._lock = threading.Lock()

    def mc_forward_batched(self, x, n_samples: int = 20,
                           chunk_passes: Optional[int] = None):
        before = self.ledger.as_dict()
        start = time.perf_counter()
        result = self.engine.mc_forward_batched(
            x, n_samples=n_samples, chunk_passes=chunk_passes)
        end = time.perf_counter()
        after = self.ledger.as_dict()
        delta = {op: n - before.get(op, 0) for op, n in after.items()
                 if n != before.get(op, 0)}
        with self._lock:
            self.calls.append(Call(x, n_samples,
                                   chunk_passes, result.samples, delta,
                                   start, end))
        return result

    def recorded_bytes(self) -> int:
        """Bytes of the arrays this probe holds for the check."""
        return sum(call.x.nbytes + call.samples.nbytes
                   for call in self.calls)


@dataclasses.dataclass
class Ticket:
    """What the client knows of one ticket once it has completed."""

    request: int          # the request (closed loop) it belongs to
    model: str
    x: np.ndarray
    samples: Optional[np.ndarray]     # None when the ticket failed


@dataclasses.dataclass
class Placement:
    """Where a ticket's rows sat: probe, call index, first row."""

    probe: ProbeEngine
    call: int
    row: int


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint8)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.array_equal(_bits(a), _bits(b))


def _row_key(row: np.ndarray) -> bytes:
    return np.ascontiguousarray(row.reshape(-1)[:4]).tobytes()


def place_tickets(probes: List[ProbeEngine], tickets: List[Ticket],
                  errors: List[str]) -> Dict[int, Placement]:
    """Find the call and rows each ticket rode in, by its input rows."""
    index: Dict[Tuple[str, bytes], Placement] = {}
    for probe in probes:
        for c, call in enumerate(probe.calls):
            for r in range(call.x.shape[0]):
                index.setdefault((probe.model, _row_key(call.x[r])),
                                 Placement(probe, c, r))
    placed: Dict[int, Placement] = {}
    for t, ticket in enumerate(tickets):
        where = index.get((ticket.model, _row_key(ticket.x[0])))
        if where is None:
            errors.append(f"ticket {t}: its input reached no engine call")
            continue
        rows = where.probe.calls[where.call].x[
            where.row:where.row + ticket.x.shape[0]]
        if not bit_equal(rows, ticket.x):
            errors.append(f"ticket {t}: call rows differ from its input")
            continue
        placed[t] = where
    return placed


def check_slices(tickets: List[Ticket], placed: Dict[int, Placement],
                 errors: List[str]) -> List[bool]:
    """Per ticket: does its result equal its rows of its call?"""
    ok = []
    for t, ticket in enumerate(tickets):
        where = placed.get(t)
        good = where is not None and ticket.samples is not None
        if good:
            call = where.probe.calls[where.call]
            rows = slice(where.row, where.row + ticket.x.shape[0])
            good = bit_equal(ticket.samples, call.samples[:, rows])
            if not good:
                errors.append(f"ticket {t}: result differs from its rows "
                              f"of call {where.call}")
        ok.append(good)
    return ok


def replay(probe: ProbeEngine, twin, errors: List[str]) -> None:
    """Re-run every recorded call on ``twin`` and compare bit for bit."""
    label = f"{probe.model}[{probe.replica}]"
    if twin.ledger.as_dict() != probe.ledger_start:
        errors.append(f"{label}: twin starts from another ledger")
        return
    for c, call in enumerate(probe.calls):
        before = twin.ledger.as_dict()
        result = twin.mc_forward_batched(call.x, n_samples=call.n_samples,
                                         chunk_passes=call.chunk_passes)
        after = twin.ledger.as_dict()
        delta = {op: n - before.get(op, 0) for op, n in after.items()
                 if n != before.get(op, 0)}
        if not bit_equal(result.samples, call.samples):
            errors.append(f"{label} call {c}: replayed samples differ")
            return
        if delta != call.ledger:
            errors.append(f"{label} call {c}: replayed ledger differs")
            return
    if twin.ledger.as_dict() != probe.ledger.as_dict():
        errors.append(f"{label}: ledger totals differ after replay")


def price(counts: Dict[str, int]) -> float:
    """Joules of an op-count mapping under the default energy table."""
    from repro.cim.ledger import OpLedger
    from repro.energy.model import price_ledger

    ledger = OpLedger()
    for op, n in counts.items():
        ledger.add(op, n)
    return price_ledger(ledger)[0]


def request_energy(tickets: List[Ticket], placed: Dict[int, Placement]
                   ) -> Dict[int, float]:
    """Joules per request: each call's priced delta split by rows."""
    energy: Dict[int, float] = {}
    for t, where in placed.items():
        call = where.probe.calls[where.call]
        share = tickets[t].x.shape[0] / call.x.shape[0]
        energy[tickets[t].request] = energy.get(tickets[t].request, 0.0) + \
            price(call.ledger) * share
    return energy


def check_energy(probes: List[ProbeEngine], tickets: List[Ticket],
                 placed: Dict[int, Placement], warm_calls: Dict[int, int],
                 errors: List[str]) -> None:
    """Per-request energy plus the boot calls' energy must sum to the
    priced growth of every engine ledger."""
    total = 0.0
    for probe in probes:
        end = probe.ledger.as_dict()
        total += price({op: n - probe.ledger_start.get(op, 0)
                        for op, n in end.items()})
    attributed = sum(request_energy(tickets, placed).values())
    for probe in probes:
        for call in probe.calls[:warm_calls.get(id(probe), 0)]:
            attributed += price(call.ledger)
    if abs(attributed - total) > ENERGY_RTOL * total:
        errors.append(f"per-request energy {attributed!r} J does not sum "
                      f"to the engine ledgers' {total!r} J")


def check_run(probes: List[ProbeEngine], tickets: List[Ticket],
              snapshots: Dict[str, object], warm_calls: Dict[int, int]
              ) -> Tuple[List[bool], Dict[int, Placement], List[str]]:
    """All three checks.  Returns per-ticket pass flags, placements and
    the list of errors (empty when the run is correct)."""
    errors: List[str] = []
    placed = place_tickets(probes, tickets, errors)
    ok = check_slices(tickets, placed, errors)
    check_energy(probes, tickets, placed, warm_calls, errors)
    for probe in probes:
        replay(probe, snapshots[probe.model].build(), errors)
    return ok, placed, errors
