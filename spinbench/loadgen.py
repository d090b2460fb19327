"""Load generators: one closed-loop client, and an open-loop Poisson
generator on the event loop the async front-end serves on.

Both run the reference kernel (``HostLog.reference``) while the serving
stack is idle — between requests in the closed loop, in arrival gaps with
nothing queued or in flight in the open loop — and read the steal counter
(``HostLog.mark``) as each request is sent and as it completes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import sys
import time
import traceback
from typing import List, Optional, Tuple

from spinbench.hostref import HostLog
from spinbench.workloads import Workload, arrival_schedule, request_input

# Open loop: run the reference kernel only in an idle gap at least this
# long, and at most once per REF_EVERY_S.
REF_GAP_S = 0.005
REF_EVERY_S = 0.02


@dataclasses.dataclass
class Request:
    """One request as the client saw it.  Its tickets' inputs are
    ``request_input(seed, first_input + k, model, rows)``."""

    index: int
    model: str
    rows: int                 # per ticket
    first_input: int
    due: float                # perf_counter stamps
    submitted: float
    done: float
    samples: List[Optional[object]]   # per ticket; None if it failed
    phase: str

    @property
    def ok(self) -> bool:
        return all(s is not None for s in self.samples)

    @property
    def latency_s(self) -> float:
        return self.done - self.due


def _report_failure(what: str) -> None:
    print(f"spinbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def closed_loop(frontend, workload: Workload, seed: int, seconds: float,
                first_index: int, host: HostLog, phase: str,
                max_requests: Optional[int] = None
                ) -> Tuple[List[Request], int]:
    """One client: submit a request's tickets, flush, wait for every
    result, run the reference kernel, repeat until ``seconds`` pass (or
    ``max_requests`` are served).  Returns the requests and the next
    free index."""
    (model,) = workload.models
    rows = workload.rows_per_ticket
    requests: List[Request] = []
    index = first_index
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end and \
            (max_requests is None or len(requests) < max_requests):
        first_input = index * workload.tickets
        xs = [request_input(seed, first_input + k, model, rows)
              for k in range(workload.tickets)]
        host.mark()
        start = time.perf_counter()
        try:
            tickets = [frontend.submit(x) for x in xs]
            frontend.flush()
            samples = [t.result().samples for t in tickets]
        except Exception:  # noqa: BLE001 — counted as a failed request
            _report_failure(f"request {index}")
            samples = [None] * len(xs)
        done = time.perf_counter()
        host.mark()
        requests.append(Request(index, model, rows, first_input, start,
                                start, done, samples, phase))
        host.reference()
        index += 1
    return requests, index


async def open_loop(frontend, workload: Workload, seed: int,
                    seconds: float, first_index: int, host: HostLog,
                    phase: str) -> Tuple[List[Request], int]:
    """Poisson arrivals submitted when due, whatever the backlog."""
    arrivals = arrival_schedule(workload, seed, seconds, first_index)
    scheduler = frontend.frontend
    requests: List[Request] = []
    # Finished tasks leave the set at once: gathering thousands of done
    # tasks at the end would hold the loop while the last requests wait.
    tasks = set()
    t0 = time.perf_counter() + 0.005

    async def one(arrival, x, due):
        submitted = time.perf_counter()
        try:
            ticket = await frontend.submit(x, model=arrival.model)
            samples = [(await ticket.result()).samples]
        except Exception:  # noqa: BLE001 — counted as a failed request
            _report_failure(f"request {arrival.index}")
            samples = [None]
        done = time.perf_counter()
        host.mark()
        requests.append(Request(arrival.index, arrival.model, arrival.rows,
                                arrival.index, due, submitted, done,
                                samples, phase))

    last_ref = 0.0
    for arrival in arrivals:
        x = request_input(seed, arrival.index, arrival.model, arrival.rows)
        due = t0 + arrival.due
        while True:
            now = time.perf_counter()
            gap = due - now
            if gap <= 0:
                break
            if gap > REF_GAP_S and now - last_ref > REF_EVERY_S and \
                    scheduler.pending_rows == 0 and \
                    scheduler.in_flight_rows == 0:
                host.reference()
                last_ref = now
                continue
            await asyncio.sleep(gap)
        host.mark()
        task = asyncio.create_task(one(arrival, x, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    await asyncio.gather(*tasks)
    next_index = arrivals[-1].index + 1 if arrivals else first_index
    return requests, next_index
