"""One benchmark run: set up, serve a workload, check every output, and
report the end-to-end (untraced) or per-layer (traced) metrics.

``run.py`` is the command-line entry; see README.md for the workloads,
the metrics and why the estimators are what they are.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from spinbench import check, estimators, hostref, loadgen, stack
from spinbench.tracer import ENGINE_SPAN, FLUSH_SPAN, Tracer
from spinbench.workloads import MODELS, WORKLOADS, Workload, request_input

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, "spinbench", "_work")
TRACE_ROOT = os.path.join(ROOT, "spinbench", "_traces")

N_BOOTS = 7               # fresh-interpreter boots per run; setup_s is their median
BOOT_TIMEOUT_S = 60
# Warm-up, served and checked but not measured: a fixed request count on
# the closed loops, so the measured calls start at the same RNG stream
# positions on every run and their op counts repeat exactly.
WARM_REQUESTS = 10
WARM_SECONDS = 1.0
# Host-time figures keep the requests that saw no steal in flight, and
# at least this share of them (the least exposed) in a steal storm.
MIN_KEPT_SHARE = 0.25
LEDGER_OPS = ("crossbar_cell_access", "adc_conversion", "rng_cycle",
              "dac_drive", "sa_read", "digital_mac", "digital_op")

END_TO_END = {
    "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "throughput_rows_s": "rows/s", "slo_met_frac": "fraction",
    "setup_s": "s", "peak_rss_mb": "MB", "energy_nj_per_row": "nJ/row",
}


def per_layer_units() -> Dict[str, str]:
    units = {
        "serving.queue_wait_ms_p50": "ms",
        "serving.overhead_ms_p50": "ms",
        "serving.rows_per_call": "rows",
        "serving.shard_skew_ms_p50": "ms",
        "serving.generator_lag_ms_p50": "ms",
        "engine.busy_frac": "fraction",
        "engine.self_ms_per_call": "ms",
        "engine.mask_banks_ms_per_call": "ms",
    }
    for model in MODELS:
        units[f"engine.call_ms_p50.{model}"] = "ms"
    for layer in ("CimConv2d", "CimLinear", "SpinBayesMvm", "periphery",
                  "adc", "xbar"):
        units[f"cim.{layer}.self_ms_per_call"] = "ms"
    for route in ("analog", "exact", "packed"):
        units[f"cim.mvm.{route}_per_call"] = "count"
    units.update({
        "devices.rng.self_ms_per_call": "ms",
        "devices.rng.bits_per_row": "bits/row",
        "tensor.im2col.self_ms_per_call": "ms",
        "tensor.bitpack.self_ms_per_call": "ms",
        "tensor.plan_builds_warm": "count",
        "tensor.plan_hit_ratio": "fraction",
    })
    for op in LEDGER_OPS:
        units[f"ledger.{op}_per_row"] = "ops/row"
    for phase in ("import", "load", "build", "warm"):
        units[f"setup.{phase}_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    units["host.ref_ms"] = "ms"
    return units


PER_LAYER = per_layer_units()


# ----------------------------------------------------------------------
# Set-up: artifacts and fresh-interpreter boots
# ----------------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    path = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def prepare(workload: Workload, artifacts: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "spinbench.prepare", "--workload",
         workload.name, "--artifacts", artifacts],
        cwd=ROOT, env=_child_env(), check=True, timeout=BOOT_TIMEOUT_S)


def boot(workload: Workload, artifacts: str) -> Optional[Dict[str, float]]:
    """One fresh-interpreter boot; its phases in host-normalised seconds,
    or None if it failed or served a wrong first result.

    A reference boot runs just before it, and every phase is scaled by
    ``REF_BOOT_S`` over the reference boot's time.
    """
    env = _child_env()
    scale = hostref.REF_BOOT_S / hostref.reference_boot(env, BOOT_TIMEOUT_S)
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "spinbench.boot", "--workload",
         workload.name, "--artifacts", artifacts],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=BOOT_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    stamps = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"setup": (stamps["ready"] - spawn) * scale,
            "import": (stamps["import"] - spawn) * scale,
            "load": (stamps["load"] - stamps["import"]) * scale,
            "build": (stamps["build"] - stamps["load"]) * scale,
            "warm": (stamps["ready"] - stamps["build"]) * scale}


def normalised(run, requests, phase: str) -> List[float]:
    """Host-normalised latencies (ms) of ``requests`` of one phase."""
    return estimators.normalised(
        requests, run.phase_refs(phase), hostref.REF_MS,
        run.workload.flush_interval_s or 0.0)


def kept(run, requests, phase: str) -> List[bool]:
    """Per request of one phase: is it kept in the host-time figures,
    i.e. among the least exposed to steal?  Prints how many were not."""
    exposure = estimators.steal_exposure(requests, run.host.steal)
    keep = estimators.least_exposed(exposure, MIN_KEPT_SHARE)
    marks = [ms for stamp, ms in run.host.steal
             if run.t0[phase] <= stamp <= run.t1[phase]]
    print(f"steal ({phase}): {marks[-1] - marks[0]:.0f} ms; "
          f"{sum(e > 0 for e in exposure)} of {len(requests)} requests "
          f"saw some in flight, {keep.count(False)} left out")
    return keep


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    """Everything one run measured, for the metric functions below."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.requests: List[loadgen.Request] = []
        self.host: Optional[hostref.HostLog] = None
        self.t0: Dict[str, float] = {}
        self.t1: Dict[str, float] = {}
        self.probes: List[check.ProbeEngine] = []
        self.boots: List[Dict[str, float]] = []
        self.errors: List[str] = []
        self.peak_rss_mb = 0.0
        self.plan_stats: Dict[str, Dict[str, int]] = {}
        self.tracer: Optional[Tracer] = None
        self.ticket_ok: Dict[int, bool] = {}
        self.placed = {}
        self.tickets: List[check.Ticket] = []
        self.warm_calls: Dict[int, int] = {}
        self.first_digests: Dict[str, list] = {}
        self.call_start: Dict[int, float] = {}
        self.service_s: Dict[int, float] = {}

    def phase(self, name: str) -> List[loadgen.Request]:
        return [r for r in self.requests if r.phase == name]

    def phase_refs(self, name: str) -> list:
        return [sample for sample in self.host.refs
                if self.t0[name] <= sample[0] <= self.t1[name]]


def _probe_factory(run: Run):
    replicas = collections.Counter()

    def wrap(engine, model):
        probe = check.ProbeEngine(engine, model, replicas[model])
        replicas[model] += 1
        run.probes.append(probe)
        return probe
    return wrap


def _plan_stats() -> Dict[str, int]:
    from repro.tensor.functional import conv_plan_cache_stats
    return dict(conv_plan_cache_stats())


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drive(run: Run, frontend, phases) -> None:
    """Serve the warm-up and every measured phase on one front-end.

    ``phases`` is a list of ``(name, seconds, traced)``.
    """
    workload, seed = run.workload, run.seed

    def before(name, traced):
        run.plan_stats[name] = _plan_stats()
        if traced:
            run.tracer = Tracer()
            run.tracer.install(check.ProbeEngine)
        run.t0[name] = time.perf_counter()

    def after(name, traced):
        run.t1[name] = time.perf_counter()
        if traced:
            run.tracer.uninstall()
        stats = _plan_stats()
        run.plan_stats[name] = {k: stats[k] - run.plan_stats[name][k]
                                for k in stats}

    if workload.closed:
        digests = stack.first_requests(frontend, workload)
        run.warm_calls = {id(p): len(p.calls) for p in run.probes}
        index = 0
        for name, seconds, traced in phases:
            before(name, traced)
            requests, index = loadgen.closed_loop(
                frontend, workload, seed, seconds, index, run.host, name,
                WARM_REQUESTS if name == "warm" else None)
            after(name, traced)
            run.requests += requests
        frontend.close()
    else:
        async def serve_all():
            first = await stack.first_requests_async(frontend, workload)
            run.warm_calls = {id(p): len(p.calls) for p in run.probes}
            index = 0
            try:
                for name, seconds, traced in phases:
                    before(name, traced)
                    requests, index = await loadgen.open_loop(
                        frontend, workload, seed, seconds, index, run.host,
                        name)
                    after(name, traced)
                    run.requests += requests
            finally:
                await frontend.aclose()
            return first
        digests = asyncio.run(serve_all())
    run.first_digests = digests


def execute(workload: Workload, seed: int, seconds: float, traced: bool,
            work: str) -> Run:
    run = Run(workload, seed)
    prepare(workload, work)
    expected = stack.expected_digests(work)

    def boots(n):
        for _ in range(n):
            times = boot(workload, work)
            if times is None:
                run.errors.append("a fresh-interpreter boot failed")
            else:
                run.boots.append(times)

    # Boots before and after the measured phases see more host states
    # than a burst of five would.
    boots(N_BOOTS // 2)
    snapshots = stack.load_snapshots(work)
    frontend = stack.build_frontend(workload, snapshots, _probe_factory(run))
    ref = hostref.ReferenceKernel(workload.replicas)
    run.host = hostref.HostLog(ref)
    phases = [("warm", WARM_SECONDS, False)]
    if workload.closed:
        phases = [("warm", float("inf"), False)]
    if traced:
        phases += [("measure", seconds / 2, False),
                   ("traced", seconds / 2, True)]
    else:
        phases += [("measure", seconds, False)]
    try:
        _drive(run, frontend, phases)
    finally:
        ref.close()
    # The probes' recordings grow with the requests served; they are the
    # benchmark's memory, not the serving stack's.
    run.peak_rss_mb = _peak_rss_mb() - sum(
        p.recorded_bytes() for p in run.probes) / 2 ** 20
    boots(N_BOOTS - N_BOOTS // 2)
    if run.first_digests != expected:
        run.errors.append("the in-process stack's first results differ "
                          "from the snapshot's")

    for r in run.requests:
        for k, samples in enumerate(r.samples):
            run.tickets.append(check.Ticket(
                r.index, r.model,
                request_input(seed, r.first_input + k, r.model, r.rows),
                samples))
    ok, run.placed, errors = check.check_run(
        run.probes, run.tickets, snapshots, run.warm_calls)
    run.errors += errors
    per_request = collections.defaultdict(lambda: True)
    for ticket, good in zip(run.tickets, ok):
        per_request[ticket.request] &= good
    run.ticket_ok = dict(per_request)
    # Engine time of each request, for the per-layer split: from the first
    # of its calls starting to the last ending (its tickets run in
    # parallel on the threaded backend).
    spans = {}
    for t, where in run.placed.items():
        call = where.probe.calls[where.call]
        request = run.tickets[t].request
        lo, hi = spans.get(request, (call.start, call.end))
        spans[request] = (min(lo, call.start), max(hi, call.end))
    run.call_start = {request: lo for request, (lo, _) in spans.items()}
    run.service_s = {request: hi - lo for request, (lo, hi) in spans.items()}
    return run


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _good(run: Run, request: loadgen.Request) -> bool:
    return request.ok and run.ticket_ok.get(request.index, False)


def end_to_end(run: Run) -> Dict[str, float]:
    workload = run.workload
    measured = run.phase("measure")
    t0 = run.t0["measure"]
    good = [r for r in measured if _good(run, r)]
    everyone = normalised(run, good, "measure")
    lat = [ms for ms, keep in zip(everyone, kept(run, good, "measure"))
           if keep]
    p99, q, n = estimators.tail(lat)
    raw = [r.latency_s * 1e3 for r in good]
    print(f"latency: {len(good)} good requests; host-normalised p50 "
          f"{statistics.median(lat):.4f} ms, tail p{100 * q:.2f} of {n} "
          f"samples = {p99:.4f} ms; raw p50 {statistics.median(raw):.4f} ms")
    if workload.closed:
        rows = workload.rows_per_ticket * workload.tickets * len(lat)
        throughput = rows / (sum(lat) / 1e3)
    else:
        span = run.t1["measure"] - t0
        throughput = sum(r.rows for r in good) / span
        lag = [estimators.due_latency(r.due, r.submitted, r.done)[1] * 1e3
               for r in measured]
        print(f"generator lag: p50 {statistics.median(lag):.4f} ms, "
              f"max {max(lag):.4f} ms")
    slo = sum(1 for ms in everyone if ms <= workload.slo_ms)
    _, energy, rows = _attributed(run, _energy_window(run))
    return {
        "latency_p50_ms": statistics.median(lat),
        "latency_p99_ms": p99,
        "throughput_rows_s": throughput,
        "slo_met_frac": slo / len(measured),
        "setup_s": statistics.median(b["setup"] for b in run.boots),
        "peak_rss_mb": run.peak_rss_mb,
        "energy_nj_per_row": energy * 1e9 / rows,
    }


def _energy_window(run: Run) -> List[int]:
    """Indices of the measured requests that make up the workload's first
    ``energy_rows`` rows (all of them, if fewer rows were measured or the
    workload sets no limit)."""
    limit = run.workload.energy_rows
    window, rows = [], 0
    for r in sorted(run.phase("measure"), key=lambda r: r.index):
        if limit is not None and rows >= limit:
            break
        window.append(r.index)
        rows += r.rows * len(r.samples)
    return window


def _attributed(run: Run, window) -> tuple:
    """Op counts (split by rows from each call's ledger delta), joules
    and rows of the requests in ``window``."""
    window = set(window)
    counts = collections.Counter()
    rows = 0
    for t, ticket in enumerate(run.tickets):
        if ticket.request not in window or t not in run.placed:
            continue
        call = run.placed[t].probe.calls[run.placed[t].call]
        share = ticket.x.shape[0] / call.x.shape[0]
        for op, n in call.ledger.items():
            counts[op] += n * share
        rows += ticket.x.shape[0]
    energy = check.request_energy(run.tickets, run.placed)
    return counts, sum(energy.get(i, 0.0) for i in window), rows


def _calls_in(run: Run, phase: str):
    t0, t1 = run.t0[phase], run.t1[phase]
    return [(probe, c, call) for probe in run.probes
            for c, call in enumerate(probe.calls) if t0 <= call.start <= t1]


def per_layer(run: Run) -> Dict[str, float]:
    tracer = run.tracer
    requests = [r for r in run.phase("traced") if _good(run, r)]
    calls = _calls_in(run, "traced")
    n_calls = len(calls)
    span_s = run.t1["traced"] - run.t0["traced"]
    selfs = tracer.self_times()
    counters = tracer.counters
    rows = sum(r.rows * len(r.samples) for r in requests)

    def per_call_ms(*names):
        return sum(selfs.get(n, 0.0) for n in names) * 1e3 / n_calls

    queue = [(run.call_start[r.index] - r.due) * 1e3 for r in requests]
    overhead = [r.latency_s * 1e3 - q - run.service_s[r.index] * 1e3
                for r, q in zip(requests, queue)]

    skew = []
    shards = collections.defaultdict(list)
    for span in tracer.named(ENGINE_SPAN):
        if span.parent is not None and span.parent.name == FLUSH_SPAN:
            shards[id(span.parent)].append(span.duration)
    for durations in shards.values():
        if len(durations) > 1:
            skew.append((max(durations) - min(durations)) * 1e3)

    busy = estimators.union_length([(c.start, c.end) for _, _, c in calls])
    metrics = {
        "serving.queue_wait_ms_p50": statistics.median(queue),
        "serving.overhead_ms_p50": statistics.median(overhead),
        "serving.rows_per_call": sum(c.x.shape[0] for _, _, c in calls)
        / n_calls,
        "serving.shard_skew_ms_p50": statistics.median(skew) if skew else 0.0,
        "serving.generator_lag_ms_p50": statistics.median(
            estimators.due_latency(r.due, r.submitted, r.done)[1] * 1e3
            for r in requests),
        "engine.busy_frac": busy / span_s,
        "engine.self_ms_per_call": per_call_ms(ENGINE_SPAN),
        "engine.mask_banks_ms_per_call": per_call_ms(
            "bayesian.mask_banks", "bayesian.install_banks"),
    }
    by_model = collections.defaultdict(list)
    for probe, _, call in calls:
        by_model[probe.model].append((call.end - call.start) * 1e3)
    for model in MODELS:
        metrics[f"engine.call_ms_p50.{model}"] = (
            statistics.median(by_model[model]) if by_model[model] else 0.0)
    for layer in ("CimConv2d", "CimLinear", "SpinBayesMvm", "periphery",
                  "adc"):
        metrics[f"cim.{layer}.self_ms_per_call"] = per_call_ms(f"cim.{layer}")
    metrics["cim.xbar.self_ms_per_call"] = per_call_ms(
        "cim.xbar.analog", "cim.xbar.packed")
    for route in ("analog", "exact", "packed"):
        metrics[f"cim.mvm.{route}_per_call"] = \
            counters.get(f"cim.mvm.{route}", 0) / n_calls
    plan = run.plan_stats["traced"]
    lookups = plan["hits"] + plan["builds"]
    metrics.update({
        "devices.rng.self_ms_per_call": per_call_ms("devices.rng"),
        "devices.rng.bits_per_row": counters.get("devices.rng.bits", 0)
        / rows,
        "tensor.im2col.self_ms_per_call": per_call_ms("tensor.im2col"),
        "tensor.bitpack.self_ms_per_call": per_call_ms("tensor.bitpack"),
        "tensor.plan_builds_warm": float(plan["builds"]),
        "tensor.plan_hit_ratio": plan["hits"] / lookups if lookups else 0.0,
    })
    counts, _, ledger_rows = _attributed(run, _energy_window(run))
    for op in LEDGER_OPS:
        metrics[f"ledger.{op}_per_row"] = counts.get(op, 0) / ledger_rows
    for phase in ("import", "load", "build", "warm"):
        metrics[f"setup.{phase}_s"] = statistics.median(
            b[phase] for b in run.boots)
    untraced = normalised(
        run, [r for r in run.phase("measure") if _good(run, r)], "measure")
    traced = normalised(run, requests, "traced")
    metrics["trace.overhead_frac"] = \
        statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["host.ref_ms"] = statistics.median(ms for _, ms in run.host.refs)
    return metrics


def write_trace(run: Run, path: str) -> int:
    requests_of_call = collections.defaultdict(set)
    for t, where in run.placed.items():
        key = (where.probe.model, where.probe.replica, where.call)
        requests_of_call[key].add(run.tickets[t].request)

    def requests_of(span):
        a = span.attrs
        return requests_of_call.get((a["model"], a["replica"], a["call"]),
                                    ())
    return run.tracer.write_jsonl(path, requests_of)


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    print("host: " + json.dumps(hostref.fingerprint()))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        run = execute(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = run.phase("measure") + run.phase("traced")
    failed = sum(1 for r in measured if not _good(run, r))
    for error in run.errors[:20]:
        print("check: " + error)
    if trace:
        os.makedirs(TRACE_ROOT, exist_ok=True)
        path = os.path.join(TRACE_ROOT, f"{workload.name}.jsonl")
        print(f"trace: {write_trace(run, path)} spans -> "
              f"{os.path.relpath(path, ROOT)}")
        values, units = per_layer(run), PER_LAYER
    else:
        values, units = end_to_end(run), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": not run.errors and failed == 0,
                      "attempted": len(measured), "failed": failed,
                      "metrics": metrics}))
    return 0
