"""The output check must pass an honest run and fail a corrupted one."""

import tempfile

import numpy as np
import pytest

from spinbench import check, stack
from spinbench.workloads import (
    N_SAMPLES,
    Workload,
    prepare_artifacts,
    request_input,
)

WORKLOAD = Workload(name="check-test", backend="sync",
                    models=("spindrop_mlp",), slo_ms=1e3, closed=True,
                    tickets=1, rows_per_ticket=3)


class CorruptingEngine:
    """Returns the engine's result with one sample value nudged."""

    def __init__(self, engine, on_call: int):
        self.engine = engine
        self.ledger = engine.ledger
        self.on_call = on_call
        self.calls = 0

    def mc_forward_batched(self, x, n_samples=20, chunk_passes=None):
        result = self.engine.mc_forward_batched(
            x, n_samples=n_samples, chunk_passes=chunk_passes)
        if self.calls == self.on_call:
            result.samples[0, 0, 0] = np.nextafter(result.samples[0, 0, 0],
                                                   2.0)
        self.calls += 1
        return result


def serve_and_check(corrupt_call=None):
    with tempfile.TemporaryDirectory() as tmp:
        prepare_artifacts(WORKLOAD, tmp)
        snapshots = stack.load_snapshots(tmp)
        probes = []

        def wrap(engine, model):
            if corrupt_call is not None:
                engine = CorruptingEngine(engine, corrupt_call)
            probe = check.ProbeEngine(engine, model, len(probes))
            probes.append(probe)
            return probe

        frontend = stack.build_frontend(WORKLOAD, snapshots, wrap)
        tickets = []
        try:
            for i in range(4):
                x = request_input(7, i, "spindrop_mlp", 3)
                result = frontend.predict(x, n_samples=N_SAMPLES)
                tickets.append(check.Ticket(i, "spindrop_mlp", x,
                                            result.samples))
        finally:
            frontend.close()
        return check.check_run(probes, tickets, snapshots, {})


def test_honest_run_passes():
    ok, placed, errors = serve_and_check()
    assert errors == []
    assert ok == [True] * 4
    assert sorted(placed) == [0, 1, 2, 3]


@pytest.mark.parametrize("call", [0, 2])
def test_corrupted_engine_output_fails(call):
    ok, _, errors = serve_and_check(corrupt_call=call)
    assert any("replayed samples differ" in e for e in errors)


def test_ticket_that_differs_from_its_call_fails():
    with tempfile.TemporaryDirectory() as tmp:
        prepare_artifacts(WORKLOAD, tmp)
        snapshots = stack.load_snapshots(tmp)
        engine = check.ProbeEngine(snapshots["spindrop_mlp"].build(),
                                   "spindrop_mlp", 0)
        x = request_input(7, 0, "spindrop_mlp", 3)
        samples = engine.mc_forward_batched(x, n_samples=N_SAMPLES).samples
        wrong = samples.copy()
        wrong[1, 2, 3] += 1e-12
        tickets = [check.Ticket(0, "spindrop_mlp", x, wrong)]
        ok, _, errors = check.check_run([engine], tickets, snapshots, {})
    assert ok == [False]
    assert any("differs from its rows" in e for e in errors)


def test_energy_that_does_not_add_up_fails():
    with tempfile.TemporaryDirectory() as tmp:
        prepare_artifacts(WORKLOAD, tmp)
        snapshots = stack.load_snapshots(tmp)
        engine = check.ProbeEngine(snapshots["spindrop_mlp"].build(),
                                   "spindrop_mlp", 0)
        x = request_input(7, 0, "spindrop_mlp", 3)
        samples = engine.mc_forward_batched(x, n_samples=N_SAMPLES).samples
        engine.ledger.add("adc_conversion", 1000)   # booked by no call
        tickets = [check.Ticket(0, "spindrop_mlp", x, samples)]
        _, _, errors = check.check_run([engine], tickets, snapshots, {})
    assert any("does not sum" in e for e in errors)
