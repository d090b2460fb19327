"""The models and workloads the benchmark serves.

Models are fixed at seed 0 so every run serves the same programmed
fabric; the workload seed only draws inputs, arrival times and the
tenant mix.  Everything here is imported by the parent benchmark
process *and* by the fresh-interpreter boot children (``boot.py``), so
it imports ``repro`` lazily inside the functions that need it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Optional, Tuple

import numpy as np

N_SAMPLES = 20            # Monte-Carlo passes T of every request
N_CLASSES = 10
MLP_FEATURES = 256
MLP_HIDDEN = (128, 64)
IMAGE_SHAPE = (1, 16, 16)


# Every model the workloads serve, with its per-sample input shape.
MODELS: Dict[str, Tuple[int, ...]] = {
    "spindrop_mlp": (MLP_FEATURES,),
    "spinbayes": (MLP_FEATURES,),
    "cnn_nonideal": IMAGE_SHAPE,
    "cnn_ideal": IMAGE_SHAPE,
}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``backend`` is the :func:`repro.serving.serve` backend.  A closed
    loop has one client that sends its next request when the previous
    one has completed; a request there is ``tickets`` tickets of
    ``rows_per_ticket`` rows each, submitted together and flushed at
    once (two tickets let the sharded scheduler give each replica one).
    The open loop offers Poisson arrivals at ``rate_per_s`` with 1–4
    rows each and routes ``mix`` shares of them to each model
    (:func:`arrival_schedule`).
    """

    name: str
    backend: str
    models: Tuple[str, ...]
    slo_ms: float
    closed: bool
    tickets: int = 1
    rows_per_ticket: int = 0
    rate_per_s: float = 0.0
    mix: Tuple[float, ...] = ()
    max_rows: int = 4
    flush_interval_s: Optional[float] = None
    replicas: int = 1
    # energy_nj_per_row covers the first this many measured rows: few
    # enough that a closed loop on a slow host still serves them, so its
    # figure repeats exactly.  None on the open loop: every measured row,
    # so the tenant mix is the one offered.
    energy_rows: Optional[int] = 800


WORKLOADS: Dict[str, Workload] = {
    # Many tiny requests: admission, coalescing, the flush timer,
    # slicing, per-call engine overhead and RNG mask draws dominate
    # while the kernels stay small.
    "tenants-poisson": Workload(
        name="tenants-poisson", backend="async",
        models=("spindrop_mlp", "spinbayes"), slo_ms=50.0, closed=False,
        rate_per_s=100.0, mix=(0.75, 0.25), max_rows=4,
        flush_interval_s=0.002, energy_rows=None),
    # Per-pass analog route (read noise on): cim, devices and im2col do
    # the work and serving is negligible.
    "cnn-nonideal": Workload(
        name="cnn-nonideal", backend="sync", models=("cnn_nonideal",),
        slo_ms=250.0, closed=True, tickets=1, rows_per_ticket=4),
    # Pass-stacked exact-integer route behind the sharded scheduler.
    "cnn-ideal-threads": Workload(
        name="cnn-ideal-threads", backend="threads", models=("cnn_ideal",),
        slo_ms=400.0, closed=True, tickets=2, rows_per_ticket=4,
        replicas=2),
}


# ----------------------------------------------------------------------
# Models and snapshot artifacts
# ----------------------------------------------------------------------
def build_model(name: str):
    """Compile one model onto its fabric (seed 0, untrained weights)."""
    from repro.bayesian import (
        BayesianCim,
        SpinBayesNetwork,
        make_spatial_spindrop_cnn,
        make_spindrop_mlp,
        make_subset_vi_mlp,
    )
    from repro.cim import CimConfig

    if name == "spindrop_mlp":
        model = make_spindrop_mlp(MLP_FEATURES, MLP_HIDDEN, N_CLASSES,
                                  p=0.25, seed=0)
        return BayesianCim(model, CimConfig(seed=0), seed=0)
    if name == "spinbayes":
        teacher = make_subset_vi_mlp(MLP_FEATURES, MLP_HIDDEN, N_CLASSES,
                                     seed=0)
        return SpinBayesNetwork.from_subset_vi(
            teacher, n_components=8, n_levels=16,
            config=CimConfig(seed=0), seed=0)
    if name == "cnn_nonideal":
        from repro.devices.defects import DefectModel, DefectRates
        from repro.devices.variability import (
            DeviceVariability,
            VariabilityParams,
        )
        model = make_spatial_spindrop_cnn(
            1, IMAGE_SHAPE[-1], N_CLASSES, p=0.25, widths=(8, 16), seed=0)
        config = CimConfig(
            seed=0,
            variability=DeviceVariability(VariabilityParams(),
                                          rng=np.random.default_rng(0)),
            defects=DefectModel(
                DefectRates(stuck_at_p=0.005, stuck_at_ap=0.005),
                rng=np.random.default_rng(1)))
        return BayesianCim(model, config, seed=0)
    if name == "cnn_ideal":
        model = make_spatial_spindrop_cnn(
            1, IMAGE_SHAPE[-1], N_CLASSES, p=0.25, widths=(16, 32), seed=0)
        return BayesianCim(model, CimConfig(seed=0), seed=0)
    raise KeyError(f"unknown model {name!r}")


def warm_input(model: str, rows: int, ticket: int) -> np.ndarray:
    """The fixed input of one ticket of a model's first request."""
    rng = np.random.default_rng((1 << 31, list(MODELS).index(model), ticket))
    return rng.standard_normal((rows,) + MODELS[model])


def samples_digest(samples: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(samples).tobytes()).hexdigest()


def warm_rows(workload: Workload) -> int:
    return workload.rows_per_ticket if workload.closed else 2


def prepare_artifacts(workload: Workload, directory: str) -> Dict[str, str]:
    """Save every model's snapshot under ``directory`` and the digests a
    correct boot must reproduce on its first request per model.

    Returns the snapshot path of each model.  The expected digests come
    from engines built straight from the saved snapshots, one fresh
    engine per ticket because every replica (and a twin) starts from the
    snapshot's stream positions.
    """
    from repro.cim.snapshot import DeploymentSnapshot

    paths: Dict[str, str] = {}
    expected: Dict[str, list] = {}
    for name in workload.models:
        path = os.path.join(directory, name)
        DeploymentSnapshot.capture(build_model(name)).save(path)
        paths[name] = path
        snapshot = DeploymentSnapshot.load(path)
        expected[name] = [
            samples_digest(snapshot.build().mc_forward_batched(
                warm_input(name, warm_rows(workload), ticket),
                n_samples=N_SAMPLES).samples)
            for ticket in range(workload.tickets)]
    with open(os.path.join(directory, "expected.json"), "w") as fh:
        json.dump({"paths": paths, "digests": expected}, fh)
    return paths


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def request_input(seed: int, index: int, model: str, rows: int
                  ) -> np.ndarray:
    """Request ``index``'s input; regenerated verbatim for the check."""
    rng = np.random.default_rng((seed, index))
    return rng.standard_normal((rows,) + MODELS[model])


@dataclasses.dataclass
class Arrival:
    index: int
    due: float            # seconds after the start of the measurement
    model: str
    rows: int


def arrival_schedule(workload: Workload, seed: int, seconds: float,
                     start_index: int = 0):
    """Arrivals over ``seconds`` for an open-loop workload.

    A Poisson process at ``rate_per_s`` conditioned on its expected
    count, so that every seed offers the same load: ``round(rate *
    seconds)`` arrival times drawn uniformly and sorted, the tenant mix
    and the 1..``max_rows`` row counts dealt out in exact proportions (up
    to rounding) and shuffled.  The seed draws the times and the order.
    """
    rng = np.random.default_rng((seed, 1 << 30, start_index))
    n = round(workload.rate_per_s * seconds)
    times = np.sort(rng.uniform(0.0, seconds, n))
    counts = [round(share * n) for share in workload.mix[:-1]]
    models = np.repeat(np.arange(len(workload.models)),
                       counts + [n - sum(counts)])
    rows = np.resize(np.arange(1, workload.max_rows + 1), n)
    rng.shuffle(models)
    rng.shuffle(rows)
    return [Arrival(start_index + i, float(times[i]),
                    workload.models[models[i]], int(rows[i]))
            for i in range(n)]
