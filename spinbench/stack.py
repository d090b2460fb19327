"""Building the serving stack from snapshot artifacts, and its first
(boot-time) request per model.

The fresh-interpreter boots (``boot.py``) and the measured process
(``run.py``) build the stack through these same functions, so the
set-up that ``setup_s`` times is the set-up the measured run serves on.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Optional

from spinbench.workloads import (
    MODELS,
    N_SAMPLES,
    Workload,
    samples_digest,
    warm_input,
    warm_rows,
)


def load_snapshots(artifacts: str) -> Dict[str, object]:
    from repro.cim.snapshot import DeploymentSnapshot

    with open(os.path.join(artifacts, "expected.json")) as fh:
        paths = json.load(fh)["paths"]
    return {name: DeploymentSnapshot.load(path)
            for name, path in paths.items()}


def expected_digests(artifacts: str) -> Dict[str, list]:
    with open(os.path.join(artifacts, "expected.json")) as fh:
        return json.load(fh)["digests"]


def build_frontend(workload: Workload, snapshots: Dict[str, object],
                   wrap: Optional[Callable] = None):
    """``serve(...)`` the workload's models from loaded snapshots.

    ``wrap(engine, model)`` may wrap each engine as it is built (the
    benchmark's recording probe); every engine is built before this
    returns, so no build is left for the first request.
    """
    from repro.serving import ModelRegistry, ServingConfig, serve

    def factory_for(model: str):
        snapshot = snapshots[model]

        def factory():
            engine = snapshot.build()
            return engine if wrap is None else wrap(engine, model)
        return factory

    if workload.closed:
        (model,) = workload.models
        config = ServingConfig(
            n_samples=N_SAMPLES, feature_shape=MODELS[model],
            replicas=workload.replicas)
        return serve(factory_for(model), backend=workload.backend,
                     config=config)
    registry = ModelRegistry()
    for model in workload.models:
        registry.register(model, factory_for(model),
                          feature_shape=MODELS[model])
        registry.engine(model)
    config = ServingConfig(
        n_samples=N_SAMPLES, registry=registry,
        default_model=workload.models[0],
        flush_interval=workload.flush_interval_s)
    return serve(None, backend=workload.backend, config=config)


def first_requests(frontend, workload: Workload) -> Dict[str, list]:
    """Serve each model's first request through a sync front-end; returns
    the samples digests per model (one per ticket), to compare with the
    artifacts' digests."""
    digests: Dict[str, list] = {}
    for model in workload.models:
        tickets = [frontend.submit(warm_input(model, warm_rows(workload), t))
                   for t in range(workload.tickets)]
        frontend.flush()
        digests[model] = [samples_digest(ticket.result().samples)
                          for ticket in tickets]
    return digests


async def first_requests_async(frontend, workload: Workload
                               ) -> Dict[str, list]:
    """:func:`first_requests` for the async front-end, which is bound to
    the event loop it first serves on."""
    digests: Dict[str, list] = {}
    for model in workload.models:
        result = await frontend.predict(
            warm_input(model, warm_rows(workload), 0), model=model)
        digests[model] = [samples_digest(result.samples)]
    return digests
