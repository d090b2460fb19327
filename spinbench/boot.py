"""One edge-device boot, timed from a fresh interpreter.

Run by ``run.py`` as ``python3 -m spinbench.boot --workload W --artifacts
DIR`` with the checkout's ``src`` on ``PYTHONPATH``.  It imports the
serving stack, loads the workload's snapshot artifacts, builds the stack,
serves each model's first request and checks it against the digests the
parent recorded.  It prints one JSON line of ``time.monotonic()`` stamps
(a system-wide clock, so the parent can subtract its own spawn stamp) and
exits non-zero if a first result is wrong.
"""

import time

T_MAIN = time.monotonic()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--artifacts", required=True)
    args = parser.parse_args()

    import repro.serving  # noqa: F401  the import an edge boot pays

    from spinbench import stack
    from spinbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    t_import = time.monotonic()
    snapshots = stack.load_snapshots(args.artifacts)
    t_load = time.monotonic()
    frontend = stack.build_frontend(workload, snapshots)
    t_build = time.monotonic()
    if workload.backend == "async":
        async def first():
            try:
                return (await stack.first_requests_async(frontend, workload),
                        time.monotonic())
            finally:
                await frontend.aclose()
        digests, t_ready = asyncio.run(first())
    else:
        digests = stack.first_requests(frontend, workload)
        t_ready = time.monotonic()
        frontend.close()
    ok = digests == stack.expected_digests(args.artifacts)
    print(json.dumps({"main": T_MAIN, "import": t_import, "load": t_load,
                      "build": t_build, "ready": t_ready, "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
