"""Compile a workload's models and save their snapshot artifacts.

Run by ``run.py`` as ``python3 -m spinbench.prepare --workload W
--artifacts DIR`` before anything is timed, in its own process so the
compile's memory does not count towards the serving process's peak RSS.
"""

import argparse
import sys

from spinbench.workloads import WORKLOADS, prepare_artifacts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--artifacts", required=True)
    args = parser.parse_args()
    prepare_artifacts(WORKLOADS[args.workload], args.artifacts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
