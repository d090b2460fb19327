"""Run one workload of the NeuSpin serving benchmark.

    python3 spinbench/run.py --workload cnn-nonideal --seed 1 --seconds 15 --trace 0

Prints a host fingerprint and diagnostic lines, then, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See README.md.
"""

import argparse
import os
import sys

# BLAS/OpenMP pools are pinned to one thread before NumPy is imported:
# the benchmark's own threads (at most nproc = 2) are the only
# parallelism, so a host with more cores does not change the figures.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from spinbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "serving",
                                       "api.py")):
        print("spinbench: no repro sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    from spinbench import bench
    return bench.main(args.workload, args.seed, args.seconds,
                      bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
