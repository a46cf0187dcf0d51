"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload meta_ddpg --seed 3 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports mcrl from ``src/``
and nothing else. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Earlier lines give the CSV digest, the failure share and
the environment; ``.bench_out/`` keeps the full record and the spans.
The exit code is 0 only when every run passed the correctness gate.
See README.md for the workloads and the metrics.
"""

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    if not (SRC / "mcrl" / "__init__.py").is_file():
        print(f"error: no mcrl source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads: seeds run one per process,
    # and on a 2-core machine BLAS threads would measure the scheduler
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import measure
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    result = measure.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    return measure.report(result)


if __name__ == "__main__":
    sys.exit(main())
