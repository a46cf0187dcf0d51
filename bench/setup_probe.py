"""Set-up probe: start, import mcrl, build the workload, stop at the first env step.

    python3 bench/setup_probe.py <workload> <seed> <out_dir>

Prints ``time.monotonic()`` at the first env step of ``harness.run_seed``.
The parent reads the same system-wide clock before it spawns the probe,
so the difference covers interpreter start, ``import mcrl`` and the
seed's own set-up. The run stops there, so nothing is written.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import mcrl  # noqa: E402,F401  (import time is part of set-up)
import workloads  # noqa: E402
from mcrl import harness  # noqa: E402


class _FirstStep(Exception):
    pass


def _stop():
    raise _FirstStep


def main(argv) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    cfg = workloads.make_config(workload, seed)
    with workloads.first_step_clock(on_first=_stop) as stamp:
        try:
            harness.run_seed(cfg, seed, out_dir)
        except _FirstStep:
            pass
    print(repr(stamp["t"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
