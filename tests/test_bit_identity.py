"""Training runs reproduce the digests pinned in ``bit_identity_digests.txt``.

The lines are ``tools/bit_identity.py``'s: each pins one seed's CSV and
final parameters, one diverging seed's abort record, or one evaluation's
returns and generator state. They are
recomputed in a subprocess that has one BLAS thread from the start, as
the tool's own run has: numpy reads the thread count when it loads, and
with more threads some matmuls sum in another order.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
LINES = Path(__file__).with_name("bit_identity_digests.txt").read_text().splitlines()
HEADER = LINES[0]  # names the numpy the lines were made with
PINNED = {line.split()[0]: line for line in LINES if line and not line.startswith("#")}
# each algo at the clip meta-loss with no, the feature and the param-reg meta-critic,
# every abort record and every evaluation line
FAST = [name for name in PINNED
        if name.endswith(("/none/clip", "/feature/clip", "/param-reg/clip"))
        or name.startswith(("diverge/", "eval/"))]


def _recompute(names: list) -> list:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    code = "import sys, bit_identity; bit_identity.main(sys.argv[1:])"
    done = subprocess.run([sys.executable, "-c", code, *names], cwd=ROOT / "tools", env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _check(names: list) -> None:
    got = _recompute(names)
    want = [PINNED[name] for name in names]
    differ = [f"  pinned:   {w}\n  computed: {g}" for w, g in zip(want, got) if w != g]
    differ += [f"  missing:  {w}" for w in want[len(got):]]
    assert not differ, (f"{len(differ)} of {len(want)} digest lines differ, computed with "
                        f"numpy {np.__version__}; pinned: {HEADER}\n" + "\n".join(differ))


def test_a_subset_of_runs_reproduces_the_pinned_digests():
    _check(FAST)


@pytest.mark.slow
def test_every_run_reproduces_the_pinned_digests():
    _check(list(PINNED))


@pytest.mark.parametrize("threads", [None, "1"])
def test_the_tool_refuses_a_numpy_loaded_without_one_blas_thread(threads):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads:
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    code = "import numpy, bit_identity; bit_identity.main(['eval/pointmass'])"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "tools", env=env,
                          capture_output=True, text=True)
    if threads:
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [PINNED["eval/pointmass"]]
    else:
        assert done.returncode != 0 and done.stdout == ""
        assert "run the tool in a fresh process" in done.stderr
