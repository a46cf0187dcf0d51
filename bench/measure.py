"""Measure one workload for one seed; the body of ``bench/run.py``.

A run repeats the workload's ``harness.run_seed`` call (a chunk) in this
process until the time budget is spent, checks every chunk's output, and
reports totals and medians over chunks. Untraced (``trace=False``) it
reports the end-to-end metrics, timing set-up in a fresh interpreter
before each chunk; traced it alternates untraced and traced chunks of the
same seed, requires their CSVs to be byte-identical and reports the
per-layer metrics.

Times are adjusted to a fixed machine speed. Co-tenants on the shared
cores slow this process by up to a factor of three for seconds to minutes
at a time, with the process running all along (CPU time tracks wall
time). A fixed numpy loop that shares no code with mcrl is timed right
before and right after each chunk, and every chunk's time is scaled by
the loop's measured rate over its nominal rate. On the 2-vCPU machine the
benchmark was sized on, this cut the spread of throughput between ten
30-second runs from 21%, 13% and 8% to 6%, 5% and 3% (collect_eval,
vanilla_sac, meta_ddpg; quartile distance over median).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads
from mcrl import harness

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"env_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_RUNS = 5
PROBE_TIMEOUT_S = 60
REF_SECONDS = 0.12
# the reference loop's rate on an uncontended 2.1 GHz Xeon vCPU; adjusted
# times read as if the machine ran the loop at this rate
REF_UNITS_PER_S = 25_000.0


@dataclass
class Chunk:
    """One checked ``run_seed`` call."""

    scheduled: int
    lost: int = 0
    wall_s: float = float("nan")        # first env step to return
    ref_rate: float = float("nan")      # reference loop, around the chunk
    digest: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Machine speed around this chunk, relative to the nominal one."""
        return self.ref_rate / REF_UNITS_PER_S

    @property
    def adjusted_s(self) -> float:
        """``wall_s`` as it would read at the nominal machine speed."""
        return self.wall_s * self.speed


def reference_rate() -> float:
    """Units per second of a fixed numpy loop that shares no code with mcrl."""
    rng = np.random.default_rng(0)
    w, x, b = (rng.standard_normal((64, 64)), rng.standard_normal((64, 64)),
               rng.standard_normal(64))
    units = 0
    start = time.perf_counter()
    while True:
        for _ in range(10):
            h = np.tanh(x @ w + b)
            (1.0 - h * h) @ w.T
        units += 10
        elapsed = time.perf_counter() - start
        if elapsed >= REF_SECONDS:
            return units / elapsed


def check_output(cfg: harness.RunConfig, res: dict) -> tuple[int, list[str]]:
    """The correctness gate for one seed: (iterations lost, problems found).

    Reads the CSV back and checks its row count, that every value is
    finite, that every scheduled iteration ran and that nothing aborted.
    """
    scheduled = workloads.scheduled_iterations(cfg)
    problems = []
    curve = harness.read_curve(res["csv"])
    rows = len(curve["step"])
    if rows != cfg.total_steps // cfg.eval_every:
        problems.append(f"{rows} CSV rows, expected {cfg.total_steps // cfg.eval_every}")
    if not all(np.isfinite(col).all() for col in curve.values()):
        problems.append("non-finite value in the CSV")
    done = res["update_blocks"]
    if res["aborted_at"] is not None:
        problems.append(f"aborted at env step {res['aborted_at']}")
        done -= 1                       # the iteration that went bad
    if res["update_blocks"] != scheduled:
        problems.append(f"{res['update_blocks']} iterations ran, {scheduled} scheduled")
    return min(max(scheduled - done, 0), scheduled), problems


def run_chunk(cfg: harness.RunConfig, out_dir: Path) -> Chunk:
    """Run and check one seed; a failure is recorded, never raised."""
    chunk = Chunk(scheduled=workloads.scheduled_iterations(cfg))
    seed = cfg.seeds[0]
    gc.collect()                        # start from a clean heap, as a fresh seed would
    ref_before = reference_rate()
    with workloads.first_step_clock() as stamp:
        try:
            res = harness.run_seed(cfg, seed, str(out_dir))
        except Exception:               # one seed's failure is a result, not a crash
            chunk.lost = chunk.scheduled
            chunk.problems.append("run_seed raised:\n" + traceback.format_exc())
            return chunk
        end = time.monotonic()
    chunk.ref_rate = (ref_before + reference_rate()) / 2
    chunk.wall_s = end - stamp["t"]
    chunk.digest = hashlib.sha256(Path(res["csv"]).read_bytes()).hexdigest()
    chunk.lost, chunk.problems = check_output(cfg, res)
    return chunk


def setup_time(workload: str, seed: int, out_dir: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first env step."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
                           str(seed), str(out_dir)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1]) - start


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    try:
        # the ceiling keeps git from taking HEAD of a repository around ROOT
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    """What the numbers depend on besides the code: versions, BLAS, threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):       # numpy without the dict form
        blas = {"name": "unknown"}
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def measure(workload: str, seed: int, seconds: float, trace: bool, **overrides) -> dict:
    """Run one workload for ``seconds`` and return the full result record.

    ``overrides`` resize the workload's config (the tests use it).
    """
    out_dir = OUT_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
    cfg = workloads.make_config(workload, seed, **overrides)
    chunks, traced, setup = [], [], []
    tracer = tracing.Tracer() if trace else None
    try:
        deadline = time.perf_counter() + seconds
        while True:
            if tracer is None:          # spread over the run, like the chunks
                setup.append(setup_time(workload, seed, out_dir))
            chunks.append(run_chunk(cfg, out_dir))
            if tracer is not None and not chunks[-1].problems:
                with tracer.installed():
                    traced.append(run_chunk(cfg, out_dir))
            if any(c.problems for c in chunks + traced):
                break
            if time.perf_counter() >= deadline and len(setup) >= (0 if trace else SETUP_RUNS):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}.tsv")

    problems = [p for c in chunks + traced for p in c.problems]
    digests = {c.digest for c in chunks + traced if c.digest is not None}
    if len({c.digest for c in chunks}) > 1:
        problems.append(f"untraced runs of one seed wrote different CSVs: {sorted(digests)}")
    elif traced and digests != {chunks[0].digest}:
        problems.append(f"the traced run changed the CSV: {sorted(digests)}")
    ok = not problems
    units = tracing.metric_units() if trace else END_TO_END_UNITS
    metrics = dict.fromkeys(units, 0.0)       # what a failed run reports
    unadjusted = {}
    if ok and trace:
        metrics.update(tracer.summary(len(traced)))
        metrics["trace.overhead_ratio"] = (statistics.median(c.adjusted_s for c in traced)
                                           / statistics.median(c.adjusted_s for c in chunks))
    elif ok:
        steps = cfg.total_steps * len(chunks)
        metrics["env_steps_per_s"] = steps / sum(c.adjusted_s for c in chunks)
        # each probe ran just before its chunk's first reference timing
        metrics["setup_s"] = statistics.median(t * c.speed for t, c in zip(setup, chunks))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        unadjusted = {"env_steps_per_s": steps / sum(c.wall_s for c in chunks),
                      "setup_s": statistics.median(setup)}
    attempted = sum(c.scheduled for c in chunks + traced)
    failed = sum(c.lost for c in chunks + traced)
    return {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "correct": ok, "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted if attempted else 1.0,
        "problems": problems,
        "csv_sha256": chunks[0].digest if chunks else None,
        "chunks": len(chunks), "traced_chunks": len(traced),
        "chunk_wall_s": [c.wall_s for c in chunks],
        "chunk_speed": [c.speed for c in chunks],
        "traced_chunk_wall_s": [c.wall_s for c in traced],
        "traced_chunk_speed": [c.speed for c in traced],
        "setup_s_samples": setup,
        "unadjusted": unadjusted,
        "environment": environment(),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def report(result: dict) -> int:
    """Print the record, the last line being the one-line result JSON; exit code."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"# FAILED: {problem}", file=sys.stderr)
    print(f"# {stem}: {result['chunks']} chunks, {result['traced_chunks']} traced")
    print(f"# csv_sha256 {result['csv_sha256']}")
    print(f"# fail_share {result['fail_share']} ({result['failed']}/{result['attempted']})")
    if result["correct"]:
        print(f"# machine speed {statistics.median(result['chunk_speed']):.3f} of nominal; "
              "unadjusted " + json.dumps(result["unadjusted"], sort_keys=True))
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1
