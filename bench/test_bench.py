"""Tests of the benchmark itself, at smoke size: determinism, the gate, metric names."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for _p in (str(ROOT / "src"), str(BENCH_DIR)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import measure  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mcrl import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# each keeps its workload's shape: a short warmup for the two learners,
# a wrapping replay ring and a 1% iteration share for collect_eval
SMOKE = {
    "meta_ddpg": dict(total_steps=60, warmup_steps=20, eval_every=30, eval_episodes=1),
    "vanilla_sac": dict(total_steps=60, warmup_steps=20, eval_every=30, eval_episodes=1),
    "collect_eval": dict(total_steps=1000, warmup_steps=990, eval_every=250,
                         eval_episodes=2, buffer_capacity=800),
}


def smoke_chunk(name: str, seed: int, out_dir: Path) -> measure.Chunk:
    return measure.run_chunk(workloads.make_config(name, seed, **SMOKE[name]), out_dir)


def assert_declared(metrics: dict, section: str) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(metrics) == set(declared)
    for name, entry in metrics.items():
        assert NAME_RE.fullmatch(name), name
        assert entry["unit"] == declared[name], name
        assert np.isfinite(entry["value"]), name


def test_workload_names_agree_everywhere():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(SMOKE)
    assert SPEC["command"][1] == "bench/run.py" and SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run_passes_the_gate(name, tmp_path):
    chunk = smoke_chunk(name, 1, tmp_path)
    assert chunk.problems == []
    assert chunk.lost == 0 and chunk.scheduled > 0 and chunk.wall_s > 0


@pytest.mark.parametrize("name", list(SMOKE))
def test_digest_follows_the_seed(name, tmp_path):
    first = smoke_chunk(name, 1, tmp_path / "a")
    again = smoke_chunk(name, 1, tmp_path / "b")
    other = smoke_chunk(name, 2, tmp_path / "c")
    assert first.digest == again.digest
    assert other.digest != first.digest


def test_gate_counts_an_abort_as_lost_iterations(tmp_path):
    cfg = workloads.make_config("meta_ddpg", 1, **SMOKE["meta_ddpg"])
    csv = tmp_path / "seed1.csv"
    nan = float("nan")
    harness.write_curve(str(csv), [(25, nan, nan, nan, nan, nan)])
    lost, problems = measure.check_output(cfg, {"csv": str(csv), "update_blocks": 15,
                                                "aborted_at": 25})
    assert lost == workloads.scheduled_iterations(cfg) - 14
    assert len(problems) == 4           # rows, non-finite, abort, iteration count


def test_untraced_run_prints_every_end_to_end_metric(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(measure, "OUT_DIR", tmp_path)
    monkeypatch.setattr(measure, "SETUP_RUNS", 1)
    result = measure.measure("vanilla_sac", 3, 0, trace=False, **SMOKE["vanilla_sac"])
    assert result["correct"] and result["failed"] == 0
    assert result["environment"]["threads"]
    assert_declared(result["metrics"], "end_to_end")
    assert measure.report(result) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"] == result["metrics"]


@pytest.mark.parametrize("name", ["meta_ddpg", "collect_eval"])
def test_traced_run_keeps_the_csv_and_prints_every_layer_metric(name, monkeypatch, tmp_path):
    monkeypatch.setattr(measure, "OUT_DIR", tmp_path)
    patched = [(owner, attr) for owner, attr, _ in tracer.Tracer()._patches()]
    before = [owner.__dict__[attr] for owner, attr in patched]
    result = measure.measure(name, 4, 0, trace=True, **SMOKE[name])
    assert result["correct"] and result["traced_chunks"] == 1
    assert_declared(result["metrics"], "per_layer")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["envs.step.calls"] > 0 and values["replay.push.calls"] > 0
    assert values["trace.overhead_ratio"] > 0 and values["harness.run_seed.self_s"] > 0
    meta = values["metacritic.aux_attempts"] > 0
    assert meta == (name == "meta_ddpg")
    assert (values["autodiff.backward.meta.nodes"] > 0) == meta
    assert [owner.__dict__[attr] for owner, attr in patched] == before


def test_node_counts_repeat_exactly(tmp_path):
    counts = []
    for out in ("a", "b"):
        tr = tracer.Tracer()
        with tr.installed():
            smoke_chunk("meta_ddpg", 1, tmp_path / out)
        counts.append({k: v for k, v in tr.summary(1).items() if k.endswith(".nodes")})
    assert counts[0] == counts[1] and all(v > 0 for v in counts[0].values())


def test_readme_maps_every_workload_and_metric():
    text = (BENCH_DIR / "README.md").read_text()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[section]:
            assert f"`{entry['name']}`" in text, entry["name"]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "meta_ddpg",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
