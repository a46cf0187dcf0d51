import os

import numpy as np
import pytest

from mcrl import cli, harness


CFG = """\
algo=ddpg
env=pointmass
total_steps=600
warmup_steps=100
eval_every=200
eval_episodes=2
seeds=0,1
hidden_actor=8,8
hidden_critic=8,8
snapshot_every=150
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(CFG)
    out = root / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return root, cfg_path, out


def test_run_outputs(run_dir):
    _, _, out = run_dir
    names = sorted(os.listdir(out))
    assert "seed0.csv" in names and "seed1.csv" in names
    assert "seed0.meta.txt" in names and "plot_curves.py" not in names
    curve = harness.read_curve(str(out / "seed0.csv"))
    assert len(curve["step"]) == 3


def test_eval_subcommand(run_dir, capsys):
    root, cfg_path, out = run_dir
    snap = sorted((out / "snapshots").iterdir())[-1]
    assert cli.main(["eval", "--config", str(cfg_path), "--params", str(snap),
                     "--episodes", "2"]) == 0
    printed = capsys.readouterr().out
    assert "eval_return_mean=" in printed and "eval_return_std=" in printed


def test_pca_subcommand(run_dir, capsys):
    root, _, out = run_dir
    coords = root / "coords.csv"
    assert cli.main(["pca", "--snapshots", str(out / "snapshots"),
                     "--pattern", "seed0_*.txt", "--out", str(coords)]) == 0
    lines = coords.read_text().splitlines()
    assert lines[0].startswith("# explained_variance_ratio=")
    assert lines[1] == "snapshot,x,y"
    last = lines[-1].split(",")
    assert float(last[1]) == 0.0 and float(last[2]) == 0.0


def test_surface_subcommand(run_dir):
    root, cfg_path, out = run_dir
    surf = root / "surface.csv"
    assert cli.main(["surface", "--config", str(cfg_path),
                     "--snapshots", str(out / "snapshots"),
                     "--pattern", "seed0_*.txt",
                     "--lo", "-0.5", "--hi", "0.5", "--steps", "3",
                     "--episodes", "1", "--out", str(surf)]) == 0
    rows = [l for l in surf.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 3 and all(len(r.split(",")) == 3 for r in rows)


def test_compare_subcommand(run_dir, capsys):
    _, _, out = run_dir
    assert cli.main(["compare", str(out), str(out), "--window", "3"]) == 0
    printed = capsys.readouterr().out
    assert "difference=0.0" in printed
