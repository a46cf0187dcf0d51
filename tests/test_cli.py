import os
import re

import pytest

from mcrl import analysis, cli, harness, nets


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


def test_surface_rejects_identical_snapshots(run_dir):
    # identical snapshots span no direction; surface must not grid along arbitrary axes
    root, cfg_path, out = run_dir
    same = root / "same"
    same.mkdir()
    snap = sorted((out / "snapshots").glob("seed0_*.txt"))[-1]
    for k in range(3):
        (same / f"s{k}.txt").write_bytes(snap.read_bytes())
    with pytest.raises(SystemExit, match="zero variance"):
        cli.main(["surface", "--config", str(cfg_path), "--snapshots", str(same),
                  "--steps", "2", "--episodes", "1", "--out", str(root / "same.csv")])
    assert not (root / "same.csv").exists()


def test_pca_rejects_collinear_snapshots(run_dir):
    # snapshots on one line span one direction; pca exits with one line, as
    # for its other input errors, and writes nothing
    root, _, out = run_dir
    line = root / "line"
    line.mkdir()
    named = nets.load_params(sorted((out / "snapshots").glob("seed0_*.txt"))[-1])
    for k in range(5):
        nets.save_params(line / f"s{k}.txt", [(n, v * (1.0 + k)) for n, v in named])
    with pytest.raises(SystemExit, match="rank 1"):
        cli.main(["pca", "--snapshots", str(line), "--out", str(root / "line.csv")])
    assert not (root / "line.csv").exists()


def test_compare_subcommand(run_dir, capsys):
    _, _, out = run_dir
    assert cli.main(["compare", str(out), str(out), "--window", "3"]) == 0
    printed = capsys.readouterr().out
    assert "difference=0.0" in printed


def _last_snapshot(out):
    return sorted((out / "snapshots").glob("seed0_*.txt"))[-1]


def test_eval_loads_snapshots_with_the_old_tensor_names(run_dir, capsys):
    # snapshots written while the actor was two nets name their tensors
    # actor.feature.<i> and actor.head.0; values and order are the same
    root, cfg_path, out = run_dir
    snap = _last_snapshot(out)
    named = nets.load_params(snap)
    assert [n for n, _ in named] == [f"actor.{i}.{k}" for i in range(3) for k in "Wb"]
    old_names = [f"actor.feature.{i}.{k}" for i in range(2) for k in "Wb"] + \
        ["actor.head.0.W", "actor.head.0.b"]
    old = root / "old_names.txt"
    nets.save_params(old, [(n, v) for n, (_, v) in zip(old_names, named)])
    printed = []
    for path in (snap, old):
        assert cli.main(["eval", "--config", str(cfg_path), "--params", str(path),
                         "--episodes", "2"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


@pytest.fixture
def misshapen(run_dir):
    """A snapshot with the actor's tensor count whose first tensor is flattened."""
    root, _, out = run_dir
    named = nets.load_params(_last_snapshot(out))
    path = root / "misshapen.txt"
    nets.save_params(path, [(named[0][0], named[0][1].ravel())] + named[1:])
    return path


def test_eval_rejects_misshapen_snapshot(run_dir, misshapen):
    _, cfg_path, _ = run_dir
    with pytest.raises(SystemExit, match="shapes do not fit"):
        cli.main(["eval", "--config", str(cfg_path), "--params", str(misshapen)])


def test_surface_rejects_misshapen_center(run_dir, misshapen):
    root, cfg_path, out = run_dir
    snap = _last_snapshot(out)
    with pytest.raises(SystemExit, match="shapes do not fit"):
        cli.main(["surface", "--config", str(cfg_path), "--center", str(misshapen),
                  "--d1", str(snap), "--d2", str(snap), "--out", str(root / "bad.csv")])
    assert not (root / "bad.csv").exists()


def test_surface_rejects_directions_of_the_wrong_length(run_dir):
    root, cfg_path, out = run_dir
    snap = _last_snapshot(out)
    short = root / "short.txt"
    nets.save_params(short, nets.load_params(snap)[:-1])
    with pytest.raises(SystemExit, match="do not match"):
        cli.main(["surface", "--config", str(cfg_path), "--center", str(snap),
                  "--d1", str(short), "--d2", str(snap), "--out", str(root / "bad.csv")])
    assert not (root / "bad.csv").exists()


def test_surface_rejects_dependent_directions(run_dir):
    root, cfg_path, out = run_dir
    snap = _last_snapshot(out)
    double = root / "double.txt"
    nets.save_params(double, [(n, 2.0 * v) for n, v in nets.load_params(snap)])
    with pytest.raises(SystemExit, match="independent"):
        cli.main(["surface", "--config", str(cfg_path), "--center", str(snap),
                  "--d1", str(snap), "--d2", str(double), "--out", str(root / "bad.csv")])
    assert not (root / "bad.csv").exists()


@pytest.mark.parametrize("cmd", [
    ["run"],
    ["eval", "--params", "unused.txt"],
    ["surface", "--center", "unused.txt", "--d1", "unused.txt", "--d2", "unused.txt"],
])
def test_bad_config_exits_with_one_line(tmp_path, cmd):
    # a malformed number names its key and line; no traceback, no work done
    bad = tmp_path / "bad.cfg"
    bad.write_text("algo=ddpg\nenv=pointmass\nhidden_actor=8,a\n")
    with pytest.raises(SystemExit, match=r"line 3: bad value for hidden_actor: '8,a'"):
        cli.main([cmd[0], "--config", str(bad), *cmd[1:]])
    # a value parse_config reads but validate rejects
    bad.write_text("algo=ppo\n")
    with pytest.raises(SystemExit, match=r"bad\.cfg: .*algo"):
        cli.main([cmd[0], "--config", str(bad), *cmd[1:]])
    with pytest.raises(SystemExit, match="missing.cfg"):
        cli.main([cmd[0], "--config", str(tmp_path / "missing.cfg"), *cmd[1:]])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def test_run_rejects_a_negative_seed_with_one_line(run_dir, tmp_path):
    _, cfg_path, _ = run_dir
    with pytest.raises(SystemExit, match="--seed: .*seeds must be >= 0"):
        cli.main(["run", "--config", str(cfg_path), "--seed", "-1", "--out", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []


def test_run_unwritable_out_exits_with_one_line(run_dir, tmp_path):
    # a path under a regular file can never be a directory
    _, cfg_path, _ = run_dir
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(SystemExit, match="--out: .*Not a directory"):
        cli.main(["run", "--config", str(cfg_path), "--out", str(blocker / "x")])


def test_compare_bad_input_exits_with_one_line(run_dir, tmp_path):
    _, _, out = run_dir
    with pytest.raises(SystemExit, match="compare: no seed CSVs in"):
        cli.main(["compare", str(out), str(tmp_path)])
    with pytest.raises(SystemExit, match="compare: window must be >= 1"):
        cli.main(["compare", str(out), str(out), "--window", "0"])


def test_eval_rejects_zero_episodes_with_one_line(run_dir):
    _, cfg_path, out = run_dir
    with pytest.raises(SystemExit, match="eval: episodes must be >= 1"):
        cli.main(["eval", "--config", str(cfg_path), "--params", str(_last_snapshot(out)),
                  "--episodes", "0"])


@pytest.mark.parametrize("steps, message", [
    ("0", "surface: the grid needs at least one point"),
    ("-1", "--steps: .*must be non-negative"),
])
def test_surface_rejects_an_empty_grid_with_one_line(run_dir, steps, message):
    root, cfg_path, out = run_dir
    with pytest.raises(SystemExit, match=message):
        cli.main(["surface", "--config", str(cfg_path), "--snapshots", str(out / "snapshots"),
                  "--pattern", "seed0_*.txt", "--steps", steps, "--out", str(root / "bad.csv")])
    assert not (root / "bad.csv").exists()


@pytest.mark.parametrize("content, message", [
    (None, r"snapshot: .*No such file or directory: .*bad\.txt"),
    ("actor.0.b\t-\t1.0\ngarbage line\n", r"snapshot: .*bad\.txt, line 2: not a snapshot line"),
])
def test_bad_snapshot_file_exits_with_one_line(run_dir, tmp_path, content, message):
    _, cfg_path, out = run_dir
    snap, bad = str(_last_snapshot(out)), tmp_path / "bad.txt"
    if content is not None:
        bad.write_text(content)
    surface = ["surface", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")]
    for argv in (["eval", "--config", str(cfg_path), "--params", str(bad)],
                 surface + ["--center", str(bad), "--d1", snap, "--d2", snap],
                 surface + ["--center", snap, "--d1", str(bad), "--d2", snap],
                 surface + ["--center", snap, "--d1", snap, "--d2", str(bad)]):
        with pytest.raises(SystemExit, match=message):
            cli.main(argv)
    assert not (tmp_path / "s.csv").exists()


def test_pca_and_surface_exit_with_one_line_on_a_malformed_snapshot(run_dir, tmp_path):
    _, cfg_path, out = run_dir
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    for k, path in enumerate(sorted((out / "snapshots").glob("seed0_*.txt"))[-2:]):
        (snaps / f"a{k}.txt").write_bytes(path.read_bytes())
    (snaps / "b.txt").write_text("garbage line\n")
    message = r"snapshot: .*b\.txt, line 1: not a snapshot line"
    with pytest.raises(SystemExit, match=message):
        cli.main(["pca", "--snapshots", str(snaps), "--out", str(tmp_path / "p.csv")])
    with pytest.raises(SystemExit, match=message):
        cli.main(["surface", "--config", str(cfg_path), "--snapshots", str(snaps),
                  "--out", str(tmp_path / "s.csv")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snaps"]


def test_a_snapshot_with_the_wrong_tensor_count_is_named(run_dir, tmp_path):
    _, cfg_path, out = run_dir
    snap = str(_last_snapshot(out))
    short = tmp_path / "short.txt"
    nets.save_params(short, nets.load_params(snap)[:-1])
    message = r"short\.txt: snapshot has 5 tensors, actor needs 6"
    with pytest.raises(SystemExit, match=message):
        cli.main(["eval", "--config", str(cfg_path), "--params", str(short)])
    with pytest.raises(SystemExit, match=message):
        cli.main(["surface", "--config", str(cfg_path), "--center", str(short),
                  "--d1", snap, "--d2", snap, "--out", str(tmp_path / "s.csv")])
    assert not (tmp_path / "s.csv").exists()


def test_an_empty_snapshot_is_named(run_dir, tmp_path):
    _, cfg_path, out = run_dir
    snap, empty = str(_last_snapshot(out)), tmp_path / "empty.txt"
    empty.write_text("")
    surface = ["surface", "--config", str(cfg_path), "--center", snap,
               "--out", str(tmp_path / "s.csv")]
    message = r"snapshot: .*empty\.txt: the snapshot holds no tensors"
    for dirs in (["--d1", str(empty), "--d2", snap], ["--d1", snap, "--d2", str(empty)]):
        with pytest.raises(SystemExit, match=message):
            cli.main(surface + dirs)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.txt"]


@pytest.mark.parametrize("cmd", ["pca", "surface"])
def test_an_unwritable_out_exits_with_one_line_before_any_work(run_dir, tmp_path,
                                                                monkeypatch, cmd):
    _, cfg_path, out = run_dir

    def no_work(*args, **kwargs):
        raise AssertionError("snapshots were read before --out was checked")

    monkeypatch.setattr(analysis, "load_snapshot_vectors", no_work)
    argv = [cmd] + (["--config", str(cfg_path)] if cmd == "surface" else []) + [
        "--snapshots", str(out / "snapshots"), "--pattern", "seed0_*.txt"]
    for bad in (tmp_path / "missing" / "s.csv", tmp_path):
        message = re.escape(f"--out: cannot write a file at {bad}") + "$"
        with pytest.raises(SystemExit, match=message):
            cli.main(argv + ["--out", str(bad)])
    assert list(tmp_path.iterdir()) == []
