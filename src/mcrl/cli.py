"""Command-line entry points: run, eval, pca, surface, compare."""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys

import numpy as np

from . import analysis, harness, nets, offpac
from .autodiff import ShapeError
from .envs import EnvSpec, make_env


def _or_exit(prefix: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; a bad input's OSError or ValueError exits with one line."""
    try:
        return fn(*args, **kwargs)
    except (OSError, ValueError) as err:
        raise SystemExit(f"{prefix}: {err}") from None


def _check_out(path: str) -> None:
    """Exit with one line, before any work, if no file can be written at ``path``."""
    parent = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise SystemExit(f"--out: cannot write a file at {path}")


def _build_actor_for(cfg: harness.RunConfig, spec: EnvSpec) -> nets.Actor:
    learner = harness.learner_config(cfg, spec.state_dim, spec.action_dim)
    learner = dataclasses.replace(learner, mc_variant="none")  # only the actor is read: no omega
    return offpac.AlgoState(learner, spec, np.random.default_rng(0)).actor


def _load_actor_params(actor: nets.Actor, snapshot_path: str) -> None:
    named = _or_exit("snapshot", nets.load_params, snapshot_path)
    n_params = len(actor.parameters())
    if len(named) != n_params:
        raise SystemExit(f"{snapshot_path}: snapshot has {len(named)} tensors, "
                         f"actor needs {n_params}")
    try:
        actor.set_param_values([arr for _, arr in named])
    except ShapeError as err:
        raise SystemExit(f"{snapshot_path}: tensor shapes do not fit the actor: {err}") from None


def cmd_run(args) -> int:
    if args.workers < 1:
        raise SystemExit(f"--workers: must be at least 1, got {args.workers}")
    cfg = _or_exit(args.config, harness.load_config, args.config)
    if args.seed is not None:
        cfg = _or_exit("--seed", dataclasses.replace(cfg, seeds=(args.seed,)).validate)
    out = args.out or cfg.out_dir
    _or_exit("--out", os.makedirs, out, exist_ok=True)
    results = harness.run(cfg, out, workers=args.workers)
    for seed, res in results.items():
        tail = f" (aborted at step {res['aborted_at']})" if res["aborted_at"] else ""
        print(f"seed {seed}: {res['csv']} ({len(res['rows'])} rows, "
              f"{res['update_blocks']} update blocks){tail}")
    return 0


def cmd_eval(args) -> int:
    cfg = _or_exit(args.config, harness.load_config, args.config)
    rng = _or_exit("--eval-seed", np.random.default_rng, args.eval_seed)
    env = make_env(cfg.env, cfg.env_seed, horizon=cfg.horizon)
    actor = _build_actor_for(cfg, env.spec)
    _load_actor_params(actor, args.params)
    mean, std = _or_exit("eval", harness.evaluate_policy, actor.act_np, env, args.episodes, rng)
    print(f"eval_return_mean={mean!r}")
    print(f"eval_return_std={std!r}")
    return 0


def _snapshot_pca(snapshot_dir: str, pattern: str):
    """The snapshot paths matching ``pattern`` and ``pca_trajectory`` of them."""
    paths = sorted(glob.glob(os.path.join(snapshot_dir, pattern)))
    if len(paths) < 3:
        raise SystemExit(f"need at least 3 snapshots matching {pattern!r} "
                         f"in {snapshot_dir}")
    vecs = _or_exit("snapshot", analysis.load_snapshot_vectors, paths)
    return paths, _or_exit(snapshot_dir, analysis.pca_trajectory, vecs)


def cmd_pca(args) -> int:
    _check_out(args.out)
    paths, (coords, ratios, _) = _snapshot_pca(args.snapshots, args.pattern)
    with open(args.out, "w") as fh:
        fh.write("# explained_variance_ratio=" +
                 ",".join(repr(float(r)) for r in ratios) + "\n")
        fh.write("snapshot,x,y\n")
        for path, (x, y) in zip(paths, coords):
            fh.write(f"{os.path.basename(path)},{float(x)!r},{float(y)!r}\n")
    print(f"wrote {args.out} (top-2 explained variance: "
          f"{ratios[0]:.4f}, {ratios[1]:.4f})")
    return 0


def cmd_surface(args) -> int:
    _check_out(args.out)
    cfg = _or_exit(args.config, harness.load_config, args.config)
    _or_exit("--eval-seed", np.random.default_rng, args.eval_seed)  # each grid point makes one
    env = make_env(cfg.env, cfg.env_seed, horizon=cfg.horizon)
    actor = _build_actor_for(cfg, env.spec)
    if args.snapshots:
        paths, (_, _, (d1, d2)) = _snapshot_pca(args.snapshots, args.pattern)
        _load_actor_params(actor, paths[-1])
    else:
        if not (args.center and args.d1 and args.d2):
            raise SystemExit("need either --snapshots or --center/--d1/--d2")
        _load_actor_params(actor, args.center)
        d1, d2 = _or_exit("snapshot", analysis.load_snapshot_vectors, [args.d1, args.d2])
    xs = ys = _or_exit("--steps", np.linspace, args.lo, args.hi, args.steps)
    grid = _or_exit("surface", analysis.reward_surface, actor, d1, d2, xs, ys, env,
                    args.episodes, eval_seed=args.eval_seed)  # checks run first
    with open(args.out, "w") as fh:
        fh.write("# rows: y from low to high; cols: x from low to high\n")
        fh.write("# xs=" + ",".join(repr(float(v)) for v in xs) + "\n")
        fh.write("# ys=" + ",".join(repr(float(v)) for v in ys) + "\n")
        for row in grid:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {args.out} ({args.steps}x{args.steps} grid, "
          f"max {grid.max():.4f} at flat index {int(grid.argmax())})")
    return 0


def cmd_compare(args) -> int:
    res = _or_exit("compare", harness.compare, args.dir_a, args.dir_b, window=args.window)
    print(f"max_average_return[{args.dir_a}]={res['a']!r}")
    print(f"max_average_return[{args.dir_b}]={res['b']!r}")
    print(f"difference={res['difference']!r}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcrl",
        description="Off-policy actor-critic RL with an online meta-learned "
                    "auxiliary critic")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="train every seed of a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="run only this seed")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel seed processes")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("eval", help="evaluate a saved actor snapshot")
    p.add_argument("--config", required=True)
    p.add_argument("--params", required=True, help="actor snapshot file")
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--eval-seed", type=int, default=0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("pca", help="project parameter snapshots to 2-D")
    p.add_argument("--snapshots", required=True, help="directory of snapshots")
    p.add_argument("--pattern", default="*.txt")
    p.add_argument("--out", default="pca_coords.csv")
    p.set_defaults(fn=cmd_pca)

    p = sub.add_parser("surface", help="mean-return grid around an actor")
    p.add_argument("--config", required=True)
    p.add_argument("--snapshots", default=None,
                   help="snapshot dir: center = final, directions = top-2 PCA")
    p.add_argument("--pattern", default="*.txt")
    p.add_argument("--center", default=None)
    p.add_argument("--d1", default=None)
    p.add_argument("--d2", default=None)
    p.add_argument("--lo", type=float, default=-1.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--out", default="surface.csv")
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("compare", help="max-average-return of two run dirs")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.add_argument("--window", type=int, default=30)
    p.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
