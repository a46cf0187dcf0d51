"""Print digests that pin a source tree's numerical output.

    python3 tools/bit_identity.py > digests.txt

Run it from the root of a source checkout; it imports ``mcrl`` from
``src/`` and the workload configs from ``bench/``. For each of the 24
algo x meta-critic variant x meta-loss configs, and for the benchmark's
three workloads at seed 11, it trains one seed through
``harness.run_seed`` in a temporary directory and prints one line: the
config's name, the sha256 of its seed CSV, and the sha256 of the final
actor, critic and omega parameters (``-`` without a meta-critic). Two
trees are bit-identical on these runs exactly when their outputs are
equal, so run it in both and ``diff`` the two files. The digests assume
one BLAS thread: ``main`` sets ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` to 1, which numpy obeys only if it is not loaded yet.

Then, for each algo x {none, feature} on a config that diverges (PointMass
at learning rates of 1e6, 8-wide nets, batch 8), it prints the seed's abort
record: the step, the iteration, the completed update blocks, and the
primitive and kind (forward or backward) of the op that raised.

Last come the control configs, each a digest line that also gives the
sha256 of the ``params_*`` lines of its ``seed0.meta.txt``: TD3 with Adam
at ``params_multiplier=2`` on PointMass, SAC at ``updates_multiplier=1.5``
on the tabular MDP, DDPG with the param-reg meta-critic at
``params_multiplier=1.3`` on Pendulum, and DDPG and SAC with Adam and the
feature meta-critic at the clip meta-loss on PointMass.

Then, for each environment, an ``eval/<env>`` line: one fixed seeded
actor, evaluated by ``harness.evaluate_policy`` for 10 episodes on the
environment built from seed 11 with a generator seeded 11, gives the
sha256 of the ``(mean, std)`` bytes and of the generator's final state.
These pin the evaluation's draw order, which the training runs above
cover with 2 episodes alone.

``main(names)`` prints only the lines of ``names``, in the same order;
``tests/test_bit_identity.py`` runs it that way against the pinned lines.
"""

import functools
import hashlib
import itertools
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEED = 11  # the seed the benchmark records use
EVAL_EPISODES = 10  # the episodes of each eval/<env> line

# the configs' own settings: short, but past warmup, through the meta step
# and through evaluation, at the default 64-wide nets and batch 64
SHORT = dict(env="pointmass", total_steps=300, warmup_steps=100, eval_every=150,
             eval_episodes=2, seeds=(0,))
# learning rates of 1e6 overflow the nets within a few dozen iterations
DIVERGE = dict(env="pointmass", actor_lr=1e6, critic_lr=1e6, total_steps=1500,
               warmup_steps=1000, eval_every=1500, eval_episodes=1, hidden_actor=(8, 8),
               hidden_critic=(8, 8), batch_n=8, seeds=(0,))
CONTROLS = {
    "control/td3/adam/params2/pointmass": dict(algo="td3", optimizer="adam",
                                               params_multiplier=2.0),
    "control/sac/updates1.5/tabular": dict(algo="sac", updates_multiplier=1.5, env="tabular"),
    "control/ddpg/param-reg/params1.3/pendulum": dict(algo="ddpg", mc_variant="param-reg",
                                                      params_multiplier=1.3, env="pendulum"),
    # Adam inside the meta region, named so that the tests' fast subset runs them
    "control/ddpg/adam/feature/clip": dict(algo="ddpg", optimizer="adam", mc_variant="feature"),
    "control/sac/adam/feature/clip": dict(algo="sac", optimizer="adam", mc_variant="feature"),
}


def params_sha256(variables) -> str:
    h = hashlib.sha256()
    for v in variables:
        h.update(str(v.value.shape).encode())
        h.update(v.value.tobytes())
    return h.hexdigest()


def digest_line(name: str, cfg, harness, with_params_meta: bool = False) -> str:
    with tempfile.TemporaryDirectory() as out:
        res = harness.run_seed(cfg, cfg.seeds[0], out)
        with open(res["csv"], "rb") as fh:
            csv = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(out, f"seed{cfg.seeds[0]}.meta.txt"), "rb") as fh:
            params_meta = b"".join(line for line in fh if line.startswith(b"params_"))
    state = res["state"]
    omega = "-" if state.mc is None else params_sha256(state.mc.parameters())
    line = (f"{name} csv={csv} actor={params_sha256(state.actor.parameters())} "
            f"critic={params_sha256(state.critic.parameters())} omega={omega}")
    if with_params_meta:
        line += f" params_meta={hashlib.sha256(params_meta).hexdigest()}"
    return line


def abort_line(name: str, cfg, harness) -> str:
    with tempfile.TemporaryDirectory() as out:
        harness.run_seed(cfg, cfg.seeds[0], out)
        meta = harness.read_metadata(os.path.join(out, f"seed{cfg.seeds[0]}.meta.txt"))
    return (f"{name} step={meta['aborted_at_step']} iteration={meta['aborted_at_iteration']} "
            f"blocks={meta['update_blocks']} primitive={meta['aborted_primitive']} "
            f"kind={meta['aborted_kind']}")


def eval_line(name: str, env_name: str, harness, nets) -> str:
    import numpy as np  # after main has set the BLAS thread count

    cfg = harness.RunConfig(env=env_name, env_seed=WORKLOAD_SEED)
    envs = harness.make_eval_envs(cfg, EVAL_EPISODES)
    spec = envs[0].spec
    actor = nets.Actor(spec.state_dim, spec.action_dim, spec.action_bound,
                       np.random.default_rng(WORKLOAD_SEED), hidden=(64, 64))
    rng = np.random.default_rng(WORKLOAD_SEED)
    mean_std = np.array(harness.evaluate_policy(actor.act_np, envs, rng))
    state = repr(rng.bit_generator.state).encode()
    return (f"{name} mean_std={hashlib.sha256(mean_std.tobytes()).hexdigest()} "
            f"rng={hashlib.sha256(state).hexdigest()}")


def runs():
    """``(name, line)`` for every line, in print order; ``line()`` runs its seed or evaluation."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from mcrl import envs, harness, metacritic, nets, offpac
    import workloads

    for algo, variant, loss in itertools.product(
            offpac.ALGOS, ("none", *nets.MC_VARIANTS), metacritic.META_LOSS_KINDS):
        name = f"{algo}/{variant}/{loss}"
        cfg = harness.RunConfig(algo=algo, mc_variant=variant, meta_loss=loss,
                                **SHORT).validate()
        yield name, functools.partial(digest_line, name, cfg, harness)
    for workload in workloads.WORKLOADS:
        name = f"workload/{workload}"
        cfg = workloads.make_config(workload, WORKLOAD_SEED)
        yield name, functools.partial(digest_line, name, cfg, harness)
    for algo, variant in itertools.product(offpac.ALGOS, ("none", "feature")):
        name = f"diverge/{algo}/{variant}"
        cfg = harness.RunConfig(algo=algo, mc_variant=variant, **DIVERGE).validate()
        yield name, functools.partial(abort_line, name, cfg, harness)
    for name, fields in CONTROLS.items():
        cfg = harness.RunConfig(**{**SHORT, **fields}).validate()
        yield name, functools.partial(digest_line, name, cfg, harness, with_params_meta=True)
    for env_name in envs.ENV_NAMES:
        name = f"eval/{env_name}"
        yield name, functools.partial(eval_line, name, env_name, harness, nets)


def main(names=None) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    for name, line in runs():
        if names is None or name in names:
            print(line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
