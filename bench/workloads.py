"""The benchmark's workloads: one ``harness.RunConfig`` per name, built from a seed.

Each workload is one seed of training through ``harness.run_seed``. The
seed given on the command line becomes both ``RunConfig.seeds`` and
``env_seed``; the program only ever sees the resulting config. Why each
workload exists, and which layer metric should move it, is in README.md.
"""

from __future__ import annotations

import contextlib
import math
import time

from mcrl import harness

# One entry is one timed ``run_seed`` call (a "chunk"); a run repeats its
# chunk until the time budget is spent and reports medians over chunks.
WORKLOADS = {
    # The paper's bi-level step: the create-graph inner step, the meta-test
    # and the second-order meta-gradient into omega dominate the iteration.
    "meta_ddpg": dict(algo="ddpg", mc_variant="feature", meta_loss="clip",
                      env="pointmass", total_steps=550, warmup_steps=50,
                      eval_every=275, eval_episodes=2),
    # Same first-order autodiff, offpac and batched nets code with the
    # meta-critic bypassed; adds the squashed-Gaussian and twin-critic ops.
    "vanilla_sac": dict(algo="sac", mc_variant="none", env="pointmass",
                        total_steps=1050, warmup_steps=50, eval_every=525,
                        eval_episodes=2),
    # Collection and evaluation bound: warmup is 99% of the env steps, the
    # replay ring wraps (capacity < steps) and its contents dominate RSS.
    "collect_eval": dict(algo="ddpg", mc_variant="none", env="pendulum",
                         total_steps=100_000, warmup_steps=99_000,
                         eval_every=5000, eval_episodes=10,
                         buffer_capacity=80_000),
}


def make_config(name: str, seed: int, **overrides) -> harness.RunConfig:
    """The workload's config for one seed; ``overrides`` resize it (tests)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    fields = {**WORKLOADS[name], **overrides, "seeds": (seed,), "env_seed": seed}
    return harness.RunConfig(**fields).validate()


def scheduled_iterations(cfg: harness.RunConfig) -> int:
    """Gradient iterations the config schedules: (total - warmup) * multiplier."""
    return math.floor(max(cfg.total_steps - cfg.warmup_steps, 0) * cfg.updates_multiplier)


@contextlib.contextmanager
def first_step_clock(on_first=None):
    """Record ``time.monotonic()`` at the first env step of the next ``run_seed``.

    Wraps ``harness.make_env`` so each env it builds carries a one-shot
    instance ``step`` that stamps the time, removes itself and forwards to
    the class method. After the first call the env runs unpatched. The
    yielded dict gets the key ``"t"``; ``on_first`` runs right after the
    stamp (the set-up probe raises from it to stop the run there). The
    clock is system-wide, so a parent process can subtract its own
    reading taken before it spawned the probe.
    """
    stamp: dict[str, float] = {}
    real_make_env = harness.make_env

    def make_env(*args, **kwargs):
        env = real_make_env(*args, **kwargs)

        def step(*step_args, **step_kwargs):
            del env.step
            if "t" not in stamp:
                stamp["t"] = time.monotonic()
                if on_first is not None:
                    on_first()
            return env.step(*step_args, **step_kwargs)

        env.step = step
        return env

    harness.make_env = make_env
    try:
        yield stamp
    finally:
        harness.make_env = real_make_env
