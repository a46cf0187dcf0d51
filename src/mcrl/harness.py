"""Experiment runner: seeded training runs, evaluation, curves, compare.

A run is specified by a flat key=value config (unknown keys are
rejected so typos fail before any work happens). Each seed derives five
named RNG streams from the run seed, in this order:

    env, exploration, replay-sampling, init, evaluation

so evaluation never perturbs training (the training trajectory is the
same whatever ``eval_episodes`` is), and the replay stream's draw order
within an iteration is documented in metacritic.train_iteration.

Each seed writes ``seed<k>.csv`` with columns exactly

    step,eval_return_mean,eval_return_std,loss_critic,loss_mcritic,loss_meta

(loss columns are means over the gradient iterations since the previous
evaluation row; loss_critic is the actor's critic-provided loss) and a
``seed<k>.meta.txt`` key=value metadata record. No output file is a
plot: ``smooth`` and ``max_average_return`` summarise the curves.

Divergence ends one seed, not the run. An aborted seed's metadata holds
``aborted_at_step``, ``aborted_at_iteration``, ``update_blocks`` (the
completed iterations), the ``aborted_primitive`` and ``aborted_kind``
(forward or backward) of the op that raised and ``aborted_phase``, the key
of the region it raised in: "critic", "actor", "meta", "explore" or
"greedy" (evaluation). All three are empty for a non-finite loss.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .autodiff import raised_at
from .envs import ENV_NAMES, make_env
from .metacritic import META_LOSS_KINDS, train_iteration
from .nets import MC_VARIANTS, actor_named_params, save_params
from .offpac import ALGOS, OPTIMIZERS, AlgoState, exploration_action
from .replay import ReplayBuffer

CSV_COLUMNS = ("step", "eval_return_mean", "eval_return_std",
               "loss_critic", "loss_mcritic", "loss_meta")

# warmup actions are drawn this many rows at a time
WARMUP_BLOCK = 1024


@dataclass
class RunConfig:
    """One run's settings: the one place each learner setting is named, defaulted and checked."""

    algo: str = "ddpg"                  # one of offpac.ALGOS
    mc_variant: str = "none"            # "none" or one of nets.MC_VARIANTS
    meta_loss: str = "clip"             # one of metacritic.META_LOSS_KINDS
    env: str = "pointmass"
    env_seed: int = 0
    horizon: int = 0                    # 0 -> environment default
    total_steps: int = 10_000
    eval_every: int = 1000
    eval_episodes: int = 10
    seeds: tuple = (0,)
    batch_n: int = 64                   # rows of every batch: vanilla, meta-train, meta-test
    warmup_steps: int = 1000
    buffer_capacity: int = 100_000
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    mc_lr: float = 1e-3                 # plain SGD rate for omega
    gamma: float = 0.99
    tau: float = 0.005
    expl_noise: float = 0.1             # std of exploration noise as a fraction of scale
    policy_delay: int = 2               # td3 actor/target update period
    target_noise: float = 0.2           # td3 smoothing noise std, fraction of scale
    noise_clip: float = 0.5             # td3 smoothing noise clamp, fraction of scale
    alpha: float = 0.2                  # sac entropy coefficient (fixed)
    optimizer: str = "sgd"              # "sgd" or "adam" for actor and critic
    hidden_actor: tuple = (64, 64)
    hidden_critic: tuple = (64, 64)
    mc_hidden: int = 100
    updates_multiplier: float = 1.0
    params_multiplier: float = 1.0
    snapshot_every: int = 0             # env steps between actor snapshots; 0 off
    out_dir: str = "runs"

    def validate(self) -> "RunConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or len(value.splitlines()) > 1):
                raise ValueError(f"{f.name}={value!r} cannot be written to a config file, "
                                 "which strips each value and cuts it at '#' and line breaks")
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algo {self.algo!r}")
        if self.mc_variant != "none" and self.mc_variant not in MC_VARIANTS:
            raise ValueError(f"unknown mc_variant {self.mc_variant!r}")
        if self.meta_loss not in META_LOSS_KINDS:
            raise ValueError(f"unknown meta_loss {self.meta_loss!r}")
        if self.updates_multiplier < 1.0 or self.params_multiplier < 1.0:
            raise ValueError("control multipliers must be >= 1")
        if self.updates_multiplier >= 2.0 ** 53:  # each env step would run 2**53 iterations
            raise ValueError("updates_multiplier must be < 2**53, or training never ends")
        if self.total_steps < 0 or self.eval_every < 1 or self.eval_episodes < 1:
            raise ValueError("bad step/eval settings")
        if 0 < self.total_steps < self.eval_every:
            raise ValueError("eval_every exceeds total_steps: the curve would have no rows")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.batch_n < 1:
            raise ValueError("batch_n must be >= 1")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if self.policy_delay < 1:
            raise ValueError("policy_delay must be >= 1")
        for name in ("hidden_actor", "hidden_critic"):
            widths = getattr(self, name)
            if not widths or min(widths) < 1:
                raise ValueError(f"{name} needs at least one layer, each of width >= 1")
        if not self.seeds or min(self.seeds) < 0 or self.env_seed < 0:
            raise ValueError("need at least one seed, and seeds must be >= 0")
        if len(set(self.seeds)) != len(self.seeds):  # a repeat would overwrite files
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if self.env not in ENV_NAMES:
            raise ValueError(f"unknown env {self.env!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("actor_lr", "critic_lr", "mc_lr", "expl_noise", "target_noise",
                     "noise_clip", "alpha", "horizon", "snapshot_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.mc_hidden < 1:
            raise ValueError("mc_hidden must be >= 1")
        if self.params_multiplier != 1.0:  # the width search raises if out of reach
            spec = make_env(self.env, self.env_seed, horizon=self.horizon).spec
            learner_config(self, spec.state_dim, spec.action_dim)
        return self


def _parse_value(text: str, ftype):
    """``text`` as a value of type ``ftype``, the type of the field's default."""
    text = text.strip()
    if ftype is tuple:  # every tuple field holds ints
        return tuple(int(v) for v in text.split(",") if v != "")
    if ftype is int:
        return int(text)
    if ftype is float:
        return float(text)
    return text


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value lines; '#' starts a comment; unknown keys error."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    kw = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in kw:
            raise ValueError(f"line {lineno}: config key {key!r} given twice")
        try:
            kw[key] = _parse_value(val, type(getattr(RunConfig(), key)))
        except ValueError:
            raise ValueError(f"line {lineno}: bad value for {key}: {val!r}") from None
    return RunConfig(**kw).validate()


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def config_to_text(cfg: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rng architecture
# ---------------------------------------------------------------------------

@dataclass
class Streams:
    env: np.random.Generator
    exploration: np.random.Generator
    replay: np.random.Generator
    init: np.random.Generator
    evaluation: np.random.Generator


def rng_streams(seed: int) -> Streams:
    """Named independent streams derived from one run seed."""
    children = np.random.SeedSequence(seed).spawn(5)
    gens = [np.random.Generator(np.random.PCG64(c)) for c in children]
    return Streams(*gens)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_policy(act, env, episodes: int, rng: np.random.Generator):
    """Mean and std of the undiscounted returns of ``episodes`` episodes of the policy
    ``act`` on ``env``, each ``env.spec.horizon`` steps long.

    The episodes run in lockstep on the one env, which holds no state. At each step
    ``act`` maps the (E, 1, state_dim) stack of the E episodes' states to their
    (E, 1, action_dim) actions; an actor's ``act_np`` replays its recorded greedy action
    once for the stack, and each row has the bits of its own 1-D state's action. Then
    the env steps each episode.

    Every draw comes from ``rng``, any numpy Generator, in step-major order: the E
    resets in episode order, then at each step the E env steps in episode order. Which
    draw goes to which episode changes no return's distribution; for an env that draws
    only at reset (PointMass, Pendulum) each return is also that of the E episodes run
    one after another. When several episodes overflow, the op a FloatingPointError
    names is the first one in step-major order too. No learning, no buffer writes; uses
    only the generator passed in.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    states = [env.reset(rng) for _ in range(episodes)]
    returns = [0.0] * episodes
    for _ in range(env.spec.horizon):
        actions = act(np.stack(states)[:, None])
        steps = [env.step(s, a, rng) for s, a in zip(states, actions)]
        states = [s2 for s2, _ in steps]
        returns = [total + r for total, (_, r) in zip(returns, steps)]
    returns = np.asarray(returns)
    return float(returns.mean()), float(returns.std())


# ---------------------------------------------------------------------------
# curve utilities
# ---------------------------------------------------------------------------

def smooth(series, window: int) -> np.ndarray:
    """Centered moving average, truncated at the edges; length preserved."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    out = np.empty(n)
    lo_off = (window - 1) // 2
    hi_off = window - 1 - lo_off
    for i in range(n):
        lo = max(0, i - lo_off)
        hi = min(n, i + hi_off + 1)
        out[i] = x[lo:hi].mean()
    return out


def write_curve(path: str, rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if i else str(int(v))
                              for i, v in enumerate(row)) + "\n")


def read_curve(path: str) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV schema in {path}: {header}")
        cols = {c: [] for c in CSV_COLUMNS}
        for lineno, line in enumerate(fh, 2):
            vals = line.strip().split(",")
            try:
                if len(vals) != len(CSV_COLUMNS):  # e.g. the last row of a killed run
                    raise ValueError(f"{len(vals)} fields, expected {len(CSV_COLUMNS)}")
                for c, v in zip(CSV_COLUMNS, vals):
                    cols[c].append(float(v))
            except ValueError as err:
                raise ValueError(f"{path}, line {lineno}: {err}") from None
    return {c: np.asarray(v) for c, v in cols.items()}


def write_metadata(path: str, entries: dict) -> None:
    with open(path, "w") as fh:
        for k, v in entries.items():
            fh.write(f"{k}={v}\n")


def read_metadata(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line and "=" in line:
                k, v = line.split("=", 1)
                out[k] = v
    return out


# ---------------------------------------------------------------------------
# parameter-count control ("+params")
# ---------------------------------------------------------------------------

def _dense_count(dims) -> int:
    return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


def network_param_count(cfg: RunConfig, state_dim: int, action_dim: int,
                        hidden_actor=None, hidden_critic=None) -> int:
    ha = list(hidden_actor or cfg.hidden_actor)
    hc = list(hidden_critic or cfg.hidden_critic)
    head_out = 2 * action_dim if cfg.algo == "sac" else action_dim
    actor = _dense_count([state_dim] + ha + [head_out])
    critic = _dense_count([state_dim + action_dim] + hc + [1])
    if cfg.algo in ("td3", "sac"):
        critic *= 2
    return actor + critic


def learner_config(cfg: RunConfig, state_dim: int, action_dim: int) -> RunConfig:
    """The config the learner is built from: ``cfg`` itself at params_multiplier 1, else
    ``cfg`` at multiplier 1 with its hidden widths scaled by the common factor in [1, 4]
    whose rounded widths bring the actor+critic parameter count closest to
    params_multiplier times ``cfg``'s count. Raises ValueError if that is not within 5%."""
    if cfg.params_multiplier == 1.0:
        return cfg
    target = cfg.params_multiplier * network_param_count(cfg, state_dim, action_dim)
    candidates = []
    for r1000 in range(1000, 4001):
        r = r1000 / 1000.0
        ha = tuple(max(1, round(h * r)) for h in cfg.hidden_actor)
        hc = tuple(max(1, round(h * r)) for h in cfg.hidden_critic)
        count = network_param_count(cfg, state_dim, action_dim, ha, hc)
        candidates.append((abs(count - target), ha, hc, count))
        if count > target * 1.25:
            break
    err, ha, hc, count = min(candidates, key=lambda c: c[0])  # the first of equals
    if err > 0.05 * target:
        raise ValueError(f"cannot hit parameter target within 5%: "
                         f"best {count} vs target {target:.0f}")
    return dataclasses.replace(cfg, params_multiplier=1.0, hidden_actor=ha, hidden_critic=hc)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def build_meta_state(cfg: RunConfig, env_spec, init_rng) -> AlgoState:
    return AlgoState(cfg, env_spec, init_rng)


def run_seed(cfg: RunConfig, seed: int, out_dir: str) -> dict:
    """Train one seed; writes seedK.csv / seedK.meta.txt into out_dir.

    The whole seed loop, exploration and evaluation included, runs under an
    ``np.errstate`` that raises on overflow, invalid values and division by
    zero. The first op to raise ends the seed, as does a non-finite loss
    without one (from outside numpy, such as an env state): its CSV ends in
    an all-NaN row and its metadata holds the abort record.
    """
    streams = rng_streams(seed)
    env = make_env(cfg.env, cfg.env_seed, horizon=cfg.horizon)
    spec = env.spec

    learner = learner_config(cfg, spec.state_dim, spec.action_dim)
    state = build_meta_state(learner, spec, streams.init)
    # the ring never holds more rows than the run has env steps, so a short
    # run does not allocate columns of buffer_capacity rows it never fills
    buffer = ReplayBuffer(max(1, min(cfg.buffer_capacity, cfg.total_steps)),
                          spec.state_dim, spec.action_dim)

    rows: list[tuple] = []
    acc = {"loss_critic": 0.0, "loss_mcritic": 0.0, "loss_meta": 0.0}
    acc_n = 0
    update_blocks = 0
    aborted_at = None
    aborted_op = aborted_kind = aborted_phase = ""
    snap_dir = os.path.join(out_dir, "snapshots")
    if cfg.snapshot_every > 0:
        os.makedirs(snap_dir, exist_ok=True)

    warmup = min(cfg.warmup_steps, cfg.total_steps)
    s = env.reset(streams.env)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for step in range(1, cfg.total_steps + 1):
                if step <= warmup:
                    # one draw per block: PCG64 gives an (n, action_dim) draw the doubles
                    # of n per-step draws, and the last block ends at the last warmup
                    # step, so the exploration stream is left as per-step draws leave it
                    row = (step - 1) % WARMUP_BLOCK
                    if row == 0:
                        block = streams.exploration.uniform(
                            -spec.action_bound, spec.action_bound,
                            size=(min(WARMUP_BLOCK, warmup - step + 1), spec.action_dim))
                    a = block[row]
                else:
                    a = exploration_action(state, s, streams.exploration)
                s2, r = env.step(s, a, streams.env)
                # horizon timeouts are not terminal: bootstrap through the cutoff
                buffer.push(s, a, r, s2)
                # episodes start at step 1 and end only at the horizon
                s = env.reset(streams.env) if step % spec.horizon == 0 else s2

                if step > warmup:
                    # floor((step - warmup) * m) iterations in all by the end of this step
                    due = math.floor((step - warmup) * cfg.updates_multiplier)
                    while update_blocks < due:
                        m = train_iteration(state, buffer, streams.replay)
                        if not all(math.isfinite(m[k]) for k in (
                                "loss_critic", "loss_mcritic", "loss_meta", "loss_td")):
                            raise FloatingPointError("non-finite loss")  # no op raised
                        update_blocks += 1
                        for k in acc:
                            acc[k] += m[k]
                        acc_n += 1

                if cfg.snapshot_every > 0 and step % cfg.snapshot_every == 0:
                    save_params(os.path.join(snap_dir, f"seed{seed}_step{step:08d}.txt"),
                                actor_named_params(state.actor))

                if step % cfg.eval_every == 0:
                    mean, std = evaluate_policy(state.actor.act_np, env, cfg.eval_episodes,
                                                streams.evaluation)
                    k = max(acc_n, 1)
                    rows.append((step, mean, std, acc["loss_critic"] / k,
                                 acc["loss_mcritic"] / k, acc["loss_meta"] / k))
                    acc = {key: 0.0 for key in acc}
                    acc_n = 0
    except FloatingPointError as err:
        aborted_at = step
        aborted_op, aborted_kind = raised_at(err.__traceback__)
        aborted_phase = getattr(err, "region", "")  # set by plan.replay
        rows.append((step, float("nan"), float("nan"), float("nan"), float("nan"), float("nan")))

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"seed{seed}.csv")
    write_curve(csv_path, rows)
    meta = {"code_version": __version__, "seed": seed, "env_instance_seed": cfg.env_seed,
            "update_blocks": update_blocks,
            "params_actor_critic": network_param_count(learner, spec.state_dim, spec.action_dim),
            "params_base_count": network_param_count(cfg, spec.state_dim, spec.action_dim),
            "params_hidden_actor": ",".join(map(str, learner.hidden_actor)),
            "params_hidden_critic": ",".join(map(str, learner.hidden_critic)),
            "params_formula": "hidden widths scaled by common integer-rounded factor",
            "aborted_at_step": aborted_at if aborted_at is not None else "",
            "aborted_at_iteration": state.it if aborted_at is not None else "",
            "aborted_primitive": aborted_op, "aborted_kind": aborted_kind,
            "aborted_phase": aborted_phase}
    for line in config_to_text(cfg).splitlines():
        k, v = line.split("=", 1)
        meta[f"config.{k}"] = v
    write_metadata(os.path.join(out_dir, f"seed{seed}.meta.txt"), meta)
    return {"csv": csv_path, "rows": rows, "update_blocks": update_blocks,
            "state": state, "aborted_at": aborted_at}


def _run_seed_slim(args) -> tuple:
    cfg, seed, out = args
    res = run_seed(cfg, seed, out)
    return seed, {k: v for k, v in res.items() if k != "state"}


def run(cfg: RunConfig, out_dir: str | None = None, workers: int = 1) -> dict:
    """Run every seed in the config; returns each seed's ``run_seed`` record without its ``state``.

    Seeds are independent (per-seed RNG streams and per-seed output
    files), so with workers > 1 they execute in parallel processes; the
    results are identical to a serial run.
    """
    cfg.validate()
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    jobs = [(cfg, s, out) for s in cfg.seeds]
    if workers > 1 and len(cfg.seeds) > 1:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(workers, len(cfg.seeds))) as pool:
            return dict(pool.map(_run_seed_slim, jobs))
    return dict(map(_run_seed_slim, jobs))


# ---------------------------------------------------------------------------
# summary metric and comparison
# ---------------------------------------------------------------------------

def max_average_return(curves: list[dict], window: int = 30) -> float:
    """Max over evaluation points of the across-seed mean smoothed return.

    Seeds must share evaluation steps. Smoothing the mean curve equals
    averaging per-seed smoothed curves because the smoother is linear.
    """
    if not curves:
        raise ValueError("no curves")
    steps = curves[0]["step"]
    for c in curves[1:]:
        if not np.array_equal(c["step"], steps):
            raise ValueError("curves have mismatched evaluation steps")
    if len(steps) == 0:
        raise ValueError("curves have no evaluation rows")
    mean = np.mean(np.stack([c["eval_return_mean"] for c in curves]), axis=0)
    return float(np.max(smooth(mean, window)))


def load_run_curves(run_dir: str) -> list[dict]:
    names = sorted(n for n in os.listdir(run_dir)
                   if n.startswith("seed") and n.endswith(".csv"))
    if not names:
        raise ValueError(f"no seed CSVs in {run_dir}")
    return [read_curve(os.path.join(run_dir, n)) for n in names]


def compare(dir_a: str, dir_b: str, window: int = 30) -> dict:
    """Max-average-return of two runs and their difference a - b.

    A difference, not a ratio: returns may be negative, and the ratio of
    two negative returns reads above 1 when run a is the worse one.
    """
    a = max_average_return(load_run_curves(dir_a), window)
    b = max_average_return(load_run_curves(dir_b), window)
    return {"a": a, "b": b, "difference": a - b}
