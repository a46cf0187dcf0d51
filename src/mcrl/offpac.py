"""Vanilla off-policy actor-critic updates for DDPG, TD3 and SAC.

The actor is trained on the critic-provided loss:

    ddpg:  mean( -Q(s, pi(s)) )
    td3:   mean( -Q1(s, pi(s)) )
    sac:   mean( alpha * log pi(a|s) - min(Q1, Q2)(s, a) ),  a reparameterized

and the critic regresses on one-step TD targets built from target
networks. Targets are computed with ``autodiff.NumpyOps``, on raw arrays,
so they are gradient-isolated by construction; the critic enters the
actor loss through constant parameter snapshots, so the actor update
cannot move the critic either.

All stochasticity is drawn from the caller-provided generator in a
documented order (batch indices, then the algorithm's learning noise),
which is what makes runs reproducible and lets the meta-learning layer
reproduce this module's behaviour exactly when disabled.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumpyOps
from .envs import EnvSpec
from .nets import Actor, Critic, polyak
from .replay import Batch, ReplayBuffer

ALGOS = ("ddpg", "td3", "sac")


@dataclass
class Hyper:
    """Learner settings; ``harness.RunConfig`` has each field, by name and default."""

    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    gamma: float = 0.99
    tau: float = 0.005
    expl_noise: float = 0.1     # std of exploration noise as a fraction of scale
    policy_delay: int = 2       # td3 actor/target update period
    target_noise: float = 0.2   # td3 smoothing noise std, fraction of scale
    noise_clip: float = 0.5     # td3 smoothing noise clamp, fraction of scale
    alpha: float = 0.2          # sac entropy coefficient (fixed)
    optimizer: str = "sgd"      # "sgd" or "adam" for actor and critic


class Sgd:
    def __init__(self, variables, lr: float):
        self.vars = list(variables)
        self.lr = lr

    def step(self, grads) -> None:
        for v, g in zip(self.vars, grads):
            v.set_value(v.value - self.lr * g)


class Adam:
    def __init__(self, variables, lr: float, b1: float = 0.9, b2: float = 0.999,
                 eps: float = 1e-8):
        self.vars = list(variables)
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = [np.zeros_like(v.value) for v in self.vars]
        self.v = [np.zeros_like(v.value) for v in self.vars]
        self.t = 0

    def step(self, grads) -> None:
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for i, (var, g) in enumerate(zip(self.vars, grads)):
            self.m[i] = self.b1 * self.m[i] + (1.0 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1.0 - self.b2) * (g * g)
            step = self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)
            var.set_value(var.value - step)


OPTIMIZERS = {"sgd": Sgd, "adam": Adam}


def make_optimizer(kind: str, variables, lr: float):
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}")
    return OPTIMIZERS[kind](variables, lr)


class AlgoState:
    """Everything one learner owns: nets, targets, optimizers, counters."""

    def __init__(self, algo: str, env_spec: EnvSpec, rng: np.random.Generator,
                 hyper: Hyper | None = None, hidden_actor=(64, 64),
                 hidden_critic=(64, 64)):
        if algo not in ALGOS:
            raise ValueError(f"unknown algorithm {algo!r}")
        self.algo = algo
        self.spec = env_spec
        self.hyper = hyper or Hyper()
        if self.hyper.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        head = "gaussian" if algo == "sac" else "deterministic"
        twin = algo in ("td3", "sac")
        self.actor = Actor(env_spec.state_dim, env_spec.action_dim,
                           env_spec.action_bound, rng, hidden=hidden_actor,
                           head_kind=head)
        self.critic = Critic(env_spec.state_dim, env_spec.action_dim, rng,
                             hidden=hidden_critic, twin=twin)
        self.target_actor = copy.deepcopy(self.actor) if algo in ("ddpg", "td3") else None
        self.target_critic = copy.deepcopy(self.critic)
        self.actor_opt = make_optimizer(self.hyper.optimizer,
                                        self.actor.parameters(), self.hyper.actor_lr)
        self.critic_opt = make_optimizer(self.hyper.optimizer,
                                         self.critic.parameters(), self.hyper.critic_lr)
        self.it = 0
        self.last_actor_loss = 0.0

    def actor_due(self) -> bool:
        """True when this iteration performs an actor (and target) update."""
        if self.algo == "td3":
            return self.it % self.hyper.policy_delay == 0
        return True

    def critic_const_params(self):
        q1 = [p.value for p in self.critic.net.params]
        q2 = [p.value for p in self.critic.twin.params] if self.critic.twin else None
        return q1, q2

    def actor_noise(self, n: int, rng: np.random.Generator):
        """Learning-time reparameterization noise; only SAC consumes any."""
        if self.algo == "sac":
            return rng.standard_normal((n, self.spec.action_dim))
        return None


def actor_loss(state: AlgoState, batch: Batch, noise: np.ndarray | None = None,
               actor_params=None, ops=ad):
    """Critic-provided actor loss on ``ops``; critic held constant.

    A graph node by default; with ``ops=NumpyOps``, the same value as a
    numpy scalar, with no graph built.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    sac = state.algo == "sac"
    if sac and noise is None:
        raise ValueError("sac actor loss needs reparameterization noise")
    mode = "sample" if sac else "deterministic"
    if ops is ad:
        a, logp = state.actor.act(batch.s, mode, noise, actor_params)
    else:  # every raw-array policy call goes through act_np, where traces count them
        a, logp = state.actor.act_np(batch.s, mode, noise, actor_params, return_logp=True)
    q1c, q2c = state.critic_const_params()
    q = state.critic.q(batch.s, a, q1c, ops)
    if not sac:
        return ops.mean(ops.neg(q))
    q = ops.minimum(q, state.critic.q_twin(batch.s, a, q2c, ops))
    return ops.mean(ops.sub(ops.scale(logp, state.hyper.alpha), q))


def actor_loss_np(state: AlgoState, batch: Batch, noise: np.ndarray | None = None,
                  params_values=None) -> float:
    """Value of ``actor_loss`` at constant parameters, on raw arrays.

    Used where no gradient will ever be taken, e.g. the detached
    baseline branch of the meta-test.
    """
    return float(actor_loss(state, batch, noise, params_values, NumpyOps))


def critic_targets(state: AlgoState, batch: Batch, rng: np.random.Generator) -> np.ndarray:
    """One-step TD regression targets; numpy only, never part of a graph."""
    h = state.hyper
    scale = state.spec.action_bound
    critic = state.target_critic
    if state.algo == "ddpg":
        a2 = state.target_actor.act_np(batch.s_next)
        q2 = critic.q(batch.s_next, a2, ops=NumpyOps)
    elif state.algo == "td3":
        a2 = state.target_actor.act_np(batch.s_next)
        eps = rng.standard_normal(a2.shape) * (h.target_noise * scale)
        eps = np.clip(eps, -h.noise_clip * scale, h.noise_clip * scale)
        a2 = np.clip(a2 + eps, -scale, scale)
        q2 = np.minimum(critic.q(batch.s_next, a2, ops=NumpyOps),
                        critic.q_twin(batch.s_next, a2, ops=NumpyOps))
    else:  # sac: fresh sample from the live actor, entropy-corrected target
        noise = rng.standard_normal((len(batch), state.spec.action_dim))
        a2, logp2 = state.actor.act_np(batch.s_next, mode="sample", noise=noise,
                                       return_logp=True)
        q2 = np.minimum(critic.q(batch.s_next, a2, ops=NumpyOps),
                        critic.q_twin(batch.s_next, a2, ops=NumpyOps))
        q2 = q2 - h.alpha * logp2
    return batch.r + h.gamma * (1.0 - batch.done) * q2


def critic_update(state: AlgoState, batch: Batch, rng: np.random.Generator) -> float:
    """One optimizer step on the mean-squared TD error; returns the loss value."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    y = critic_targets(state, batch, rng)
    q1 = state.critic.q(batch.s, batch.a)
    loss = ad.mean(ad.square(ad.sub(q1, ad.constant(y))))
    if state.critic.twin is not None:
        q2 = state.critic.q_twin(batch.s, batch.a)
        loss = ad.add(loss, ad.mean(ad.square(ad.sub(q2, ad.constant(y)))))
    value = float(ad.evaluate(loss))
    grads = ad.backward(loss, state.critic.parameters())
    state.critic_opt.step(grads)
    return value


def exploration_action(state: AlgoState, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Training-time action: noisy deterministic (ddpg/td3) or posterior sample (sac)."""
    scale = state.spec.action_bound
    if state.algo == "sac":
        noise = rng.standard_normal(state.spec.action_dim)
        a = state.actor.act_np(s, mode="sample", noise=noise)
    else:
        a = state.actor.act_np(s)
        a = a + rng.standard_normal(state.spec.action_dim) * (state.hyper.expl_noise * scale)
    return np.clip(a, -scale, scale)


def apply_target_updates(state: AlgoState) -> None:
    tau = state.hyper.tau
    polyak(state.target_critic.net, state.critic.net, tau)
    if state.critic.twin is not None:
        polyak(state.target_critic.twin, state.critic.twin, tau)
    if state.target_actor is not None:
        polyak(state.target_actor.feature, state.actor.feature, tau)
        polyak(state.target_actor.head, state.actor.head, tau)


def vanilla_iteration(state: AlgoState, buffer: ReplayBuffer,
                      rng: np.random.Generator, batch_size: int = 64) -> dict:
    """One gradient iteration: critic step, (possibly delayed) actor step,
    polyak target updates. Draw order from ``rng``: batch indices, critic
    target noise, actor loss noise."""
    if len(buffer) == 0:
        raise ValueError("empty buffer")
    state.it += 1
    batch = buffer.sample_batch(batch_size, rng)
    td_loss = critic_update(state, batch, rng)
    if state.actor_due():
        noise = state.actor_noise(len(batch), rng)
        loss = actor_loss(state, batch, noise=noise)
        value = float(ad.evaluate(loss))
        grads = ad.backward(loss, state.actor.parameters())
        state.actor_opt.step(grads)
        state.last_actor_loss = value
        apply_target_updates(state)
    return {
        "loss_critic": state.last_actor_loss,
        "loss_td": td_loss,
        "loss_mcritic": 0.0,
        "loss_meta": 0.0,
    }
