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

Every learner setting is read from the validated ``harness.RunConfig``
the state was built with, the one place each is named and checked.

All stochasticity is drawn from the caller-provided generator in a
documented order (batch indices, then the algorithm's learning noise),
which is what makes runs reproducible and lets the meta-learning layer
reproduce this module's behaviour exactly when disabled.
"""

from __future__ import annotations

import copy
import functools
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import NumpyOps
from .envs import EnvSpec
from .nets import Actor, Critic, polyak
from .replay import Batch, ReplayBuffer

if TYPE_CHECKING:  # harness imports this module, so RunConfig is named for annotations only
    from .harness import RunConfig

ALGOS = ("ddpg", "td3", "sac")


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


class AlgoState:
    """Everything one learner owns: validated config, nets, targets, optimizers, counters."""

    def __init__(self, cfg: RunConfig, env_spec: EnvSpec, rng: np.random.Generator):
        self.cfg = cfg.validate()
        self.spec = env_spec
        head = "gaussian" if cfg.algo == "sac" else "deterministic"
        self.actor = Actor(env_spec.state_dim, env_spec.action_dim,
                           env_spec.action_bound, rng, hidden=cfg.hidden_actor,
                           head_kind=head)
        self.critic = Critic(env_spec.state_dim, env_spec.action_dim, rng,
                             hidden=cfg.hidden_critic, n_nets=1 if cfg.algo == "ddpg" else 2)
        self.target_actor = copy.deepcopy(self.actor) if cfg.algo in ("ddpg", "td3") else None
        self.target_critic = copy.deepcopy(self.critic)
        optimizer = OPTIMIZERS[cfg.optimizer]
        self.actor_opt = optimizer(self.actor.parameters(), cfg.actor_lr)
        self.critic_opt = optimizer(self.critic.parameters(), cfg.critic_lr)
        self.it = 0
        # the figures of the latest actor step, which delayed iterations repeat
        self.last_metrics = {"loss_critic": 0.0, "loss_mcritic": 0.0, "loss_meta": 0.0}

    def actor_due(self) -> bool:
        """True when this iteration performs an actor (and target) update."""
        if self.cfg.algo == "td3":
            return self.it % self.cfg.policy_delay == 0
        return True

    def critic_const_params(self) -> list[list[np.ndarray]]:
        """The critic's current values, one list per Q net."""
        return [[p.value for p in net.params] for net in self.critic.nets]

    def actor_noise(self, n: int, rng: np.random.Generator):
        """Learning-time reparameterization noise; only SAC consumes any."""
        if self.cfg.algo == "sac":
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
    sac = state.cfg.algo == "sac"
    if sac and noise is None:
        raise ValueError("sac actor loss needs reparameterization noise")
    if ops is ad:
        a, logp = state.actor.act(batch.s, noise, actor_params)
    else:  # every raw-array policy call goes through act_np, where traces count them
        a, logp = state.actor.act_np(batch.s, noise, actor_params, return_logp=True)
    qc = state.critic_const_params()
    if not sac:  # td3 trains on Q1 alone
        q, = state.critic.qs(batch.s, a, qc, ops, count=1)
        return ops.mean(ops.neg(q))
    q = state.critic.q_min(batch.s, a, qc, ops)
    return ops.mean(ops.sub(ops.scale(logp, state.cfg.alpha), q))


def actor_loss_np(state: AlgoState, batch: Batch, noise: np.ndarray | None = None,
                  params_values=None) -> float:
    """Value of ``actor_loss`` at constant parameters, on raw arrays.

    Used where no gradient will ever be taken, e.g. the detached
    baseline branch of the meta-test.
    """
    return float(actor_loss(state, batch, noise, params_values, NumpyOps))


def critic_targets(state: AlgoState, batch: Batch, rng: np.random.Generator) -> np.ndarray:
    """One-step TD regression targets; numpy only, never part of a graph."""
    h = state.cfg
    scale = state.spec.action_bound
    if h.algo == "sac":  # fresh sample from the live actor, entropy-corrected target
        noise = state.actor_noise(len(batch), rng)
        a2, logp2 = state.actor.act_np(batch.s_next, noise, return_logp=True)
    else:
        a2 = state.target_actor.act_np(batch.s_next)
    if h.algo == "td3":
        eps = rng.standard_normal(a2.shape) * (h.target_noise * scale)
        eps = np.clip(eps, -h.noise_clip * scale, h.noise_clip * scale)
        a2 = np.clip(a2 + eps, -scale, scale)
    q2 = state.target_critic.q_min(batch.s_next, a2, ops=NumpyOps)
    if h.algo == "sac":
        q2 = q2 - h.alpha * logp2
    return batch.r + h.gamma * q2


def critic_update(state: AlgoState, batch: Batch, rng: np.random.Generator) -> float:
    """One optimizer step on the mean-squared TD error; returns the loss value."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    y = ad.constant(critic_targets(state, batch, rng))
    loss = functools.reduce(ad.add, [ad.mean(ad.square(ad.sub(q, y)))
                                     for q in state.critic.qs(batch.s, batch.a)])
    value = float(ad.evaluate(loss))
    grads = ad.backward(loss, state.critic.parameters())
    state.critic_opt.step(grads)
    return value


def exploration_action(state: AlgoState, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Training-time action: noisy deterministic (ddpg/td3) or posterior sample (sac)."""
    scale = state.spec.action_bound
    if state.cfg.algo == "sac":
        noise = rng.standard_normal(state.spec.action_dim)
        a = state.actor.act_np(s, noise)
    else:
        a = state.actor.act_np(s)
        a = a + rng.standard_normal(state.spec.action_dim) * (state.cfg.expl_noise * scale)
    return np.clip(a, -scale, scale)


def apply_target_updates(state: AlgoState) -> None:
    polyak(state.target_critic.parameters(), state.critic.parameters(), state.cfg.tau)
    if state.target_actor is not None:
        polyak(state.target_actor.parameters(), state.actor.parameters(), state.cfg.tau)


def vanilla_iteration(state: AlgoState, buffer: ReplayBuffer, rng: np.random.Generator,
                      actor_step=None) -> dict:
    """One gradient iteration: critic step, (possibly delayed) actor step,
    polyak target updates. ``actor_step(batch, noise)`` replaces the plain
    actor step and returns its metrics. Draw order from ``rng``: batch
    indices, critic target noise, actor loss noise, then ``actor_step``'s."""
    if len(buffer) == 0:
        raise ValueError("empty buffer")
    state.it += 1
    batch = buffer.sample_batch(state.cfg.batch_n, rng)
    td_loss = critic_update(state, batch, rng)
    if state.actor_due():
        noise = state.actor_noise(len(batch), rng)
        if actor_step is None:
            loss = actor_loss(state, batch, noise=noise)
            value = float(ad.evaluate(loss))
            state.actor_opt.step(ad.backward(loss, state.actor.parameters()))
            state.last_metrics = {"loss_critic": value, "loss_mcritic": 0.0, "loss_meta": 0.0}
        else:
            state.last_metrics = actor_step(batch, noise)
        apply_target_updates(state)
    return {**state.last_metrics, "loss_td": td_loss}
