"""Vanilla off-policy actor-critic updates for DDPG, TD3 and SAC.

The actor is trained on the critic-provided loss:

    ddpg:  mean( -Q(s, pi(s)) )
    td3:   mean( -Q1(s, pi(s)) )
    sac:   mean( alpha * log pi(a|s) - min(Q1, Q2)(s, a) ),  a reparameterized

and the critic regresses on one-step TD targets built from target
networks. Both run on the graph, inside recorded regions (see
``plan.replay``). The targets are a value computed from constant
parameters, so they are gradient-isolated by construction; the critic
enters the actor loss through constant parameter snapshots, so the
actor update cannot move the critic either.

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
from . import plan
from .autodiff import Variable
from .envs import EnvSpec
from .nets import Actor, Critic, MetaCriticNet, polyak
from .replay import Batch, ReplayBuffer

if TYPE_CHECKING:  # harness imports this module, so RunConfig is named for annotations only
    from .harness import RunConfig

ALGOS = ("ddpg", "td3", "sac")


class Sgd:
    def __init__(self, variables, lr: float):
        self.vars = self.writes = list(variables)
        self.lr = lr

    def reads(self) -> list:
        """The arrays a step reads besides its gradients; it gives the next values of ``writes``."""
        return [v.value for v in self.writes]

    def step(self, grads) -> list:
        return [ad.evaluate(ad.sub(v, ad.scale(g, self.lr))) for v, g in zip(self.vars, grads)]


class Adam:
    B1, B2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults

    def __init__(self, variables, lr: float):
        self.vars = list(variables)
        self.lr = lr
        self.m = [Variable(np.zeros_like(v.value), f"{v.name}.m") for v in self.vars]
        self.v = [Variable(np.zeros_like(v.value), f"{v.name}.v") for v in self.vars]
        self.writes = self.vars + self.m + self.v
        self.t = 0

    def reads(self) -> list:
        """Begins a step: counts it, and adds its 0-d bias corrections to the arrays it reads."""
        self.t += 1
        self.bias = [np.array(1.0 - self.B1 ** self.t), np.array(1.0 - self.B2 ** self.t)]
        return [x.value for x in self.writes] + self.bias

    def step(self, grads) -> list:
        (c1, c2), eps = self.bias, ad.full((), self.EPS)
        ms = [ad.add(ad.scale(m, self.B1), ad.scale(g, 1.0 - self.B1))
              for m, g in zip(self.m, grads)]
        vs = [ad.add(ad.scale(v, self.B2), ad.scale(ad.square(g), 1.0 - self.B2))
              for v, g in zip(self.v, grads)]
        nxt = [ad.sub(x, ad.div(ad.scale(ad.div(m, c1), self.lr),
                                ad.add(ad.sqrt(ad.div(v, c2)), eps)))
               for x, m, v in zip(self.vars, ms, vs)]
        return [ad.evaluate(x) for x in nxt + ms + vs]


OPTIMIZERS = {"sgd": Sgd, "adam": Adam}


class AlgoState:
    """Everything one learner owns: validated config, nets, targets, optimizers, counters.

    The auxiliary loss network omega (``mc``) and its SGD step (``mc_opt``)
    are drawn last from ``rng``; both are None when ``mc_variant`` is "none".
    """

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
        self.targets = self.target_critic.parameters() + (  # what apply_target_updates blends
            self.target_actor.parameters() if self.target_actor else [])
        optimizer = OPTIMIZERS[cfg.optimizer]
        self.actor_opt = optimizer(self.actor.parameters(), cfg.actor_lr)
        self.critic_opt = optimizer(self.critic.parameters(), cfg.critic_lr)
        self.mc = self.mc_opt = None
        if cfg.mc_variant != "none":
            self.mc = MetaCriticNet(cfg.mc_variant, self.actor, rng, hidden=cfg.mc_hidden)
            self.mc_opt = Sgd(self.mc.parameters(), cfg.mc_lr)
        self.it = 0
        self.plans: dict[str, plan.Plan] = {}  # the recorded regions, by name
        # the figures of the latest actor step, which delayed iterations repeat
        self.last_metrics = {"loss_critic": 0.0, "loss_mcritic": 0.0, "loss_meta": 0.0}

    def actor_due(self) -> bool:
        """True when this iteration performs an actor (and target) update."""
        if self.cfg.algo == "td3":
            return self.it % self.cfg.policy_delay == 0
        return True

    def td_policy(self) -> Actor:
        """The TD target's policy: the target actor, or the live one for sac, which has none."""
        return self.target_actor or self.actor

    def critic_const_params(self) -> list[list[np.ndarray]]:
        """The critic's current values, one list per Q net."""
        return [[p.value for p in net.params] for net in self.critic.nets]

    def actor_noise(self, n: int, rng: np.random.Generator):
        """Learning-time reparameterization noise; only SAC consumes any."""
        if self.cfg.algo == "sac":
            return rng.standard_normal((n, self.spec.action_dim))
        return None


def actor_loss(state: AlgoState, batch: Batch, noise: np.ndarray | None = None,
               actor_params=None) -> ad.Node:
    """Critic-provided actor loss, a graph scalar; critic held constant."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    sac = state.cfg.algo == "sac"
    if sac and noise is None:
        raise ValueError("sac actor loss needs reparameterization noise")
    a, logp = state.actor.act(batch.s, noise, actor_params)
    qc = state.critic_const_params()
    if not sac:  # td3 trains on Q1 alone
        q, = state.critic.qs(batch.s, a, qc, count=1)
        return ad.mean(ad.neg(q))
    q = state.critic.q_min(batch.s, a, qc)
    return ad.mean(ad.sub(ad.scale(logp, state.cfg.alpha), q))


def actor_loss_np(state: AlgoState, batch: Batch, noise: np.ndarray | None = None,
                  params_values=None) -> np.float64:
    """Value of ``actor_loss`` at constant parameters.

    Used where no gradient will ever be taken, e.g. the detached
    baseline branch of the meta-test.
    """
    return ad.evaluate(actor_loss(state, batch, noise, params_values))


def critic_targets(state: AlgoState, batch: Batch, noise: np.ndarray | None) -> np.ndarray:
    """One-step TD regression targets, on the graph from constant parameter values.

    ``noise`` is the target-policy noise that ``critic_update`` draws,
    None for ddpg. Returns the targets' value, which no gradient reaches.
    """
    h = state.cfg
    scale = state.spec.action_bound
    sac = h.algo == "sac"

    def values(net):
        return [p.value for p in net.params]

    policy = state.td_policy()
    a2, logp2 = policy.act(batch.s_next, noise if sac else None, values(policy.net))
    if h.algo == "td3":
        eps = ad.clip(ad.scale(noise, h.target_noise * scale),
                      -h.noise_clip * scale, h.noise_clip * scale)
        a2 = ad.clip(ad.add(a2, eps), -scale, scale)
    q2 = state.target_critic.q_min(batch.s_next, a2, [values(q) for q in state.target_critic.nets])
    if sac:  # entropy-corrected target
        q2 = ad.sub(q2, ad.scale(logp2, h.alpha))
    return ad.evaluate(ad.add(batch.r, ad.scale(q2, h.gamma)))


def descend(state: AlgoState, key: str, opt, loss, reads: list, blend: bool = False) -> float:
    """One step of ``opt`` down the gradient of ``loss()``, a graph scalar; returns its value.

    The loss, its gradient, the step and, with ``blend``, the targets' polyak
    blend are the recorded region ``key`` (see ``plan.replay``), which reads
    ``opt.reads()``, ``reads`` and the targets it blends.
    """
    targets = state.targets if blend else []

    def region():
        out = loss()
        nxt = opt.step(ad.backward(out, opt.vars))
        return [ad.evaluate(out), *nxt,
                *(apply_target_updates(state, nxt[:len(opt.vars)]) if blend else [])]

    value, = plan.replay(state.plans, key, region,
                         opt.reads() + reads + [t.value for t in targets], opt.writes + targets)
    return float(value)


def critic_update(state: AlgoState, batch: Batch, rng: np.random.Generator) -> float:
    """One optimizer step on the mean-squared TD error; returns the loss value."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    noise = None  # the target-policy noise: sac samples with it, td3 smooths with it
    if state.cfg.algo != "ddpg":
        noise = rng.standard_normal((len(batch), state.spec.action_dim))

    def td_loss():
        y = critic_targets(state, batch, noise)
        return functools.reduce(ad.add, [ad.mean(ad.square(ad.sub(q, y)))
                                         for q in state.critic.qs(batch.s, batch.a)])

    reads = [p.value for p in state.target_critic.parameters() + state.td_policy().parameters()]
    reads += [batch.s, batch.a, batch.r, batch.s_next, noise]
    return descend(state, "critic", state.critic_opt, td_loss, reads)


def exploration_action(state: AlgoState, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One 1-D state's training action, clipped: noisy greedy (ddpg/td3) or a sample (sac)."""
    cfg, scale = state.cfg, state.spec.action_bound
    noise = rng.standard_normal(state.spec.action_dim)  # drawn before the region "explore"

    def region():
        a = state.actor.act(s, noise if cfg.algo == "sac" else None, with_logp=False)[0]
        if cfg.algo != "sac":
            a = ad.add(a, ad.scale(noise, cfg.expl_noise * scale))
        return [ad.evaluate(ad.clip(a, -scale, scale))]

    return plan.replay(state.plans, "explore", region,
                       [s, noise, *(p.value for p in state.actor.parameters())])[0]


def apply_target_updates(state: AlgoState, actor_values: list) -> list:
    """The next values of ``state.targets``, blended toward the critic and, for a
    target actor, toward ``actor_values``, the actor's next values."""
    sources = state.critic.parameters() + (actor_values if state.target_actor else [])
    return polyak(state.targets, sources, state.cfg.tau)


def vanilla_iteration(state: AlgoState, buffer: ReplayBuffer, rng: np.random.Generator,
                      actor_step=None) -> dict:
    """One gradient iteration: critic step, then the (possibly delayed) actor
    step and polyak target updates, in one region. ``actor_step(batch, noise)``
    replaces that region and returns its metrics. Draw order from ``rng``: batch
    indices, critic target noise, actor loss noise, then ``actor_step``'s."""
    if len(buffer) == 0:
        raise ValueError("empty buffer")
    state.it += 1
    batch = buffer.sample_batch(state.cfg.batch_n, rng)
    td_loss = critic_update(state, batch, rng)
    if state.actor_due():
        noise = state.actor_noise(len(batch), rng)
        if actor_step is None:
            value = descend(state, "actor", state.actor_opt,
                            lambda: actor_loss(state, batch, noise=noise),
                            [*(p.value for p in state.critic.parameters()), batch.s, noise],
                            blend=True)
            state.last_metrics = {"loss_critic": value, "loss_mcritic": 0.0, "loss_meta": 0.0}
        else:
            state.last_metrics = actor_step(batch, noise)
    return {**state.last_metrics, "loss_td": td_loss}
