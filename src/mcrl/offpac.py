"""Vanilla off-policy actor-critic updates for DDPG, TD3 and SAC.

The actor is trained on the critic-provided loss:

    ddpg:  mean( -Q(s, pi(s)) )
    td3:   mean( -Q1(s, pi(s)) )
    sac:   mean( alpha * log pi(a|s) - min(Q1, Q2)(s, a) ),  a reparameterized

and the critic regresses on one-step TD targets built from target
networks. Both run on the graph, inside recorded regions (see
``plan.replay``). The targets are a value, an array, so they are
gradient-isolated by construction; the critic enters the actor loss
through ``ad.constant`` of its Variables, so the actor update cannot move
the critic either.

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
from .envs import EnvSpec
from .nets import Actor, Critic, MetaCriticNet, polyak
from .replay import Batch, ReplayBuffer

if TYPE_CHECKING:  # harness imports this module, so RunConfig is named for annotations only
    from .harness import RunConfig

ALGOS = ("ddpg", "td3", "sac")


class Sgd:
    """Gradient descent on ``flat``, one Variable that packs ``vars``; ``step`` gives the next
    value of each of ``writes`` from the gradients alone, one formula chain over the flat array."""

    def __init__(self, variables, lr: float):
        self.vars = list(variables)
        self.flat = ad.pack(self.vars, "flat")
        self.writes = [self.flat]
        self.lr = lr

    def step(self, grads) -> list:
        return [ad.evaluate(ad.sub(self.flat, ad.scale(ad.flat(grads), self.lr)))]


class Adam(Sgd):
    """Adam on one flat Variable, with one flat first moment ``m``, one second ``v`` and the 0-d
    step count ``t``, all committed together: a step takes its bias corrections on the graph."""

    B1, B2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults

    def __init__(self, variables, lr: float):
        super().__init__(variables, lr)
        self.m, self.v = (ad.Variable(np.zeros_like(self.flat.value), n) for n in ("m", "v"))
        self.t = ad.Variable(np.zeros(()), "t")
        self.writes += [self.m, self.v, self.t]

    def step(self, grads) -> list:
        one, eps, g = ad.full((), 1.0), ad.full((), self.EPS), ad.flat(grads)
        t = ad.add(self.t, one)
        c1, c2 = (ad.sub(one, ad.rpow(t, b)) for b in (self.B1, self.B2))
        m = ad.add(ad.scale(self.m, self.B1), ad.scale(g, 1.0 - self.B1))
        v = ad.add(ad.scale(self.v, self.B2), ad.scale(ad.square(g), 1.0 - self.B2))
        x = ad.sub(self.flat, ad.div(ad.scale(ad.div(m, c1), self.lr),
                                     ad.add(ad.sqrt(ad.div(v, c2)), eps)))
        return [ad.evaluate(n) for n in (x, m, v, t)]


OPTIMIZERS = {"sgd": Sgd, "adam": Adam}


class AlgoState:
    """Everything one learner owns: validated config, nets, targets, optimizers, counters.

    Each optimizer packs its net's parameters into one flat Variable, and
    ``targets`` holds one packed flat per target net, the critic's first. The
    auxiliary loss network omega (``mc``) is drawn last from ``rng``; it and
    its ``Sgd`` (``mc_opt``) are None when ``mc_variant`` is "none".
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
        self.targets = [ad.pack(net.parameters(), "target")  # what apply_target_updates blends
                        for net in (self.target_critic, self.target_actor) if net]
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

    def __reduce_ex__(self, protocol):  # a copied view is no view: a copy's nets would not learn
        raise TypeError("an AlgoState cannot be copied or pickled, since its nets view the flat "
                        "arrays its optimizers write; build a new learner instead")

    def actor_due(self) -> bool:
        """True when this iteration performs an actor (and target) update."""
        if self.cfg.algo == "td3":
            return self.it % self.cfg.policy_delay == 0
        return True

    def td_policy(self) -> Actor:
        """The TD target's policy: the target actor, or the live one for sac, which has none."""
        return self.target_actor or self.actor

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
    qc = [[ad.constant(p) for p in net.params] for net in state.critic.nets]
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
    """One-step TD regression targets, built on the graph: their value, which no gradient
    enters. ``noise`` is the target-policy noise ``critic_update`` draws, None for ddpg."""
    h = state.cfg
    scale = state.spec.action_bound
    sac = h.algo == "sac"
    a2, logp2 = state.td_policy().act(batch.s_next, noise if sac else None)
    if h.algo == "td3":
        eps = ad.clip(ad.scale(noise, h.target_noise * scale),
                      -h.noise_clip * scale, h.noise_clip * scale)
        a2 = ad.clip(ad.add(a2, eps), -scale, scale)
    q2 = state.target_critic.q_min(batch.s_next, a2)
    if sac:  # entropy-corrected target
        q2 = ad.sub(q2, ad.scale(logp2, h.alpha))
    return ad.evaluate(ad.add(batch.r, ad.scale(q2, h.gamma)))


def descend(state: AlgoState, key: str, opt, loss, data: list, blend: bool = False) -> float:
    """One step of ``opt`` down the gradient of ``loss()``, a graph scalar; returns its value.

    The loss, its gradient, the step and, with ``blend``, the targets' polyak
    blend are the recorded region ``key`` (see ``plan.replay``), whose
    per-call inputs are ``data``, the batch columns and noise the loss reads.
    """
    def region():
        out = loss()
        nxt = opt.step(ad.backward(out, opt.vars))
        return [ad.evaluate(out), *nxt, *(apply_target_updates(state, nxt[0]) if blend else [])]

    value, = plan.replay(state.plans, key, region, data,
                         opt.writes + (state.targets if blend else []))
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

    return descend(state, "critic", state.critic_opt, td_loss,
                   [batch.s, batch.a, batch.r, batch.s_next, noise])


def exploration_action(state: AlgoState, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One 1-D state's training action, clipped: noisy greedy (ddpg/td3) or a sample (sac)."""
    cfg, scale = state.cfg, state.spec.action_bound
    noise = rng.standard_normal(state.spec.action_dim)  # drawn before the region "explore"

    def region():
        a = state.actor.act(s, noise if cfg.algo == "sac" else None, with_logp=False)[0]
        if cfg.algo != "sac":
            a = ad.add(a, ad.scale(noise, cfg.expl_noise * scale))
        return [ad.evaluate(ad.clip(a, -scale, scale))]

    return plan.replay(state.plans, "explore", region, [s, noise])[0]


def apply_target_updates(state: AlgoState, actor_flat: np.ndarray) -> list:
    """The next values of ``state.targets``, blended toward the critic's flat and, for a
    target actor, toward ``actor_flat``, the actor's next flat value."""
    sources = [state.critic_opt.flat] + ([actor_flat] if state.target_actor else [])
    return polyak(state.targets, sources, state.cfg.tau)


def vanilla_iteration(state: AlgoState, buffer: ReplayBuffer, rng: np.random.Generator,
                      actor_step=None) -> dict:
    """One gradient iteration: critic step, then the (possibly delayed) actor
    step and polyak target updates, in one region. ``actor_step(batch, noise)``
    replaces that region and returns its metrics. Draw order from ``rng``: batch
    indices, critic target noise, actor loss noise, then ``actor_step``'s."""
    batch = buffer.sample_batch(state.cfg.batch_n, rng)
    state.it += 1
    td_loss = critic_update(state, batch, rng)
    if state.actor_due():
        noise = state.actor_noise(len(batch), rng)
        if actor_step is None:
            value = descend(state, "actor", state.actor_opt,
                            lambda: actor_loss(state, batch, noise=noise), [batch.s, noise],
                            blend=True)
            state.last_metrics = {"loss_critic": value, "loss_mcritic": 0.0, "loss_meta": 0.0}
        else:
            state.last_metrics = actor_step(batch, noise)
    return {**state.last_metrics, "loss_td": td_loss}
