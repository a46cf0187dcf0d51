"""Online bi-level optimisation of the auxiliary actor loss.

Each gradient iteration, after the usual critic TD step:

1. meta-train: on a training mini-batch, compute a putative actor update
   without the auxiliary loss (phi_old) and one with it (phi_new). The
   phi_new parameters are kept as differentiable expressions of the
   auxiliary network's parameters omega, through exactly one inner
   gradient step at the actor's own rate ``actor_lr``.
2. meta-test: on an independent validation mini-batch, score phi_new
   with the ordinary critic-provided loss, either directly ("plain") or
   as tanh of its improvement over the phi_old baseline ("clip"). The
   baseline branch is built purely from constants, so only the phi_new
   term carries gradient to omega.
3. meta-optimisation: the live actor takes the combined update (the sum
   of both inner gradients through its optimizer; with plain SGD this
   adopts phi_new's values exactly), and omega takes a plain SGD step on
   the meta-loss.

Both inner gradients are evaluated at the current parameters.

``MetaState`` builds omega's network from the base learner's
``harness.RunConfig``, and every setting here is read from that config.

Disabling the auxiliary critic reduces the iteration to the vanilla
algorithm exactly, consuming the identical RNG stream.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .nets import MetaCriticNet
from .offpac import AlgoState, Sgd, actor_loss, actor_loss_np, vanilla_iteration
# unused here, but bench/tracer.py patches both names on this module and needs them present
from .offpac import apply_target_updates, critic_update  # noqa: F401
from .replay import Batch, ReplayBuffer

META_LOSS_KINDS = ("plain", "clip")


class MetaGraphError(RuntimeError):
    """The putative update has no differentiable path to omega."""


class MetaState:
    """A base learner plus omega's network and optimizer, built from ``base.cfg`` and ``rng``."""

    def __init__(self, base: AlgoState, rng: np.random.Generator):
        cfg = base.cfg
        self.base = base
        self.mc = self.mc_opt = None
        if cfg.mc_variant != "none":
            self.mc = MetaCriticNet(cfg.mc_variant, base.actor, rng, hidden=cfg.mc_hidden)
            self.mc_opt = Sgd(self.mc.parameters(), cfg.mc_lr)


class PutativeUpdate(NamedTuple):
    """Trial parameter step measured by the meta-test.

    phi_old holds plain arrays (no graph at all); phi_new holds Nodes
    whose graphs reach omega through the single inner gradient step.
    grad_total is the summed inner gradient used for the committed actor
    update.
    """

    phi_old: list
    phi_new: list
    grad_total: list
    l_critic_trn: float
    l_mcritic_trn: float


def _require_omega_path(ms: MetaState, pu: PutativeUpdate) -> None:
    omega = ms.mc.parameters()
    if not any(ad.reaches(pn, omega) for pn in pu.phi_new):
        raise MetaGraphError(
            "phi_new carries no gradient path to the meta-critic parameters; "
            "the inner gradient must be taken with create_graph")


def meta_train(ms: MetaState, d_trn: Batch, noise: np.ndarray | None = None) -> PutativeUpdate:
    """Putative updates on the training batch; does not touch the live actor."""
    if ms.mc is None:
        raise ValueError("meta_train needs an auxiliary critic")
    if len(d_trn) == 0:
        raise ValueError("empty batch")
    base = ms.base
    params = base.actor.parameters()
    eta = base.cfg.actor_lr  # the inner step takes the actor's own rate

    l_c = actor_loss(base, d_trn, noise=noise)
    g_c = ad.backward(l_c, params)
    phi_old = [p.value - eta * g for p, g in zip(params, g_c)]

    h = ms.mc.loss(base.actor, d_trn.s, d_trn.a)
    g_m = ad.backward(h, params, create_graph=True)

    phi_new = [ad.sub(ad.constant(old), ad.scale(gm, eta))
               for old, gm in zip(phi_old, g_m)]
    grad_total = [gc + gm.value for gc, gm in zip(g_c, g_m)]
    return PutativeUpdate(phi_old, phi_new, grad_total,
                          float(ad.evaluate(l_c)), float(ad.evaluate(h)))


def meta_loss_plain(ms: MetaState, d_val: Batch, pu: PutativeUpdate,
                    noise: np.ndarray | None = None) -> ad.Node:
    """Validation loss of the updated actor; differentiable in omega."""
    if len(d_val) == 0:
        raise ValueError("empty batch")
    _require_omega_path(ms, pu)
    return actor_loss(ms.base, d_val, noise=noise, actor_params=pu.phi_new)


def meta_loss_clip(ms: MetaState, d_val: Batch, pu: PutativeUpdate,
                   noise: np.ndarray | None = None) -> ad.Node:
    """tanh of the validation improvement over the no-auxiliary baseline.

    The phi_new branch is ``meta_loss_plain``, checks included. The
    baseline branch is evaluated at constant phi_old values, so it
    contributes nothing to the omega gradient; the result always lies in
    (-1, 1). Both branches share the validation batch and noise.
    """
    l_new = meta_loss_plain(ms, d_val, pu, noise)
    # the baseline is all constants, so its value is computed on raw arrays
    # (the same actor_loss forward, so the same bits) and enters as a leaf
    l_old = actor_loss_np(ms.base, d_val, noise=noise, params_values=pu.phi_old)
    return ad.tanh(ad.sub(l_new, ad.constant(np.asarray(l_old))))


def meta_optimise(ms: MetaState, d_trn: Batch, d_val: Batch,
                  noise_trn: np.ndarray | None = None,
                  noise_val: np.ndarray | None = None) -> dict:
    """Meta-train, meta-test, then commit both the actor and omega updates."""
    pu = meta_train(ms, d_trn, noise_trn)
    meta_loss = meta_loss_clip if ms.base.cfg.meta_loss == "clip" else meta_loss_plain
    meta = meta_loss(ms, d_val, pu, noise_val)
    meta_value = float(ad.evaluate(meta))
    omega = ms.mc.parameters()
    g_omega = ad.backward(meta, omega)

    # actor takes the summed inner gradient; omega a plain SGD step
    ms.base.actor_opt.step(pu.grad_total)
    ms.mc_opt.step(g_omega)
    return {"loss_critic": pu.l_critic_trn,
            "loss_mcritic": pu.l_mcritic_trn,
            "loss_meta": meta_value}


def train_iteration(ms: MetaState, buffer: ReplayBuffer, rng: np.random.Generator) -> dict:
    """One full gradient iteration on ``batch_n`` training and ``batch_n`` validation rows.

    The vanilla iteration with ``meta_optimise`` as its actor step, or
    exactly the vanilla iteration with the auxiliary critic disabled.
    RNG draw order: d_trn indices, critic target noise, [actor-path:
    training reparameterization noise, d_val indices, validation noise].
    """
    def meta_step(d_trn: Batch, noise_trn: np.ndarray | None) -> dict:
        d_val = buffer.sample_batch(ms.base.cfg.batch_n, rng)
        noise_val = ms.base.actor_noise(len(d_val), rng)
        return meta_optimise(ms, d_trn, d_val, noise_trn, noise_val)

    return vanilla_iteration(ms.base, buffer, rng, None if ms.mc is None else meta_step)
