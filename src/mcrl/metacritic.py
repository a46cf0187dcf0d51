"""Online bi-level optimisation of the auxiliary actor loss.

Each gradient iteration, after the usual critic TD step:

1. meta-train: on a training mini-batch, compute a putative actor update
   without the auxiliary loss (phi_old) and one with it (phi_new). The
   phi_new parameters are kept as differentiable expressions of the
   auxiliary network's parameters omega, through exactly one inner
   gradient step.
2. meta-test: on an independent validation mini-batch, score phi_new
   with the ordinary critic-provided loss, either directly ("plain") or
   as tanh of its improvement over the phi_old baseline ("clip"). The
   baseline branch is built purely from constants, so only the phi_new
   term carries gradient to omega.
3. meta-optimisation: the live actor takes the combined update (the sum
   of both inner gradients through its optimizer; with plain SGD this
   adopts phi_new's values exactly), and omega takes a plain SGD step on
   the meta-loss.

Both inner gradients are evaluated at the current parameters by default.
``sequential_inner`` switches to evaluating the auxiliary gradient at
phi_old instead, the step-by-step reading of the update recipe; the two
coincide as the inner rate goes to zero.

Disabling the auxiliary critic reduces the iteration to the vanilla
algorithm exactly, consuming the identical RNG stream.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .nets import MetaCriticNet
from .offpac import (AlgoState, Sgd, actor_loss, actor_loss_np, apply_target_updates,
                     critic_update, vanilla_iteration)
from .replay import Batch, ReplayBuffer

META_LOSS_KINDS = ("plain", "clip")


class MetaGraphError(RuntimeError):
    """The putative update has no differentiable path to omega."""


class MetaState:
    """A base learner plus the auxiliary-loss network and its schedule."""

    def __init__(self, base: AlgoState, mc: MetaCriticNet | None,
                 meta_loss_kind: str = "clip", inner_rate: float | None = None,
                 mc_rate: float = 1e-3, sequential_inner: bool = False):
        if meta_loss_kind not in META_LOSS_KINDS:
            raise ValueError(f"unknown meta-loss kind {meta_loss_kind!r}")
        if mc is not None and mc.f is not None:
            want = base.actor.feature_dim
            if mc.variant == "feature-state-action":
                want += base.spec.state_dim + base.spec.action_dim
            if mc.f.input_dim != want:
                raise ValueError(f"meta-critic input dim {mc.f.input_dim} "
                                 f"does not match actor ({want})")
        self.base = base
        self.mc = mc
        self.meta_loss_kind = meta_loss_kind
        self.inner_rate = base.hyper.actor_lr if inner_rate is None else inner_rate
        self.mc_opt = Sgd(mc.parameters(), mc_rate) if mc is not None else None
        self.sequential_inner = sequential_inner
        self.last_metrics = {"loss_critic": 0.0, "loss_mcritic": 0.0, "loss_meta": 0.0}


class PutativeUpdate:
    """Trial parameter step measured by the meta-test.

    phi_old holds plain arrays (no graph at all); phi_new holds Nodes
    whose graphs reach omega through the single inner gradient step.
    grad_total is the summed inner gradient used for the committed actor
    update.
    """

    __slots__ = ("phi_old", "phi_new", "grad_total", "l_critic_trn", "l_mcritic_trn")

    def __init__(self, phi_old, phi_new, grad_total, l_critic_trn, l_mcritic_trn):
        self.phi_old = phi_old
        self.phi_new = phi_new
        self.grad_total = grad_total
        self.l_critic_trn = l_critic_trn
        self.l_mcritic_trn = l_mcritic_trn


def _require_omega_path(ms: MetaState, pu: PutativeUpdate) -> None:
    omega = [w.node for w in ms.mc.parameters()]
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
    eta = ms.inner_rate

    l_c = actor_loss(base, d_trn, noise=noise)
    g_c = ad.backward(l_c, params)
    phi_old = [p.value - eta * g for p, g in zip(params, g_c)]

    if ms.sequential_inner:
        at = [ad.Variable(v, f"phi_old.{i}") for i, v in enumerate(phi_old)]
        h = ms.mc.loss(base.actor, d_trn.s, d_trn.a, actor_params=at)
        g_m = ad.backward(h, at, create_graph=True)
    else:
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

    The baseline branch is evaluated at constant phi_old values, so it
    contributes nothing to the omega gradient; the result always lies in
    (-1, 1). Both branches share the validation batch and noise.
    """
    if len(d_val) == 0:
        raise ValueError("empty batch")
    _require_omega_path(ms, pu)
    l_new = actor_loss(ms.base, d_val, noise=noise, actor_params=pu.phi_new)
    # the baseline is all constants, so its value is computed on raw arrays
    # (the same actor_loss forward, so the same bits) and enters as a leaf
    l_old = actor_loss_np(ms.base, d_val, noise=noise, params_values=pu.phi_old)
    return ad.tanh(ad.sub(l_new, ad.constant(np.asarray(l_old))))


def meta_optimise(ms: MetaState, d_trn: Batch, d_val: Batch,
                  noise_trn: np.ndarray | None = None,
                  noise_val: np.ndarray | None = None) -> dict:
    """Meta-train, meta-test, then commit both the actor and omega updates."""
    pu = meta_train(ms, d_trn, noise_trn)
    if ms.meta_loss_kind == "clip":
        meta = meta_loss_clip(ms, d_val, pu, noise_val)
    else:
        meta = meta_loss_plain(ms, d_val, pu, noise_val)
    meta_value = float(ad.evaluate(meta))
    omega = ms.mc.parameters()
    g_omega = ad.backward(meta, omega)

    # actor takes the summed inner gradient; omega a plain SGD step
    ms.base.actor_opt.step(pu.grad_total)
    ms.mc_opt.step(g_omega)
    ms.base.last_actor_loss = pu.l_critic_trn
    return {"loss_critic": pu.l_critic_trn,
            "loss_mcritic": pu.l_mcritic_trn,
            "loss_meta": meta_value}


def train_iteration(ms: MetaState, buffer: ReplayBuffer, rng: np.random.Generator,
                    batch_n: int = 64, batch_m: int = 64) -> dict:
    """One full gradient iteration.

    RNG draw order: d_trn indices, critic target noise, [actor-path:
    training reparameterization noise, d_val indices, validation noise].
    With the auxiliary critic disabled this delegates to the vanilla
    iteration, which consumes the stream identically up to the actor
    path and produces identical metrics.
    """
    if ms.mc is None:
        return vanilla_iteration(ms.base, buffer, rng, batch_n)
    base = ms.base
    if len(buffer) == 0:
        raise ValueError("empty buffer")
    base.it += 1
    d_trn = buffer.sample_batch(batch_n, rng)
    td_loss = critic_update(base, d_trn, rng)
    if base.actor_due():
        noise_trn = base.actor_noise(len(d_trn), rng)
        d_val = buffer.sample_batch(batch_m, rng)
        noise_val = base.actor_noise(batch_m, rng)
        ms.last_metrics = meta_optimise(ms, d_trn, d_val, noise_trn, noise_val)
        apply_target_updates(base)
    out = dict(ms.last_metrics)
    out["loss_td"] = td_loss
    return out
