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

Omega's network and its optimizer are the ``mc`` and ``mc_opt`` of the
learner's ``offpac.AlgoState``, and every setting here is read from that
state's ``harness.RunConfig``.

Disabling the auxiliary critic reduces the iteration to the vanilla
algorithm exactly, consuming the identical RNG stream.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import plan
from .offpac import AlgoState, actor_loss, actor_loss_np, vanilla_iteration
# critic_update is unused here, but bench/tracer.py patches it on this module
from .offpac import apply_target_updates, critic_update  # noqa: F401
from .replay import Batch, ReplayBuffer

META_LOSS_KINDS = ("plain", "clip")


class PutativeUpdate(NamedTuple):
    """Trial parameter step measured by the meta-test.

    phi_old holds plain arrays (no graph at all); phi_new holds Nodes
    whose graphs reach omega through the single inner gradient step (no
    guard checks it at run time; the meta-gradient's finite-difference test
    does). grad_total is the summed inner gradient used for the committed
    actor update. The two losses are 0-d values, which a recorded region
    can return.
    """

    phi_old: list
    phi_new: list
    grad_total: list
    l_critic_trn: np.float64
    l_mcritic_trn: np.float64


def meta_train(state: AlgoState, d_trn: Batch, noise: np.ndarray | None = None) -> PutativeUpdate:
    """Putative updates on the training batch; does not touch the live actor."""
    if state.mc is None:
        raise ValueError("meta_train needs an auxiliary critic")
    params = state.actor.parameters()
    eta = state.cfg.actor_lr  # the inner step takes the actor's own rate

    l_c = actor_loss(state, d_trn, noise=noise)
    g_c = ad.backward(l_c, params)
    phi_old = [ad.evaluate(ad.sub(p, ad.scale(g, eta))) for p, g in zip(params, g_c)]

    h = state.mc.loss(state.actor, d_trn.s, d_trn.a)
    g_m = ad.backward(h, params, create_graph=True)

    phi_new = [ad.sub(ad.constant(old), ad.scale(gm, eta))
               for old, gm in zip(phi_old, g_m)]
    grad_total = [ad.evaluate(ad.add(gc, gm)) for gc, gm in zip(g_c, g_m)]
    return PutativeUpdate(phi_old, phi_new, grad_total, ad.evaluate(l_c), ad.evaluate(h))


def meta_loss_plain(state: AlgoState, d_val: Batch, pu: PutativeUpdate,
                    noise: np.ndarray | None = None) -> ad.Node:
    """Validation loss of the updated actor; differentiable in omega."""
    return actor_loss(state, d_val, noise=noise, actor_params=pu.phi_new)


def meta_loss_clip(state: AlgoState, d_val: Batch, pu: PutativeUpdate,
                   noise: np.ndarray | None = None) -> ad.Node:
    """tanh of the validation improvement over the no-auxiliary baseline.

    The phi_new branch is ``meta_loss_plain``. The baseline branch is
    evaluated at constant phi_old values, so it contributes nothing to the
    omega gradient; the result always lies in (-1, 1). Both branches share
    the validation batch and noise.
    """
    l_new = meta_loss_plain(state, d_val, pu, noise)
    # the baseline is all constants: only its value (the same actor_loss
    # forward at phi_old) enters, as a leaf, so no gradient walks it
    l_old = actor_loss_np(state, d_val, noise=noise, params_values=pu.phi_old)
    return ad.tanh(ad.sub(l_new, l_old))


def meta_optimise(state: AlgoState, d_trn: Batch, d_val: Batch,
                  noise_trn: np.ndarray | None = None,
                  noise_val: np.ndarray | None = None) -> dict:
    """Meta-train, meta-test, then step the actor and omega and blend the targets.

    All of it is the recorded region "meta" (see ``plan.replay``), whose new
    values are committed once it returns.
    """
    meta_loss = meta_loss_clip if state.cfg.meta_loss == "clip" else meta_loss_plain

    def region():
        pu = meta_train(state, d_trn, noise_trn)
        meta = meta_loss(state, d_val, pu, noise_val)
        # actor takes the summed inner gradient; omega a plain SGD step
        actor_next = state.actor_opt.step(pu.grad_total)
        return [pu.l_critic_trn, pu.l_mcritic_trn, ad.evaluate(meta), *actor_next,
                *state.mc_opt.step(ad.backward(meta, state.mc.parameters())),
                *apply_target_updates(state, actor_next[0])]

    data = [d_trn.s, d_trn.a, d_val.s, noise_trn, noise_val]
    writes = state.actor_opt.writes + state.mc_opt.writes + state.targets
    l_critic, l_mcritic, l_meta = plan.replay(state.plans, "meta", region, data, writes)
    return {"loss_critic": float(l_critic), "loss_mcritic": float(l_mcritic),
            "loss_meta": float(l_meta)}


def train_iteration(state: AlgoState, buffer: ReplayBuffer, rng: np.random.Generator) -> dict:
    """One full gradient iteration on ``batch_n`` training and ``batch_n`` validation rows.

    The vanilla iteration with ``meta_optimise`` as its actor step, or
    exactly the vanilla iteration with the auxiliary critic disabled.
    RNG draw order: d_trn indices, critic target noise, [actor-path:
    training reparameterization noise, d_val indices, validation noise].
    """
    def meta_step(d_trn: Batch, noise_trn: np.ndarray | None) -> dict:
        d_val = buffer.sample_batch(state.cfg.batch_n, rng)
        noise_val = state.actor_noise(len(d_val), rng)
        return meta_optimise(state, d_trn, d_val, noise_trn, noise_val)

    return vanilla_iteration(state, buffer, rng, None if state.mc is None else meta_step)
