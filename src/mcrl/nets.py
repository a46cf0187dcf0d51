"""Network definitions for the actor-critic learners.

An actor is split into a feature extractor (everything up to the
penultimate activation) and a decision head (the last linear layer).
The auxiliary-loss network consumes the feature extractor's output, so
its value depends jointly on the policy parameters and the states fed
through them. Three auxiliary variants are supported:

* ``feature``: a softplus-capped MLP over the actor features alone,
* ``feature-state-action``: the same MLP over (features, state, action),
* ``param-reg``: a learned nonnegative per-parameter weight on |phi|.

Every forward is written once, against an ``ops`` namespace (see
``autodiff``). The default, the autodiff module, builds a graph, with
parameters optionally overridden, which is how putative parameter sets
are evaluated. ``autodiff.NumpyOps`` computes the same values on raw
arrays, building no graph, for rollouts and target computations where no
gradient is ever needed.

Parameter snapshots are saved as plain text, one tensor per line:
``name<TAB>dim0,dim1<TAB>v0 v1 v2 ...`` with full-precision floats
(scalars and vectors use a single dim). This is the format the PCA and
surface tools consume.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Node, NumpyOps, Variable

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

_ACTIVATIONS = ("relu", "tanh", "softplus", "linear")


def softplus_inverse(y: float) -> float:
    """x such that softplus(x) == y, for y > 0."""
    return float(np.log(np.expm1(y)))


class DenseNet:
    """Fully-connected stack with per-layer activations.

    Parameters live in Variables ordered [W0, b0, W1, b1, ...]; that
    order is the stable enumeration used for polyak updates, snapshots
    and flat-vector packing.
    """

    def __init__(self, dims, activations, rng: np.random.Generator,
                 name: str = "net", final_scale: float = 1.0):
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        for a in activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        self.dims = list(dims)
        self.activations = list(activations)
        self.name = name
        self.params: list[Variable] = []
        n_layers = len(dims) - 1
        for i in range(n_layers):
            fan_in = dims[i]
            bound = 1.0 / math.sqrt(fan_in)
            if i == n_layers - 1:
                bound *= final_scale
            w = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
            b = rng.uniform(-bound, bound, size=dims[i + 1])
            self.params.append(Variable(w, f"{name}.{i}.W"))
            self.params.append(Variable(b, f"{name}.{i}.b"))

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]

    def forward(self, x, params=None, ops=ad):
        """Forward pass on ``ops``; ``params`` overrides the stored Variables."""
        if params is None:
            params = self.params
        elif len(params) != len(self.params):
            raise ValueError(f"{self.name}: expected {len(self.params)} params, "
                             f"got {len(params)}")
        as_node = ops.as_node
        h = as_node(x)
        for i, act in enumerate(self.activations):
            h = ops.affine(h, as_node(params[2 * i]), as_node(params[2 * i + 1]))
            if act != "linear":
                h = getattr(ops, act)(h)
        return h

    def param_values(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.params]

    def set_param_values(self, values) -> None:
        if len(values) != len(self.params):
            raise ValueError("parameter count mismatch")
        for p, v in zip(self.params, values):
            p.set_value(v)

    def architecture_matches(self, other: "DenseNet") -> bool:
        return self.dims == other.dims and self.activations == other.activations


def polyak(target: DenseNet, source: DenseNet, tau: float) -> DenseNet:
    """In-place blend target <- (1 - tau) * target + tau * source."""
    if not target.architecture_matches(source):
        raise ValueError("polyak: architecture mismatch")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("polyak: tau must lie in [0, 1]")
    for t, s in zip(target.params, source.params):
        t.set_value((1.0 - tau) * t.value + tau * s.value)
    return target


class Actor:
    """Policy network with explicit feature / head decomposition.

    head_kind "deterministic": action = scale * tanh(head(feature(s))).
    head_kind "gaussian": head outputs (mean, log_std); sampling is
    reparameterized with caller-supplied noise and tanh-squashed, and
    log-densities carry the change-of-variables correction.
    """

    def __init__(self, state_dim: int, action_dim: int, action_scale: float,
                 rng: np.random.Generator, hidden=(64, 64),
                 head_kind: str = "deterministic"):
        if head_kind not in ("deterministic", "gaussian"):
            raise ValueError(f"unknown head kind {head_kind!r}")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.action_scale = float(action_scale)
        self.head_kind = head_kind
        feat_dims = [state_dim] + list(hidden)
        self.feature = DenseNet(feat_dims, ["relu"] * len(hidden), rng, "feature")
        out = action_dim if head_kind == "deterministic" else 2 * action_dim
        # small final layer keeps early actions near zero
        self.head = DenseNet([hidden[-1], out], ["linear"], rng, "head",
                             final_scale=0.01)

    @property
    def feature_dim(self) -> int:
        return self.feature.output_dim

    def parameters(self) -> list[Variable]:
        return self.feature.params + self.head.params

    def param_values(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.parameters()]

    def set_param_values(self, values) -> None:
        ps = self.parameters()
        if len(values) != len(ps):
            raise ValueError("parameter count mismatch")
        for p, v in zip(ps, values):
            p.set_value(v)

    def _split(self, params):
        if params is None:
            return None, None
        nf = len(self.feature.params)
        return params[:nf], params[nf:]

    def features(self, states, params=None) -> Node:
        """Feature-extractor output for a (N, state_dim) batch."""
        fp, _ = self._split(params)
        return self.feature.forward(states, fp)

    def head_out(self, states, params=None, ops=ad):
        fp, hp = self._split(params)
        return self.head.forward(self.feature.forward(states, fp, ops), hp, ops)

    def act(self, states, mode: str = "deterministic", noise=None, params=None, ops=ad,
            with_logp: bool = True):
        """Batched policy output on ``ops``.

        Returns (action, log_prob); log_prob is None unless the head is
        gaussian, mode is "sample" and ``with_logp`` holds.
        """
        out = self.head_out(states, params, ops)
        if self.head_kind == "deterministic":
            return ops.scale(ops.tanh(out), self.action_scale), None
        d = self.action_dim
        mean_ = ops.slice_cols(out, 0, d)
        log_std = ops.clip(ops.slice_cols(out, d, 2 * d), LOG_STD_MIN, LOG_STD_MAX)
        if mode == "mean":
            return ops.scale(ops.tanh(mean_), self.action_scale), None
        if mode != "sample":
            raise ValueError(f"unknown act mode {mode!r}")
        if noise is None:
            raise ValueError("sample mode requires an explicit noise tensor")
        return ad.squashed_gaussian(mean_, log_std, noise, self.action_scale, ops, with_logp)

    def act_np(self, state: np.ndarray, mode: str = "deterministic",
               noise: np.ndarray | None = None, params=None,
               return_logp: bool = False):
        """``act`` on ``NumpyOps``, for a single state or a batch.

        A batch of shape (N, state_dim) gives an action of shape
        (N, action_dim) and a log-prob of shape (N, 1). A 1-D state gives
        an action of shape (action_dim,) and a log-prob of shape (1,).
        Returns the action alone, or (action, log_prob) with
        ``return_logp``; the log-prob is None outside sample mode.
        """
        single = state.ndim == 1
        if noise is not None and noise.ndim == 1:
            noise = noise[None, :]
        a, logp = self.act(state[None, :] if single else state, mode, noise, params,
                           NumpyOps, return_logp)
        if single:
            a, logp = a[0], (None if logp is None else logp[0])
        return (a, logp) if return_logp else a


class Critic:
    """Action-value network Q(s, a), optionally twinned."""

    def __init__(self, state_dim: int, action_dim: int, rng: np.random.Generator,
                 hidden=(64, 64), twin: bool = False):
        dims = [state_dim + action_dim] + list(hidden) + [1]
        acts = ["relu"] * len(hidden) + ["linear"]
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.net = DenseNet(dims, acts, rng, "q1")
        self.twin = DenseNet(dims, acts, rng, "q2") if twin else None

    def q(self, states, actions, params=None, ops=ad):
        return self.net.forward(ops.concat([states, actions]), params, ops)

    def q_twin(self, states, actions, params=None, ops=ad):
        if self.twin is None:
            raise ValueError("critic has no twin network")
        return self.twin.forward(ops.concat([states, actions]), params, ops)

    def parameters(self) -> list[Variable]:
        ps = list(self.net.params)
        if self.twin is not None:
            ps += self.twin.params
        return ps


MC_VARIANTS = ("feature", "feature-state-action", "param-reg")


class MetaCriticNet:
    """Learned auxiliary loss for the actor; output is always >= 0."""

    def __init__(self, variant: str, actor: Actor, rng: np.random.Generator,
                 hidden: int = 100):
        if variant not in MC_VARIANTS:
            raise ValueError(f"unknown meta-critic variant {variant!r}")
        self.variant = variant
        self.f = None
        self.reg_weights: list[Variable] = []
        if variant == "param-reg":
            # one raw weight per actor parameter; softplus applied on use
            self.reg_weights = [Variable(np.zeros_like(p.value), f"regw.{i}")
                                for i, p in enumerate(actor.parameters())]
        else:
            in_dim = actor.feature_dim
            if variant == "feature-state-action":
                in_dim += actor.state_dim + actor.action_dim
            self.f = DenseNet([in_dim, hidden, hidden, 1],
                              ["relu", "relu", "softplus"], rng, "h")

    def parameters(self) -> list[Variable]:
        return self.f.params if self.f is not None else list(self.reg_weights)

    def loss(self, actor: Actor, states, actions=None, actor_params=None) -> Node:
        """Scalar auxiliary loss, differentiable in actor and own parameters."""
        if self.variant == "param-reg":
            phi = actor.parameters() if actor_params is None else actor_params
            total = None
            for w, p in zip(self.reg_weights, phi):
                term = ad.asum(ad.mul(ad.softplus(w), ad.absval(ad.as_node(p))))
                total = term if total is None else ad.add(total, term)
            return total
        if ad.as_node(states).value.shape[0] == 0:
            raise ValueError("meta-critic loss needs a nonempty batch")
        feats = actor.features(states, actor_params)
        if self.variant == "feature-state-action":
            if actions is None:
                raise ValueError("feature-state-action variant needs actions")
            x = ad.concat([feats, ad.as_node(states), ad.as_node(actions)])
        else:
            x = feats
        return ad.mean(self.f.forward(x))


# ---------------------------------------------------------------------------
# parameter snapshots
# ---------------------------------------------------------------------------

def named_params(prefix: str, net: DenseNet) -> list[tuple[str, np.ndarray]]:
    return [(f"{prefix}.{p.name}", p.value) for p in net.params]


def actor_named_params(actor: Actor) -> list[tuple[str, np.ndarray]]:
    return named_params("actor", actor.feature) + named_params("actor", actor.head)


def save_params(path, named: list[tuple[str, np.ndarray]]) -> None:
    """Write a snapshot: one line per tensor, tab-separated name, shape, values."""
    with open(path, "w") as fh:
        for name, arr in named:
            a = np.asarray(arr, dtype=np.float64)
            shape = ",".join(str(d) for d in a.shape) or "-"
            vals = " ".join(repr(float(v)) for v in a.ravel())
            fh.write(f"{name}\t{shape}\t{vals}\n")


def load_params(path) -> list[tuple[str, np.ndarray]]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            name, shape_s, vals_s = line.split("\t")
            shape = () if shape_s == "-" else tuple(int(d) for d in shape_s.split(","))
            vals = np.array([float(v) for v in vals_s.split(" ")] if vals_s else [],
                            dtype=np.float64)
            out.append((name, vals.reshape(shape)))
    return out


def flatten_values(values: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.asarray(v).ravel() for v in values])


def unflatten_values(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    out, o = [], 0
    for v in like:
        n = v.size
        out.append(flat[o:o + n].reshape(v.shape).copy())
        o += n
    if o != flat.size:
        raise ValueError("flat vector length mismatch")
    return out
