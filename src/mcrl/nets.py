"""Network definitions for the actor-critic learners.

An actor is one ``DenseNet``: relu hidden layers, then a decision head
(the last layer, tanh when deterministic, linear when gaussian). Its
features are the same net run up to the penultimate activation. The
auxiliary-loss network consumes those features, so its value depends
jointly on the policy parameters and the states fed through them. Three
auxiliary variants are supported:

* ``feature``: a softplus-capped MLP over the actor features alone,
* ``feature-state-action``: the same MLP over (features, state, action),
* ``param-reg``: a learned nonnegative per-parameter weight on |phi|.

Every forward is written once, one ``autodiff.dense`` call per layer, and
builds a graph, with parameters optionally overridden, which is how
putative parameter sets and target nets are evaluated. One state runs
as a 1-D row; its greedy action, which evaluation takes, is a region the
actor records once and then replays (see ``plan.replay``).

Parameter snapshots are saved as plain text, one tensor per line:
``name<TAB>dim0,dim1<TAB>v0 v1 v2 ...`` with full-precision floats
(scalars and vectors use a single dim). This is the format the PCA and
surface tools consume.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from . import plan
from .autodiff import Node, Variable

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0


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
            if a not in ad.DENSE_ACTS:
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

    def forward(self, x, params=None, layers=None) -> Node:
        """Forward pass on the graph; ``params`` overrides the stored Variables.

        ``layers`` runs the layers ``activations[:layers]`` selects, so
        ``layers=-1`` stops at the penultimate activation.
        """
        if params is None:
            params = self.params
        elif len(params) != len(self.params):
            raise ValueError(f"{self.name}: expected {len(self.params)} params, "
                             f"got {len(params)}")
        h = ad.as_node(x)
        for i, act in enumerate(self.activations[:layers]):
            h = ad.dense(h, params[2 * i], params[2 * i + 1], act)
        return h


def polyak(target: list[Variable], source: list, tau: float) -> list[np.ndarray]:
    """The next values (1 - tau) * target + tau * source, on the graph; sets nothing."""
    # compared up front: numpy would broadcast some mismatched pairs silently
    if [t.shape for t in target] != [ad.as_node(s).shape for s in source]:
        raise ValueError("polyak: target and source parameter shapes differ")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("polyak: tau must lie in [0, 1]")
    return [ad.evaluate(ad.add(ad.scale(t, 1.0 - tau), ad.scale(s, tau)))
            for t, s in zip(target, source)]


class Actor:
    """Policy network: one DenseNet whose last layer is the decision head.

    head_kind "deterministic": action = scale * tanh(net(s)); it takes no
    noise. head_kind "gaussian": the net outputs (mean, log_std). Given
    noise, the action is a reparameterized, tanh-squashed sample whose
    log-density carries the change-of-variables correction; without
    noise it is the greedy scale * tanh(mean).
    """

    def __init__(self, state_dim: int, action_dim: int, action_scale: float,
                 rng: np.random.Generator, hidden, head_kind: str = "deterministic"):
        if head_kind not in ("deterministic", "gaussian"):
            raise ValueError(f"unknown head kind {head_kind!r}")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.action_scale = float(action_scale)
        self.head_kind = head_kind
        det = head_kind == "deterministic"
        # small final layer keeps early actions near zero
        self.net = DenseNet([state_dim, *hidden, action_dim if det else 2 * action_dim],
                            ["relu"] * len(hidden) + ["tanh" if det else "linear"], rng,
                            "actor", final_scale=0.01)
        self.plans: dict[str, plan.Plan] = {}  # the recorded greedy action, "greedy"

    @property
    def feature_dim(self) -> int:
        return self.net.dims[-2]

    def parameters(self) -> list[Variable]:
        return self.net.params

    def set_param_values(self, values) -> None:
        ps = self.parameters()
        if len(values) != len(ps):
            raise ValueError("parameter count mismatch")
        for p, v in zip(ps, values):
            p.set_value(v)

    def features(self, states) -> Node:
        """Penultimate-layer output for a (N, state_dim) batch."""
        return self.net.forward(states, layers=-1)

    def act(self, states, noise=None, params=None, with_logp: bool = True):
        """Policy output on the graph: a sample given ``noise``, else the greedy action.

        ``states`` and ``noise`` are a batch or one 1-D row. Returns (action,
        log_prob); log_prob is None unless the head is gaussian, ``noise`` is
        given and ``with_logp`` holds. Raises ValueError when a deterministic
        actor is given noise.
        """
        if noise is not None and self.head_kind == "deterministic":
            raise ValueError("a deterministic actor takes no noise")
        out = self.net.forward(states, params)
        if self.head_kind == "deterministic":
            return ad.scale(out, self.action_scale), None
        d = self.action_dim
        mean_ = ad.slice_cols(out, 0, d)
        if noise is None:
            return ad.scale(ad.tanh(mean_), self.action_scale), None
        log_std = ad.clip(ad.slice_cols(out, d, 2 * d), LOG_STD_MIN, LOG_STD_MAX)
        return ad.squashed_gaussian(mean_, log_std, noise, self.action_scale, with_logp)

    def act_np(self, state: np.ndarray) -> np.ndarray:
        """The greedy action of one 1-D state from the parameters' current values: the region
        "greedy", recorded on the first call and replayed after. It runs rank-1, a gemv with
        the bytes of a batch of one."""
        return plan.replay(self.plans, "greedy", lambda: [ad.evaluate(self.act(state)[0])],
                           [state])[0]


class Critic:
    """Action-value nets Q_i(s, a), one for ddpg and two for td3 and sac; ``q_min``,
    their elementwise minimum, is the clipped double-Q value (Q itself for one net)."""

    def __init__(self, state_dim: int, action_dim: int, rng: np.random.Generator,
                 hidden, n_nets: int = 1):
        dims = [state_dim + action_dim] + list(hidden) + [1]
        acts = ["relu"] * len(hidden) + ["linear"]
        self.nets = [DenseNet(dims, acts, rng, f"q{i + 1}") for i in range(n_nets)]

    def qs(self, states, actions, params=None, count=None) -> list[Node]:
        """Q of the first ``count`` nets (default all), sharing one ``ad.concat``;
        ``params``, if given, holds one value list per net."""
        x = ad.concat(states, actions)
        return [net.forward(x, None if params is None else params[i])
                for i, net in enumerate(self.nets[:count])]

    def q_min(self, states, actions, params=None) -> Node:
        return functools.reduce(ad.minimum, self.qs(states, actions, params))

    def parameters(self) -> list[Variable]:
        return [p for net in self.nets for p in net.params]


MC_VARIANTS = ("feature", "feature-state-action", "param-reg")


class MetaCriticNet:
    """Learned auxiliary loss for the actor; output is always >= 0."""

    def __init__(self, variant: str, actor: Actor, rng: np.random.Generator, hidden: int):
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

    def loss(self, actor: Actor, states, actions=None) -> Node:
        """Scalar auxiliary loss, differentiable in actor and own parameters."""
        if self.variant == "param-reg":
            total = None
            for w, p in zip(self.reg_weights, actor.parameters()):
                term = ad.asum(ad.mul(ad.softplus(w), ad.absval(ad.as_node(p))))
                total = term if total is None else ad.add(total, term)
            return total
        if ad.as_node(states).value.shape[0] == 0:
            raise ValueError("meta-critic loss needs a nonempty batch")
        feats = actor.features(states)
        if self.variant == "feature-state-action":
            if actions is None:
                raise ValueError("feature-state-action variant needs actions")
            x = ad.concat(feats, ad.as_node(states), ad.as_node(actions))
        else:
            x = feats
        return ad.mean(self.f.forward(x))


# ---------------------------------------------------------------------------
# parameter snapshots
# ---------------------------------------------------------------------------

def actor_named_params(actor: Actor) -> list[tuple[str, np.ndarray]]:
    return [(p.name, p.value) for p in actor.parameters()]


def save_params(path, named: list[tuple[str, np.ndarray]]) -> None:
    """Write a snapshot: one line per tensor, tab-separated name, shape, values."""
    with open(path, "w") as fh:
        for name, arr in named:
            a = np.asarray(arr, dtype=np.float64)
            shape = ",".join(str(d) for d in a.shape) or "-"
            vals = " ".join(repr(float(v)) for v in a.ravel())
            fh.write(f"{name}\t{shape}\t{vals}\n")


def load_params(path) -> list[tuple[str, np.ndarray]]:
    """Read a ``save_params`` snapshot; a malformed line raises a ValueError naming it."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                name, shape_s, vals_s = line.split("\t")
                shape = () if shape_s == "-" else tuple(int(d) for d in shape_s.split(","))
                vals = np.array([float(v) for v in vals_s.split(" ")] if vals_s else [],
                                dtype=np.float64)
                out.append((name, vals.reshape(shape)))
            except ValueError as err:
                raise ValueError(f"{path}, line {lineno}: not a snapshot line ({err})") from None
    return out


def unflatten_values(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    out, o = [], 0
    for v in like:
        n = v.size
        out.append(flat[o:o + n].reshape(v.shape).copy())
        o += n
    if o != flat.size:
        raise ValueError("flat vector length mismatch")
    return out
