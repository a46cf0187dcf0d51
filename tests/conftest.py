import numpy as np
import pytest

from mcrl import autodiff as ad
from mcrl import nets


@pytest.fixture
def nodes_built(monkeypatch):
    """``nodes_built(fn)`` runs ``fn`` and returns the ``op`` of each Node it built, in order."""
    def run(fn):
        made = []
        real_init = ad.Node.__init__

        def recording_init(node, op, *args, **kwargs):
            made.append(op)
            real_init(node, op, *args, **kwargs)

        monkeypatch.setattr(ad.Node, "__init__", recording_init)
        try:
            fn()
        finally:
            monkeypatch.setattr(ad.Node, "__init__", real_init)
        return made

    return run


def _raw_forward(net, x, params=None, layers=None):
    """``net``'s forward in plain numpy, in ``NumpyOps.dense``'s order: h = x @ w; h += b,
    then the activation. ``params`` holds value arrays that override the stored ones."""
    values = [p.value for p in net.params] if params is None else params
    h = x
    for i, act in enumerate(net.activations[:layers]):
        h = h @ values[2 * i]
        h += values[2 * i + 1]
        if act == "relu":
            h = np.maximum(h, 0.0)
        elif act == "tanh":
            h = np.tanh(h)
        elif act == "softplus":
            h = np.logaddexp(0.0, h)
    return h


def _raw_act(actor, states, noise=None, params=None):
    """``actor.act``'s (action, log_prob) in plain numpy, for a batch or one 1-D state."""
    out = _raw_forward(actor.net, states, params)
    c = actor.action_scale
    if actor.head_kind == "deterministic":
        return out * c, None
    d = actor.action_dim
    mean = out[..., :d]
    if noise is None:
        return np.tanh(mean) * c, None
    log_std = np.clip(out[..., d:], nets.LOG_STD_MIN, nets.LOG_STD_MAX)
    u = mean + np.exp(log_std) * noise
    t = np.tanh(u)
    z = (u - mean) * np.exp(-log_std)
    density = np.add.reduce(z * z * -0.5 - log_std, -1, keepdims=True) + -0.5 * ad.LOG_2PI * d
    corr = np.log((1.0 - t * t) * c + ad.SQUASH_EPS)
    return t * c, density - np.add.reduce(corr, -1, keepdims=True)


@pytest.fixture
def raw_forward():
    """The independent oracle of ``DenseNet.forward``, written with numpy alone."""
    return _raw_forward


@pytest.fixture
def raw_act():
    """The independent oracle of ``Actor.act``, written with numpy alone."""
    return _raw_act
