import copy

import numpy as np
import pytest

from mcrl import autodiff as ad
from mcrl import nets


def make_actor(head="deterministic", state_dim=3, action_dim=2, scale=1.5, seed=0,
               hidden=(8, 8)):
    return nets.Actor(state_dim, action_dim, scale, np.random.default_rng(seed),
                      hidden=hidden, head_kind=head)


def test_zero_weight_feature_net_gives_zero_features():
    actor = make_actor()
    for p in actor.feature.params:
        p.set_value(np.zeros_like(p.value))
    states = np.random.default_rng(1).normal(size=(5, 3))
    feats = ad.evaluate(actor.features(states))
    assert np.all(feats == 0.0)


def test_identity_linear_layer_passes_states_through():
    rng = np.random.default_rng(0)
    net = nets.DenseNet([3, 3], ["linear"], rng)
    net.set_param_values([np.eye(3), np.zeros(3)])
    x = rng.normal(size=(4, 3))
    np.testing.assert_allclose(net.forward(x, ops=ad.NumpyOps), x)
    np.testing.assert_allclose(ad.evaluate(net.forward(x)), x)


def test_features_are_rowwise():
    actor = make_actor(seed=3)
    states = np.random.default_rng(2).normal(size=(6, 3))
    perm = np.array([4, 0, 5, 2, 1, 3])
    f1 = ad.evaluate(actor.features(states))
    f2 = ad.evaluate(actor.features(states[perm]))
    np.testing.assert_array_equal(f1[perm], f2)


def test_deterministic_zero_weights_zero_action():
    actor = make_actor()
    for p in actor.parameters():
        p.set_value(np.zeros_like(p.value))
    a, logp = actor.act(np.zeros((1, 3)))
    assert logp is None
    np.testing.assert_allclose(ad.evaluate(a), 0.0)


def test_gaussian_zero_noise_equals_mean_mode():
    actor = make_actor(head="gaussian", seed=5)
    states = np.random.default_rng(0).normal(size=(4, 3))
    a_mean, _ = actor.act(states, mode="mean")
    a_sample, logp = actor.act(states, mode="sample", noise=np.zeros((4, 2)))
    np.testing.assert_allclose(ad.evaluate(a_sample), ad.evaluate(a_mean))
    assert logp is not None
    with pytest.raises(ValueError):
        actor.act(states, mode="sample")


def test_actions_respect_bounds():
    actor = make_actor(head="gaussian", seed=7, scale=0.7)
    states = np.random.default_rng(1).normal(size=(64, 3)) * 5
    noise = np.random.default_rng(2).normal(size=(64, 2)) * 3
    a = actor.act_np(states, mode="sample", noise=noise)
    assert np.all(np.abs(a) <= 0.7 + 1e-12)


def test_squashed_logp_matches_quadrature():
    # integrate the implied density of the 1-D squashed action over a grid
    # and compare exp(logp) against it pointwise
    actor = make_actor(head="gaussian", state_dim=2, action_dim=1, scale=1.0, seed=9)
    state = np.random.default_rng(3).normal(size=(1, 2))
    out = actor.head_out(state, ops=ad.NumpyOps)
    mu, log_std = out[0, 0], np.clip(out[0, 1], nets.LOG_STD_MIN, nets.LOG_STD_MAX)
    sigma = np.exp(log_std)

    # sanity check on the grid: the pre-squash Gaussian integrates to 1
    us = np.linspace(mu - 8 * sigma, mu + 8 * sigma, 20001)
    pu = np.exp(-0.5 * ((us - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    mass = np.trapezoid(pu, us)
    assert abs(mass - 1.0) < 1e-6

    # density of a = tanh(u), u ~ N(mu, sigma): p(a) = N(atanh(a)) / (1 - a^2).
    # The noise that yields action a is (atanh(a) - mu) / sigma; the
    # program's own exp(logp) over a grid on (-1, 1) must integrate to 1.
    a_grid = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 200001)
    grid_noise = ((np.arctanh(a_grid) - mu) / sigma)[:, None]
    grid_states = np.repeat(state, a_grid.size, axis=0)
    _, grid_logp = actor.act_np(grid_states, mode="sample", noise=grid_noise,
                                return_logp=True)
    assert grid_logp.shape == (a_grid.size, 1)
    squashed_mass = np.trapezoid(np.exp(grid_logp[:, 0]), a_grid)
    assert abs(squashed_mass - 1.0) < 1e-6

    for eps in (-0.8, -0.3, 0.0, 0.4, 1.2):
        noise = np.array([[eps]])
        a, logp = actor.act_np(state, mode="sample", noise=noise, return_logp=True)
        assert logp.shape == (1, 1)
        u = mu + sigma * eps
        p_analytic = (np.exp(-0.5 * eps**2) / (sigma * np.sqrt(2 * np.pi))
                      / (1.0 - np.tanh(u) ** 2))
        assert abs(float(logp[0, 0]) - np.log(p_analytic)) < 1e-6


def test_logp_gradient_matches_fd():
    actor = make_actor(head="gaussian", state_dim=2, action_dim=2, seed=11, hidden=(6, 6))
    states = np.random.default_rng(4).normal(size=(3, 2))
    noise = np.random.default_rng(5).normal(size=(3, 2))
    params = actor.parameters()

    def loss_at(values):
        vals = nets.unflatten_values(values, [p.value for p in params])
        _, logp = actor.act(states, mode="sample", noise=noise,
                            params=[ad.constant(v) for v in vals])
        return float(ad.evaluate(ad.mean(logp)))

    _, logp = actor.act(states, mode="sample", noise=noise)
    grads = ad.backward(ad.mean(logp), params)
    flat_g = nets.flatten_values(grads)
    flat_p = nets.flatten_values([p.value for p in params])
    fd = ad.fd_gradient(loss_at, flat_p, epsilon=1e-5)
    denom = np.maximum(np.maximum(np.abs(flat_g), np.abs(fd)), 1e-8)
    assert np.max(np.abs(flat_g - fd) / denom) < 1e-5


@pytest.mark.parametrize("variant", nets.MC_VARIANTS)
def test_meta_loss_nonnegative_and_permutation_invariant(variant):
    rng = np.random.default_rng(13)
    actor = make_actor(seed=13)
    mc = nets.MetaCriticNet(variant, actor, rng)
    for trial in range(20):
        n = int(rng.integers(2, 17))
        s = rng.normal(size=(n, 3))
        a = rng.normal(size=(n, 2))
        v1 = float(ad.evaluate(mc.loss(actor, s, a)))
        perm = rng.permutation(n)
        v2 = float(ad.evaluate(mc.loss(actor, s[perm], a[perm])))
        assert v1 >= 0.0
        assert abs(v1 - v2) <= 1e-9


def test_meta_loss_zero_final_layer_gives_log2():
    actor = make_actor(seed=17)
    mc = nets.MetaCriticNet("feature", actor, np.random.default_rng(17))
    w, b = mc.f.params[-2], mc.f.params[-1]
    w.set_value(np.zeros_like(w.value))
    b.set_value(np.zeros_like(b.value))
    s = np.random.default_rng(0).normal(size=(9, 3))
    v = float(ad.evaluate(mc.loss(actor, s, np.zeros((9, 2)))))
    assert v == pytest.approx(np.log(2.0))


def test_param_reg_effective_ones_sums_abs():
    actor = make_actor(seed=19, state_dim=1, action_dim=1, hidden=(2, 2))
    mc = nets.MetaCriticNet("param-reg", actor, np.random.default_rng(19))
    raw_one = nets.softplus_inverse(1.0)
    for w in mc.reg_weights:
        w.set_value(np.full_like(w.value, raw_one))
    total_abs = sum(float(np.abs(p.value).sum()) for p in actor.parameters())
    v = float(ad.evaluate(mc.loss(actor, np.zeros((1, 1)), np.zeros((1, 1)))))
    assert v == pytest.approx(total_abs, rel=1e-12)

    # the spec's tiny example: weights one, parameter values {1, -2, 3}
    flat = nets.flatten_values([p.value for p in actor.parameters()])
    probe = np.zeros_like(flat)
    probe[:3] = [1.0, -2.0, 3.0]
    actor.set_param_values(nets.unflatten_values(probe, [p.value for p in actor.parameters()]))
    v = float(ad.evaluate(mc.loss(actor, np.zeros((1, 1)), np.zeros((1, 1)))))
    assert v == pytest.approx(6.0, rel=1e-12)


def test_meta_loss_gradient_reaches_actor():
    actor = make_actor(seed=23)
    for variant in ("feature", "feature-state-action"):
        mc = nets.MetaCriticNet(variant, actor, np.random.default_rng(23))
        s = np.random.default_rng(1).normal(size=(8, 3))
        a = np.random.default_rng(2).normal(size=(8, 2))
        loss = mc.loss(actor, s, a)
        grads = ad.backward(loss, actor.feature.params)
        assert any(np.abs(g).max() > 0 for g in grads), variant


def test_meta_loss_empty_batch_rejected():
    actor = make_actor(seed=29)
    mc = nets.MetaCriticNet("feature", actor, np.random.default_rng(29))
    with pytest.raises(ValueError):
        mc.loss(actor, np.zeros((0, 3)), np.zeros((0, 2)))


def test_polyak_identities():
    rng = np.random.default_rng(31)
    a = nets.DenseNet([3, 4, 2], ["relu", "linear"], rng)
    b = nets.DenseNet([3, 4, 2], ["relu", "linear"], rng)
    t = copy.deepcopy(a)
    nets.polyak(t, b, 1.0)
    for tp, bp in zip(t.params, b.params):
        np.testing.assert_array_equal(tp.value, bp.value)
    t = copy.deepcopy(a)
    nets.polyak(t, b, 0.0)
    for tp, ap in zip(t.params, a.params):
        np.testing.assert_array_equal(tp.value, ap.value)
    t = copy.deepcopy(a)
    t.set_param_values([np.zeros_like(p.value) for p in t.params])
    ones = copy.deepcopy(b)
    ones.set_param_values([np.ones_like(p.value) for p in b.params])
    nets.polyak(t, ones, 0.005)
    for tp in t.params:
        np.testing.assert_allclose(tp.value, 0.005)
    mismatched = nets.DenseNet([3, 5, 2], ["relu", "linear"], rng)
    with pytest.raises(ValueError):
        nets.polyak(t, mismatched, 0.5)


def test_snapshot_roundtrip(tmp_path):
    actor = make_actor(seed=37)
    named = nets.actor_named_params(actor)
    path = tmp_path / "snap.txt"
    nets.save_params(path, named)
    loaded = nets.load_params(path)
    assert [n for n, _ in loaded] == [n for n, _ in named]
    for (_, a), (_, b) in zip(named, loaded):
        np.testing.assert_array_equal(a, b)


def _forward_pairs(case, override):
    """(graph output, numpy output) pairs of one forward on random inputs."""
    rng = np.random.default_rng(41)
    states = rng.normal(size=(5, 3))
    kind, variant = case.split("-", 1)

    def params_for(variables):
        return [rng.normal(size=v.shape) * 0.5 for v in variables] if override else None

    if kind == "dense":
        net = nets.DenseNet([3, 7, 4], [variant, variant], rng)
        params = params_for(net.params)
        return [(net.forward(states, params), net.forward(states, params, ops=ad.NumpyOps))]
    if kind == "critic":
        critic = nets.Critic(3, 2, rng, hidden=(6, 6), twin=True)
        q = getattr(critic, variant)
        actions = rng.uniform(-1.0, 1.0, size=(5, 2))
        params = params_for(critic.net.params)
        return [(q(states, actions, params), q(states, actions, params, ops=ad.NumpyOps))]
    actor = make_actor(head="deterministic" if variant == "deterministic" else "gaussian",
                       seed=41)
    noise = rng.normal(size=(5, 2)) if variant == "sample" else None
    params = params_for(actor.parameters())
    pairs = []
    for i in (None, 0, 1, 2, 3, 4):  # the batch, then each state alone
        rows = slice(None) if i is None else slice(i, i + 1)
        n = None if noise is None else noise[rows]
        graph = actor.act(states[rows], variant, n, params)
        if i is None:
            raw = actor.act_np(states, variant, n, params, return_logp=True)
        else:  # a 1-D state and noise against a graph batch of one
            raw = actor.act_np(states[i], variant, None if n is None else n[0], params,
                               return_logp=True)
            graph = [None if g is None else g.value[0] for g in graph]
        if variant != "sample":
            assert graph[1] is None and raw[1] is None
            graph, raw = graph[:1], raw[:1]
        pairs += zip(graph, raw)
    return pairs


@pytest.mark.parametrize("override", [False, True], ids=["stored", "override"])
@pytest.mark.parametrize("case", [f"dense-{act}" for act in ("relu", "tanh", "softplus", "linear")]
                         + ["actor-deterministic", "actor-mean", "actor-sample",
                            "critic-q", "critic-q_twin"])
def test_graph_and_numpy_forwards_agree(case, override):
    for graph, raw in _forward_pairs(case, override):
        assert isinstance(raw, np.ndarray)
        assert np.array_equal(ad.evaluate(graph), raw)
