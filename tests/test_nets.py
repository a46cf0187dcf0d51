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
    for p in actor.parameters()[:-2]:  # all but the head
        p.set_value(np.zeros_like(p.value))
    states = np.random.default_rng(1).normal(size=(5, 3))
    feats = ad.evaluate(actor.features(states))
    assert np.all(feats == 0.0)


def test_identity_linear_layer_passes_states_through(raw_forward):
    rng = np.random.default_rng(0)
    net = nets.DenseNet([3, 3], ["linear"], rng)
    w, b = net.params
    w.set_value(np.eye(3))
    b.set_value(np.zeros(3))
    x = rng.normal(size=(4, 3))
    np.testing.assert_allclose(raw_forward(net, x), x)
    for rows in (x, x[0]):  # a batch, and one 1-D row
        out = ad.evaluate(net.forward(rows))
        np.testing.assert_allclose(out, rows)
        assert out.tobytes() == raw_forward(net, rows).tobytes()


def test_graph_forward_records_one_node_per_layer(nodes_built):
    net = nets.DenseNet([3, 7, 5, 1], ["relu", "tanh", "softplus"], np.random.default_rng(0))
    x = ad.constant(np.random.default_rng(1).normal(size=(4, 3)))
    out = []
    assert nodes_built(lambda: out.append(net.forward(x))) == ["dense"] * 3
    assert out[0].attrs == ("softplus",)


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
    a_mean, no_logp = actor.act(states)
    a_sample, logp = actor.act(states, np.zeros((4, 2)))
    np.testing.assert_allclose(ad.evaluate(a_sample), ad.evaluate(a_mean))
    assert no_logp is None and logp is not None


def test_noise_alone_selects_a_sample(raw_forward):
    states = np.random.default_rng(0).normal(size=(4, 3))
    det = make_actor(seed=5)
    for state, noise in ((states, np.zeros((4, 2))), (states[0], np.zeros(2))):
        with pytest.raises(ValueError, match="no noise"):
            det.act(state, noise)
    # without noise a gaussian actor gives scale * tanh(mean), the same bits
    # on the graph, for a batch and replayed for each 1-D state, as in numpy
    gauss = make_actor(head="gaussian", seed=5)
    greedy = 1.5 * np.tanh(raw_forward(gauss.net, states)[:, :2])
    assert np.array_equal(ad.evaluate(gauss.act(states)[0]), greedy)
    for state in states:
        assert np.array_equal(gauss.act_np(state), 1.5 * np.tanh(raw_forward(gauss.net, state)[:2]))


@pytest.mark.parametrize("head, sampled", [("deterministic", False), ("gaussian", False),
                                           ("gaussian", True)],
                         ids=["deterministic", "gaussian-greedy", "gaussian-sampled"])
@pytest.mark.parametrize("state_dim, action_dim", [(3, 1), (4, 2)])
def test_single_state_runs_rank1_with_the_bytes_of_a_batch_of_one(
        head, sampled, state_dim, action_dim, monkeypatch, raw_act):
    # a greedy action is act_np's replay, a sample the graph's 1-D row;
    # the oracle is numpy's batch of one
    actor = make_actor(head, state_dim, action_dim, seed=13, hidden=(64, 64))
    rng = np.random.default_rng(13)
    dense, ranks = ad.NumpyOps.dense, set()

    def spy(x, w, b, act):
        ranks.add(x.ndim)
        return dense(x, w, b, act)

    monkeypatch.setattr(ad.NumpyOps, "dense", staticmethod(spy))
    for _ in range(300):
        s = rng.normal(size=state_dim) * 3
        n = rng.normal(size=action_dim) if sampled else None
        ranks.clear()
        if sampled:
            a, logp = (ad.evaluate(x) for x in actor.act(s, n))
        else:
            a, logp = actor.act_np(s), None
        assert ranks == {1}
        batch_a, batch_logp = raw_act(actor, s[None, :], None if n is None else n[None, :])
        assert a.shape == (action_dim,) and a.tobytes() == batch_a[0].tobytes()
        if sampled:
            assert logp.shape == (1,) and logp.tobytes() == batch_logp[0].tobytes()
        else:
            assert logp is None and batch_logp is None
    if sampled:
        return
    # an (E, 1, D) stack of rows runs rank-3, each slice as its row's gemv: each row of
    # the greedy actions has the bytes of act_np of the 1-D row
    for e in (1, 2, 10, 64):
        stack = rng.normal(size=(e, 1, state_dim)) * 3
        ranks.clear()
        a = actor.act_np(stack)
        assert ranks == {3} and a.shape == (e, 1, action_dim)
        for i in range(e):
            assert a[i, 0].tobytes() == actor.act_np(stack[i, 0]).tobytes()


def test_act_np_replays_on_the_values_set_after_it_recorded(raw_act, nodes_built):
    # the CLI's eval and reward_surface set the parameters, then take actions
    actor = make_actor(seed=17, hidden=(16, 16))
    rng = np.random.default_rng(17)
    s = rng.normal(size=3)
    before = actor.act_np(s)
    recorded = actor.plans["greedy"]
    actor.set_param_values([rng.normal(size=p.shape) for p in actor.parameters()])
    after = []
    assert nodes_built(lambda: after.append(actor.act_np(s))) == []
    assert actor.plans["greedy"] is recorded
    assert after[0].tobytes() == raw_act(actor, s)[0].tobytes()
    assert not np.array_equal(after[0], before)


def test_a_deep_copy_replays_on_its_own_values(raw_act):
    # target nets are deep copies; a copy made after its source recorded keeps the plan
    actor = make_actor(seed=17, hidden=(16, 16))
    s = np.random.default_rng(17).normal(size=3)
    before = actor.act_np(s)
    twin = copy.deepcopy(actor)
    twin.set_param_values([np.zeros(p.shape) for p in twin.parameters()])
    assert twin.act_np(s).tobytes() == raw_act(twin, s)[0].tobytes()
    assert actor.act_np(s).tobytes() == before.tobytes()
    # a copy made before any recording records on its own arrays, then replays on them
    source = make_actor(seed=17, hidden=(16, 16))
    early = copy.deepcopy(source)
    assert early.act_np(s).tobytes() == before.tobytes()
    recorded = early.plans["greedy"]
    rng = np.random.default_rng(18)
    early.set_param_values([rng.normal(size=p.shape) for p in early.parameters()])
    assert early.act_np(s).tobytes() == raw_act(early, s)[0].tobytes()
    assert early.plans["greedy"] is recorded and source.plans == {}
    assert source.act_np(s).tobytes() == before.tobytes()


def test_actor_is_one_net_whose_prefix_gives_the_features():
    actor = make_actor(head="gaussian", seed=7, hidden=(8, 5))
    assert actor.net.dims == [3, 8, 5, 4] and actor.feature_dim == 5
    assert [p.name for p in actor.parameters()] == [f"actor.{i}.{k}" for i in range(3)
                                                    for k in "Wb"]
    states = np.random.default_rng(1).normal(size=(6, 3))
    h = states
    for w, b in zip(actor.parameters()[:-2:2], actor.parameters()[1:-2:2]):
        h = np.maximum(h @ w.value + b.value, 0.0)
    assert np.array_equal(ad.evaluate(actor.features(states)), h)


def test_actions_respect_bounds(raw_act):
    actor = make_actor(head="gaussian", seed=7, scale=0.7)
    states = np.random.default_rng(1).normal(size=(64, 3)) * 5
    noise = np.random.default_rng(2).normal(size=(64, 2)) * 3
    a = ad.evaluate(actor.act(states, noise, with_logp=False)[0])
    assert a.tobytes() == raw_act(actor, states, noise)[0].tobytes()
    assert np.all(np.abs(a) <= 0.7 + 1e-12)


def test_squashed_logp_matches_quadrature(raw_forward):
    # integrate the implied density of the 1-D squashed action over a grid
    # and compare exp(logp) against it pointwise
    actor = make_actor(head="gaussian", state_dim=2, action_dim=1, scale=1.0, seed=9)
    state = np.random.default_rng(3).normal(size=(1, 2))
    out = raw_forward(actor.net, state)
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
    grid_logp = ad.evaluate(actor.act(grid_states, grid_noise)[1])
    assert grid_logp.shape == (a_grid.size, 1)
    squashed_mass = np.trapezoid(np.exp(grid_logp[:, 0]), a_grid)
    assert abs(squashed_mass - 1.0) < 1e-6

    for eps in (-0.8, -0.3, 0.0, 0.4, 1.2):
        noise = np.array([[eps]])
        logp = ad.evaluate(actor.act(state, noise)[1])
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
        _, logp = actor.act(states, noise, [ad.constant(v) for v in vals])
        return float(ad.evaluate(ad.mean(logp)))

    _, logp = actor.act(states, noise)
    grads = ad.backward(ad.mean(logp), params)
    flat_g = np.concatenate(grads, axis=None)
    flat_p = np.concatenate([p.value for p in params], axis=None)
    fd = ad.fd_gradient(loss_at, flat_p, epsilon=1e-5)
    denom = np.maximum(np.maximum(np.abs(flat_g), np.abs(fd)), 1e-8)
    assert np.max(np.abs(flat_g - fd) / denom) < 1e-5


@pytest.mark.parametrize("variant", nets.MC_VARIANTS)
def test_meta_loss_nonnegative_and_permutation_invariant(variant):
    rng = np.random.default_rng(13)
    actor = make_actor(seed=13)
    mc = nets.MetaCriticNet(variant, actor, rng, hidden=100)
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
    mc = nets.MetaCriticNet("feature", actor, np.random.default_rng(17), hidden=100)
    w, b = mc.f.params[-2], mc.f.params[-1]
    w.set_value(np.zeros_like(w.value))
    b.set_value(np.zeros_like(b.value))
    s = np.random.default_rng(0).normal(size=(9, 3))
    v = float(ad.evaluate(mc.loss(actor, s, np.zeros((9, 2)))))
    assert v == pytest.approx(np.log(2.0))


def test_param_reg_effective_ones_sums_abs():
    actor = make_actor(seed=19, state_dim=1, action_dim=1, hidden=(2, 2))
    mc = nets.MetaCriticNet("param-reg", actor, np.random.default_rng(19), hidden=100)
    raw_one = nets.softplus_inverse(1.0)
    for w in mc.reg_weights:
        w.set_value(np.full_like(w.value, raw_one))
    total_abs = sum(float(np.abs(p.value).sum()) for p in actor.parameters())
    v = float(ad.evaluate(mc.loss(actor, np.zeros((1, 1)), np.zeros((1, 1)))))
    assert v == pytest.approx(total_abs, rel=1e-12)

    # the spec's tiny example: weights one, parameter values {1, -2, 3}
    flat = np.concatenate([p.value for p in actor.parameters()], axis=None)
    probe = np.zeros_like(flat)
    probe[:3] = [1.0, -2.0, 3.0]
    actor.set_param_values(nets.unflatten_values(probe, [p.value for p in actor.parameters()]))
    v = float(ad.evaluate(mc.loss(actor, np.zeros((1, 1)), np.zeros((1, 1)))))
    assert v == pytest.approx(6.0, rel=1e-12)


def test_meta_loss_gradient_reaches_actor():
    actor = make_actor(seed=23)
    for variant in ("feature", "feature-state-action"):
        mc = nets.MetaCriticNet(variant, actor, np.random.default_rng(23), hidden=100)
        s = np.random.default_rng(1).normal(size=(8, 3))
        a = np.random.default_rng(2).normal(size=(8, 2))
        loss = mc.loss(actor, s, a)
        grads = ad.backward(loss, actor.parameters()[:-2])  # the feature layers
        assert any(np.abs(g).max() > 0 for g in grads), variant


def test_meta_loss_empty_batch_rejected():
    actor = make_actor(seed=29)
    mc = nets.MetaCriticNet("feature", actor, np.random.default_rng(29), hidden=100)
    with pytest.raises(ValueError):
        mc.loss(actor, np.zeros((0, 3)), np.zeros((0, 2)))


def test_polyak_identities():
    rng = np.random.default_rng(31)
    a = nets.DenseNet([3, 4, 2], ["relu", "linear"], rng).params
    b = nets.DenseNet([3, 4, 2], ["relu", "linear"], rng).params
    t = copy.deepcopy(a)
    for tv, bp in zip(nets.polyak(t, b, 1.0), b):
        np.testing.assert_array_equal(tv, bp.value)
    for tv, ap in zip(nets.polyak(t, b, 0.0), a):
        np.testing.assert_array_equal(tv, ap.value)
    for p in t:
        p.set_value(np.zeros_like(p.value))
    ones = copy.deepcopy(b)
    for p in ones:
        p.set_value(np.ones_like(p.value))
    for tv in nets.polyak(t, ones, 0.005):
        np.testing.assert_allclose(tv, 0.005)
    # it sets nothing: the target keeps its values
    for tp in t:
        np.testing.assert_array_equal(tp.value, 0.0)
    with pytest.raises(ValueError):  # same count, other widths
        nets.polyak(t, nets.DenseNet([3, 5, 2], ["relu", "linear"], rng).params, 0.5)
    with pytest.raises(ValueError):  # (4,) would broadcast into a (3, 4) target
        nets.polyak(t[:1], b[1:2], 0.5)
    with pytest.raises(ValueError):
        nets.polyak(t, b[:2], 0.5)
    with pytest.raises(ValueError):
        nets.polyak(t, b, 1.5)


def test_snapshot_roundtrip(tmp_path):
    actor = make_actor(seed=37)
    named = nets.actor_named_params(actor)
    path = tmp_path / "snap.txt"
    nets.save_params(path, named)
    loaded = nets.load_params(path)
    assert [n for n, _ in loaded] == [n for n, _ in named]
    for (_, a), (_, b) in zip(named, loaded):
        np.testing.assert_array_equal(a, b)


def _forward_pairs(case, override, raw_forward, raw_act):
    """(graph output, numpy oracle output) pairs of one forward on random inputs."""
    rng = np.random.default_rng(41)
    states = rng.normal(size=(5, 3))
    kind, variant = case.split("-", 1)

    def params_for(variables):
        return [rng.normal(size=v.shape) * 0.5 for v in variables] if override else None

    if kind == "dense":
        net = nets.DenseNet([3, 7, 4], [variant, variant], rng)
        params = params_for(net.params)
        return [(net.forward(x, params), raw_forward(net, x, params)) for x in (states, states[0])]
    # "mean" is the gaussian actor without noise, its greedy action
    actor = make_actor(head="deterministic" if variant == "deterministic" else "gaussian",
                       seed=41)
    noise = rng.normal(size=(5, 2)) if variant == "sample" else None
    params = params_for(actor.parameters())
    pairs = []
    for i in (None, 0, 1, 2, 3, 4):  # the batch, then each state alone
        rows = slice(None) if i is None else slice(i, i + 1)
        n = None if noise is None else noise[rows]
        graph = [ad.evaluate(g) if g is not None else None
                 for g in actor.act(states[rows], n, params)]
        raw = raw_act(actor, states[rows], n, params)
        if i is not None:  # a 1-D state and noise give the bytes of a batch of one
            row = actor.act(states[i], None if n is None else n[0], params)
            pairs += [(g, r[0]) for g, r in zip(row, raw) if r is not None]
        if variant != "sample":
            assert graph[1] is None and raw[1] is None
            graph, raw = graph[:1], raw[:1]
        pairs += zip(graph, raw)
    return pairs


@pytest.mark.parametrize("override", [False, True], ids=["stored", "override"])
@pytest.mark.parametrize("case", [f"dense-{act}" for act in ("relu", "tanh", "softplus", "linear")]
                         + ["actor-deterministic", "actor-mean", "actor-sample"])
def test_graph_and_numpy_forwards_agree(case, override, raw_forward, raw_act):
    for graph, raw in _forward_pairs(case, override, raw_forward, raw_act):
        assert isinstance(raw, np.ndarray)
        assert np.array_equal(ad.evaluate(graph), raw)


@pytest.mark.parametrize("n_nets", [1, 2])
def test_critic_q_min_is_the_elementwise_minimum_of_qs(n_nets):
    rng = np.random.default_rng(43)
    states, actions = rng.normal(size=(6, 3)), rng.uniform(-1.0, 1.0, size=(6, 2))
    critic = nets.Critic(3, 2, rng, hidden=(5,), n_nets=n_nets)
    qs = [q.value for q in critic.qs(states, actions)]
    assert len(qs) == n_nets and len(critic.qs(states, actions, count=1)) == 1
    np.testing.assert_array_equal(critic.q_min(states, actions).value, np.minimum.reduce(qs))
