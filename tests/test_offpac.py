import copy
import pickle

import numpy as np
import pytest

from mcrl import autodiff as ad
from mcrl import harness, metacritic, nets, offpac, plan
from mcrl.envs import EnvSpec
from mcrl.replay import Batch, ReplayBuffer


SPEC = EnvSpec(state_dim=3, action_dim=2, action_bound=1.0, horizon=50)


def make_state(algo, seed=0, **cfg_kw):
    cfg = harness.RunConfig(algo=algo, hidden_actor=(8, 8), hidden_critic=(8, 8), **cfg_kw)
    return offpac.AlgoState(cfg, SPEC, np.random.default_rng(seed))


def batch_from_rows(rows):
    """Column-stack (s, a, r, s_next) rows into a Batch, as sample_batch returns."""
    s, a, r, s_next = zip(*rows)
    return Batch(s=np.stack(s), a=np.stack(a), r=np.array(r, dtype=np.float64)[:, None],
                 s_next=np.stack(s_next))


def random_batch(n=16, seed=1):
    rng = np.random.default_rng(seed)
    return batch_from_rows([(rng.normal(size=3), rng.uniform(-1, 1, size=2),
                             float(rng.normal()), rng.normal(size=3)) for _ in range(n)])


def target_noise(state, n, seed):
    """``critic_update``'s target-policy noise: None for ddpg, else a row per transition."""
    if state.cfg.algo == "ddpg":
        return None
    return np.random.default_rng(seed).standard_normal((n, SPEC.action_dim))


def set_constant_critic(state, c):
    """Make Q(s,a) = c for all inputs (zero weights, bias c on output)."""
    for net in state.critic.nets:
        for p in net.params:
            p.set_value(np.zeros_like(p.value))
        net.params[-1].set_value(np.array([c]))


def test_ddpg_actor_loss_with_constant_critic():
    state = make_state("ddpg")
    set_constant_critic(state, 3.25)
    loss = offpac.actor_loss(state, random_batch())
    assert float(ad.evaluate(loss)) == pytest.approx(-3.25)


def test_sac_alpha_zero_single_critic_equals_ddpg_form():
    state = make_state("sac", seed=2, alpha=0.0)
    # force Q2 == Q1 so min(Q1, Q2) == Q1
    q1_net, q2_net = state.critic.nets
    for t, p in zip(q2_net.params, q1_net.params):
        t.set_value(p.value)
    batch = random_batch()
    noise = np.zeros((len(batch), 2))
    loss_sac = float(ad.evaluate(offpac.actor_loss(state, batch, noise=noise)))
    # ddpg-style loss with the same actor's greedy action and same critic
    a, _ = state.actor.act(batch.s)
    q1, = state.critic.qs(batch.s, a, [[p.value for p in q.params] for q in state.critic.nets],
                          count=1)
    loss_ddpg = float(ad.evaluate(ad.mean(ad.neg(q1))))
    assert loss_sac == pytest.approx(loss_ddpg, rel=1e-12)


def test_td3_actor_loss_ignores_twin():
    state = make_state("td3", seed=3)
    batch = random_batch()
    l1 = float(ad.evaluate(offpac.actor_loss(state, batch)))
    rng = np.random.default_rng(7)
    for p in state.critic.nets[1].params:
        p.set_value(p.value + rng.normal(size=p.value.shape))
    l2 = float(ad.evaluate(offpac.actor_loss(state, batch)))
    assert l1 == l2


def test_actor_loss_gradient_wrt_critic_is_zero():
    for algo in offpac.ALGOS:
        state = make_state(algo, seed=4)
        batch = random_batch()
        noise = state.actor_noise(len(batch), np.random.default_rng(0))
        loss = offpac.actor_loss(state, batch, noise=noise)
        grads = ad.backward(loss, state.critic.parameters())
        assert all(np.all(g == 0.0) for g in grads), algo


def test_critic_targets_gamma_zero():
    for algo in offpac.ALGOS:
        state_g0 = make_state(algo, seed=5, gamma=0.0)
        b = random_batch(seed=9)
        y0 = offpac.critic_targets(state_g0, b, target_noise(state_g0, len(b), 0))
        np.testing.assert_allclose(y0, b.r)


@pytest.mark.parametrize("algo", offpac.ALGOS)
def test_target_nets_start_as_independent_copies(algo):
    state = make_state(algo, seed=8)
    pairs = [(state.critic, state.target_critic)]
    if state.target_actor is not None:
        pairs.append((state.actor, state.target_actor))
    for live, target in pairs:
        assert type(target) is type(live) and vars(target).keys() == vars(live).keys()
        before = [p.value.copy() for p in target.parameters()]
        for p, t in zip(live.parameters(), target.parameters()):
            assert p is not t and p.name == t.name
            np.testing.assert_array_equal(p.value, t.value)
            p.set_value(p.value + 1.0)
        for b, t in zip(before, target.parameters()):
            np.testing.assert_array_equal(b, t.value)


def test_critic_targets_are_gradient_isolated():
    # the targets are a value: the TD loss reads them as a constant
    state = make_state("td3", seed=6)
    batch = random_batch()
    y = offpac.critic_targets(state, batch, target_noise(state, len(batch), 1))
    assert isinstance(y, np.ndarray)
    target_params = (state.target_critic.parameters()
                     + state.target_actor.parameters())
    q1 = state.critic.qs(batch.s, batch.a)[0]
    loss = ad.mean(ad.square(ad.sub(q1, ad.constant(y))))
    grads = ad.backward(loss, target_params)
    assert all(np.all(g == 0.0) for g in grads)


@pytest.mark.parametrize("algo", offpac.ALGOS)
def test_critic_targets_give_the_raw_array_formula_bits(algo, raw_forward, raw_act):
    state = make_state(algo, seed=37)
    for p in state.actor.parameters():  # the live actor now differs from its target copy
        p.set_value(p.value + 0.1)
    batch = random_batch(n=48, seed=38)
    noise = target_noise(state, len(batch), 39)
    h, c = state.cfg, SPEC.action_bound
    if algo == "sac":
        a2, logp2 = raw_act(state.actor, batch.s_next, noise)
    else:
        a2, _ = raw_act(state.target_actor, batch.s_next)
    if algo == "td3":
        eps = np.clip(noise * (h.target_noise * c), -h.noise_clip * c, h.noise_clip * c)
        a2 = np.clip(a2 + eps, -c, c)
    x = np.concatenate([batch.s_next, a2], axis=1)
    q2 = np.minimum.reduce([raw_forward(net, x) for net in state.target_critic.nets])
    if algo == "sac":
        q2 = q2 - h.alpha * logp2
    want = batch.r + h.gamma * q2
    assert offpac.critic_targets(state, batch, noise).tobytes() == want.tobytes()


@pytest.mark.parametrize("optimizer", sorted(offpac.OPTIMIZERS))
def test_graph_steps_give_the_raw_array_formula_bits(optimizer, nodes_built):
    # the oracle is the raw-array Sgd, Adam and polyak the steps were written as
    rng = np.random.default_rng(41)
    net, target = (nets.DenseNet([3, 4, 2], ["relu", "linear"], rng) for _ in range(2))
    lr, tau, (b1, b2, eps) = 0.3, 0.05, (offpac.Adam.B1, offpac.Adam.B2, offpac.Adam.EPS)
    # copies: a commit writes into the arrays the Variables keep
    want = [p.value.copy() for p in net.params]
    want_target = [p.value.copy() for p in target.params]
    opt = offpac.OPTIMIZERS[optimizer](net.params, lr)
    target_flat = ad.pack(target.params, "target")
    m, v = [np.zeros_like(w) for w in want], [np.zeros_like(w) for w in want]
    plans = {}
    for t in range(1, 5):
        grads = [rng.normal(size=w.shape) * 10.0 ** rng.integers(-3, 3) for w in want]

        def region():
            nxt = opt.step(grads)
            return nxt + nets.polyak([target_flat], nxt[:1], tau)

        built = nodes_built(lambda: plan.replay(
            plans, "step", region, grads, opt.writes + [target_flat]))
        assert (built == []) == (t > 1)  # recorded once, then replayed
        if optimizer == "sgd":
            want = [w - lr * g for w, g in zip(want, grads)]
        else:
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            m = [b1 * mi + (1.0 - b1) * g for mi, g in zip(m, grads)]
            v = [b2 * vi + (1.0 - b2) * (g * g) for vi, g in zip(v, grads)]
            want = [w - lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
                    for w, mi, vi in zip(want, m, v)]
            assert ([opt.m.value.tobytes(), opt.v.value.tobytes()]
                    == [np.concatenate(x, axis=None).tobytes() for x in (m, v)])
            assert opt.t.value == t
        want_target = [(1.0 - tau) * wt + tau * w for wt, w in zip(want_target, want)]
        assert [p.value.tobytes() for p in net.params] == [w.tobytes() for w in want]
        assert [p.value.tobytes() for p in target.params] == [w.tobytes() for w in want_target]


def test_td3_twin_swap_leaves_min_target_unchanged():
    state = make_state("td3", seed=7)
    batch = random_batch()
    noise = target_noise(state, len(batch), 3)
    y1 = offpac.critic_targets(state, batch, noise)
    q1, q2 = state.target_critic.nets
    for p1, p2 in zip(q1.params, q2.params):
        v1 = p1.value.copy()
        p1.set_value(p2.value)
        p2.set_value(v1)
    y2 = offpac.critic_targets(state, batch, noise)
    np.testing.assert_array_equal(y1, y2)


def test_sac_entropy_monotonicity():
    batch = random_batch(seed=11)
    noise = np.random.default_rng(12).standard_normal((len(batch), 2)) * 0.1
    losses = {}
    logp_mean = None
    for alpha in (0.1, 0.5, 1.0):
        state = make_state("sac", seed=13, alpha=alpha)
        # narrow policy: log_std = -3 makes the density high, so log pi > 0
        w, b = state.actor.parameters()[-2:]
        w.set_value(np.zeros_like(w.value))
        b.set_value(np.array([0.2, -0.1, -3.0, -3.0]))
        a, logp = state.actor.act(batch.s, noise)
        logp_mean = float(ad.evaluate(ad.mean(logp)))
        losses[alpha] = float(ad.evaluate(offpac.actor_loss(state, batch, noise=noise)))
    assert logp_mean > 0.0
    assert losses[0.1] < losses[0.5] < losses[1.0]


def test_single_transition_regression_converges():
    state = make_state("ddpg", seed=17, gamma=0.0, optimizer="adam")
    buf = ReplayBuffer(capacity=4, state_dim=3, action_dim=2)
    buf.push(np.array([0.1, -0.2, 0.3]), np.array([0.5, -0.5]), 0.7, np.zeros(3))
    rng = np.random.default_rng(0)
    for _ in range(2000):
        batch = buf.sample_batch(1, rng)
        offpac.critic_update(state, batch, rng)
    q = state.critic.q_min(np.array([[0.1, -0.2, 0.3]]), np.array([[0.5, -0.5]]))
    assert abs(float(q.value[0, 0]) - 0.7) < 1e-3


def test_exploration_action_zero_noise_and_clamping():
    state = make_state("ddpg", seed=19, expl_noise=0.0)
    s = np.random.default_rng(1).normal(size=3)
    a_det = state.actor.act_np(s)
    a_exp = offpac.exploration_action(state, s, np.random.default_rng(2))
    np.testing.assert_array_equal(a_det, a_exp)

    state_loud = make_state("ddpg", seed=19, expl_noise=50.0)
    for k in range(20):
        a = offpac.exploration_action(state_loud, s, np.random.default_rng(k))
        assert np.all(np.abs(a) <= SPEC.action_bound)


def test_sac_exploration_zero_noise_is_mean():
    state = make_state("sac", seed=23)

    class ZeroRng:
        def standard_normal(self, shape):
            return np.zeros(shape)

    s = np.random.default_rng(3).normal(size=3)
    a = offpac.exploration_action(state, s, ZeroRng())
    np.testing.assert_allclose(a, state.actor.act_np(s))


def test_td3_delay_schedule():
    state = make_state("td3", seed=29, policy_delay=2, batch_n=8)
    buf = ReplayBuffer(capacity=64, state_dim=3, action_dim=2)
    rng_fill = np.random.default_rng(5)
    for _ in range(32):
        buf.push(rng_fill.normal(size=3), rng_fill.uniform(-1, 1, 2),
                 float(rng_fill.normal()), rng_fill.normal(size=3))
    rng = np.random.default_rng(6)
    changed = []
    for _ in range(6):
        before = [p.value.copy() for p in state.actor.parameters()]
        offpac.vanilla_iteration(state, buf, rng)
        after = state.actor.parameters()
        changed.append(any(not np.array_equal(b, a.value)
                           for b, a in zip(before, after)))
    assert changed == [False, True, False, True, False, True]


def test_metric_stream_deterministic():
    def run():
        state = make_state("sac", seed=31, batch_n=8)
        buf = ReplayBuffer(capacity=64, state_dim=3, action_dim=2)
        fill = np.random.default_rng(7)
        for _ in range(32):
            buf.push(fill.normal(size=3), fill.uniform(-1, 1, 2),
                     float(fill.normal()), fill.normal(size=3))
        rng = np.random.default_rng(8)
        return [offpac.vanilla_iteration(state, buf, rng) for _ in range(10)]

    m1, m2 = run(), run()
    assert m1 == m2


@pytest.mark.parametrize("algo", offpac.ALGOS)
def test_a_second_policy_call_builds_no_nodes(algo, nodes_built):
    state = make_state(algo)
    batch = random_batch(seed=1)
    noise = state.actor_noise(len(batch), np.random.default_rng(2))
    rng = np.random.default_rng(4)
    calls = (lambda: state.actor.act_np(batch.s[0]),
             lambda: offpac.exploration_action(state, batch.s[0], rng))
    for call in calls:  # the first call records its region on the graph
        assert nodes_built(call)
    for call in calls:
        assert nodes_built(call) == []
    assert sorted(state.plans) == ["explore"] and sorted(state.actor.plans) == ["greedy"]
    # the same forward on a batch builds Nodes
    assert nodes_built(lambda: offpac.actor_loss(state, batch, noise=noise))


@pytest.mark.parametrize("algo", offpac.ALGOS)
def test_replayed_policy_calls_give_the_raw_rank1_bits(algo, raw_act):
    cfg = harness.RunConfig(algo=algo, expl_noise=0.3)
    state = offpac.AlgoState(cfg, SPEC, np.random.default_rng(53))
    actor, c = state.actor, SPEC.action_bound
    rng = np.random.default_rng(54)
    draws, oracle_draws = np.random.default_rng(55), np.random.default_rng(55)
    for _ in range(250):
        s = rng.normal(size=SPEC.state_dim) * 3
        assert actor.act_np(s).tobytes() == raw_act(actor, s)[0].tobytes()
        a = offpac.exploration_action(state, s, draws)
        noise = oracle_draws.standard_normal(SPEC.action_dim)
        if algo == "sac":
            want = raw_act(actor, s, noise)[0]
        else:
            want = raw_act(actor, s)[0] + noise * (cfg.expl_noise * c)
        assert a.shape == (SPEC.action_dim,)
        assert a.tobytes() == np.clip(want, -c, c).tobytes()
    # the same stream: one draw of action_dim normals per action
    assert draws.random() == oracle_draws.random()


def test_empty_batch_rejected():
    from mcrl.replay import Batch

    state = make_state("ddpg")
    empty = Batch(np.zeros((0, 3)), np.zeros((0, 2)), np.zeros((0, 1)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        offpac.actor_loss(state, empty)
    with pytest.raises(ValueError):
        offpac.critic_update(state, empty, np.random.default_rng(0))
    # the meta step's first graph call is actor_loss, on either batch
    meta = make_state("ddpg", mc_variant="feature")
    for d_trn, d_val in ((empty, random_batch()), (random_batch(), empty)):
        with pytest.raises(ValueError, match="empty batch"):
            metacritic.meta_optimise(meta, d_trn, d_val)
    # an empty buffer raises in its sample, before the iteration is counted
    with pytest.raises(ValueError, match="empty buffer"):
        offpac.vanilla_iteration(state, ReplayBuffer(8, 3, 2), np.random.default_rng(0))
    assert state.it == 0


def test_a_learner_refuses_a_deep_copy_and_its_nets_do_not():
    # a copy's nets would view arrays that no copied optimizer writes, so it would not learn
    state = make_state("ddpg", mc_variant="feature")
    for copy_of in (copy.deepcopy, pickle.dumps):
        with pytest.raises(TypeError, match="build a new learner"):
            copy_of(state)
    twin = copy.deepcopy(state.actor)  # the target nets are made this way
    for a, b in zip(twin.parameters(), state.actor.parameters()):
        assert a.value is not b.value and np.array_equal(a.value, b.value)
