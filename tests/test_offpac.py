import numpy as np
import pytest

from mcrl import autodiff as ad
from mcrl import harness, offpac
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
    q1, = state.critic.qs(batch.s, a, state.critic_const_params(), count=1)
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
        y0 = offpac.critic_targets(state_g0, b, np.random.default_rng(0))
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
    # target computation must not touch graph machinery at all
    state = make_state("td3", seed=6)
    batch = random_batch()
    y = offpac.critic_targets(state, batch, np.random.default_rng(1))
    assert isinstance(y, np.ndarray)
    target_params = (state.target_critic.parameters()
                     + state.target_actor.parameters())
    q1 = state.critic.qs(batch.s, batch.a)[0]
    loss = ad.mean(ad.square(ad.sub(q1, ad.constant(y))))
    grads = ad.backward(loss, target_params)
    assert all(np.all(g == 0.0) for g in grads)


def test_td3_twin_swap_leaves_min_target_unchanged():
    state = make_state("td3", seed=7)
    batch = random_batch()
    y1 = offpac.critic_targets(state, batch, np.random.default_rng(3))
    q1, q2 = state.target_critic.nets
    for p1, p2 in zip(q1.params, q2.params):
        v1 = p1.value
        p1.set_value(p2.value)
        p2.set_value(v1)
    y2 = offpac.critic_targets(state, batch, np.random.default_rng(3))
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
    q = state.critic.q_min(np.array([[0.1, -0.2, 0.3]]), np.array([[0.5, -0.5]]),
                           ops=ad.NumpyOps)
    assert abs(float(q[0, 0]) - 0.7) < 1e-3


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
def test_actor_loss_numpy_twin_is_bit_identical(algo):
    for seed in range(5):
        state = make_state(algo, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for p in state.actor.parameters() + state.critic.parameters():
            p.set_value(rng.normal(size=p.value.shape) * 0.5)
        # 48 rows: with a power-of-two count, sum()*(1/n) and mean() round
        # alike, so a NumpyOps.mean that drifts from the graph's would pass
        batch = random_batch(n=48, seed=seed + 200)
        noise = state.actor_noise(len(batch), rng)
        params_vals = [p.value for p in state.actor.parameters()]
        graph_val = float(ad.evaluate(offpac.actor_loss(state, batch, noise=noise)))
        np_val = offpac.actor_loss_np(state, batch, noise=noise,
                                      params_values=params_vals)
        assert graph_val == np_val


@pytest.mark.parametrize("algo", offpac.ALGOS)
def test_numpy_paths_build_no_nodes(algo, monkeypatch):
    state = make_state(algo)
    batch = random_batch(seed=1)
    noise = state.actor_noise(len(batch), np.random.default_rng(2))
    made = []
    real_init = ad.Node.__init__

    def counting_init(node, op, *args, **kwargs):
        made.append(op)
        real_init(node, op, *args, **kwargs)

    monkeypatch.setattr(ad.Node, "__init__", counting_init)
    offpac.actor_loss_np(state, batch, noise=noise)
    offpac.critic_targets(state, batch, np.random.default_rng(3))
    offpac.exploration_action(state, batch.s[0], np.random.default_rng(4))
    assert made == []
    offpac.actor_loss(state, batch, noise=noise)
    assert made  # the same forward on the graph namespace does build Nodes


def test_empty_batch_rejected():
    from mcrl.replay import Batch

    state = make_state("ddpg")
    empty = Batch(np.zeros((0, 3)), np.zeros((0, 2)), np.zeros((0, 1)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        offpac.actor_loss(state, empty)
    with pytest.raises(ValueError):
        offpac.critic_update(state, empty, np.random.default_rng(0))
