import numpy as np
import pytest

from mcrl import autodiff as ad
from mcrl import metacritic as mcmod
from mcrl import harness, nets, offpac
from mcrl.envs import EnvSpec
from mcrl.replay import Batch, ReplayBuffer


SPEC = EnvSpec(state_dim=2, action_dim=1, action_bound=1.0, horizon=20)


def small_cfg(algo="ddpg", **cfg_kw):
    return harness.RunConfig(algo=algo, hidden_actor=(4, 4), hidden_critic=(6, 6), **cfg_kw)


def make_state(algo="ddpg", variant="feature", kind="clip", seed=0, mc_hidden=6, **cfg_kw):
    rng = np.random.default_rng(seed)
    cfg = small_cfg(algo, mc_variant=variant, meta_loss=kind, mc_hidden=mc_hidden, **cfg_kw)
    return offpac.AlgoState(cfg, SPEC, rng)


def batch_from_rows(rows):
    """Column-stack (s, a, r, s_next) rows into a Batch, as sample_batch returns."""
    s, a, r, s_next = zip(*rows)
    return Batch(s=np.stack(s), a=np.stack(a), r=np.array(r, dtype=np.float64)[:, None],
                 s_next=np.stack(s_next))


def batch_of(n, seed):
    rng = np.random.default_rng(seed)
    return batch_from_rows([(rng.normal(size=2), rng.uniform(-1, 1, 1),
                             float(rng.normal()), rng.normal(size=2))
                            for _ in range(n)])


def randomize_weights(state, seed, scale=0.5):
    """Generic-scale weights everywhere; the default tiny final actor layer
    makes meta-gradients vanish below FD resolution."""
    rng = np.random.default_rng(seed)
    for v in (state.actor.parameters() + state.critic.parameters()
              + state.mc.parameters()):
        v.set_value(rng.normal(size=v.value.shape) * scale)


def actor_values(state):
    return [p.value.copy() for p in state.actor.parameters()]


def test_zero_inner_rate_keeps_parameters():
    state = make_state(actor_lr=0.0)
    pu = mcmod.meta_train(state, batch_of(8, 1))
    for p, old, new in zip(state.actor.parameters(), pu.phi_old, pu.phi_new):
        np.testing.assert_array_equal(old, p.value)
        np.testing.assert_array_equal(ad.evaluate(new), p.value)


def test_zero_inner_rate_meta_loss_reduces_and_zero_omega_grad():
    state = make_state(actor_lr=0.0, kind="plain")
    d_trn, d_val = batch_of(8, 1), batch_of(8, 2)
    pu = mcmod.meta_train(state, d_trn)
    meta = mcmod.meta_loss_plain(state, d_val, pu)
    direct = offpac.actor_loss(state, d_val)
    assert float(ad.evaluate(meta)) == pytest.approx(float(ad.evaluate(direct)), rel=1e-14)
    grads = ad.backward(meta, state.mc.parameters())
    assert all(np.all(g == 0.0) for g in grads)


def test_zero_auxiliary_gradient_collapses_updates():
    state = make_state(seed=3)
    w0, b0 = state.mc.f.params[0], state.mc.f.params[1]
    w0.set_value(np.zeros_like(w0.value))
    b0.set_value(np.zeros_like(b0.value))
    pu = mcmod.meta_train(state, batch_of(8, 4))
    for old, new in zip(pu.phi_old, pu.phi_new):
        np.testing.assert_array_equal(old, ad.evaluate(new))


def test_putative_difference_is_inner_auxiliary_step():
    state = make_state(seed=5, actor_lr=0.07)
    d_trn = batch_of(8, 6)
    pu = mcmod.meta_train(state, d_trn)
    actor = state.actor
    like = [p.value.copy() for p in actor.parameters()]

    def h_at(flat):  # the auxiliary loss with the actor set to ``flat``
        actor.set_param_values(nets.unflatten_values(flat, like))
        return float(ad.evaluate(state.mc.loss(actor, d_trn.s, d_trn.a)))

    fd = ad.fd_gradient(h_at, np.concatenate(like, axis=None), epsilon=1e-5)
    actor.set_param_values(like)
    got = np.concatenate([np.asarray(ad.evaluate(new)) - old
                          for old, new in zip(pu.phi_old, pu.phi_new)], axis=None)
    want = -0.07 * fd
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-8)
    assert np.max(np.abs(got - want) / denom) < 1e-5


def test_clip_is_zero_when_updates_coincide():
    state = make_state(seed=7)
    w0, b0 = state.mc.f.params[0], state.mc.f.params[1]
    w0.set_value(np.zeros_like(w0.value))
    b0.set_value(np.zeros_like(b0.value))
    pu = mcmod.meta_train(state, batch_of(8, 8))
    val = float(ad.evaluate(mcmod.meta_loss_clip(state, batch_of(8, 9), pu)))
    assert val == 0.0


def test_clip_matches_tanh_of_difference_and_range():
    assert np.tanh(-0.5) == pytest.approx(-0.46211715726, abs=1e-9)
    state = make_state(seed=9, actor_lr=0.05)
    d_trn, d_val = batch_of(8, 10), batch_of(8, 11)
    pu = mcmod.meta_train(state, d_trn)
    l_new = float(ad.evaluate(offpac.actor_loss(state, d_val, actor_params=pu.phi_new)))
    l_old = float(ad.evaluate(offpac.actor_loss(
        state, d_val, actor_params=[ad.constant(v) for v in pu.phi_old])))
    clip = float(ad.evaluate(mcmod.meta_loss_clip(state, d_val, pu)))
    assert clip == pytest.approx(np.tanh(l_new - l_old), rel=1e-12)
    assert -1.0 < clip < 1.0


@pytest.mark.parametrize("algo", ["ddpg", "td3", "sac"])
def test_clip_gradient_is_scaled_plain_gradient(algo):
    state = make_state(algo=algo, seed=13, actor_lr=0.05)
    d_trn, d_val = batch_of(8, 14), batch_of(8, 15)
    rng = np.random.default_rng(16)
    noise_trn = state.actor_noise(8, rng)
    noise_val = state.actor_noise(8, rng)
    pu = mcmod.meta_train(state, d_trn, noise_trn)
    clip = mcmod.meta_loss_clip(state, d_val, pu, noise_val)
    plain = mcmod.meta_loss_plain(state, d_val, pu, noise_val)
    g_clip = ad.backward(clip, state.mc.parameters())
    g_plain = ad.backward(plain, state.mc.parameters())
    delta = float(ad.evaluate(clip))
    factor = 1.0 - delta * delta  # tanh'(x) = 1 - tanh(x)^2
    for gc, gp in zip(g_clip, g_plain):
        np.testing.assert_allclose(gc, factor * gp, atol=1e-10, rtol=0)


def test_baseline_branch_is_detached_graph_surgery():
    state = make_state(seed=17, actor_lr=0.05)
    d_trn, d_val = batch_of(8, 18), batch_of(8, 19)
    pu = mcmod.meta_train(state, d_trn)
    l_new = offpac.actor_loss(state, d_val, actor_params=pu.phi_new)
    l_old = offpac.actor_loss(state, d_val,
                              actor_params=[ad.constant(v) for v in pu.phi_old])
    full = ad.tanh(ad.sub(l_new, l_old))
    surgically_const = ad.tanh(ad.sub(l_new, ad.constant(ad.evaluate(l_old))))
    g1 = ad.backward(full, state.mc.parameters())
    g2 = ad.backward(surgically_const, state.mc.parameters())
    for a, b in zip(g1, g2):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("algo,variant", [
    ("ddpg", "feature"),
    ("td3", "feature-state-action"),
    ("sac", "feature"),
    ("ddpg", "param-reg"),
])
def test_meta_gradient_matches_full_pipeline_fd(algo, variant):
    state = make_state(algo=algo, variant=variant, seed=21, actor_lr=0.05, mc_hidden=4)
    randomize_weights(state, seed=99)
    d_trn, d_val = batch_of(6, 22), batch_of(6, 23)
    rng = np.random.default_rng(24)
    noise_trn = state.actor_noise(6, rng)
    noise_val = state.actor_noise(6, rng)
    omega = state.mc.parameters()
    like = [w.value for w in omega]

    pu = mcmod.meta_train(state, d_trn, noise_trn)
    meta = mcmod.meta_loss_clip(state, d_val, pu, noise_val)
    got = np.concatenate(ad.backward(meta, omega), axis=None)

    def pipeline(flat):
        vals = nets.unflatten_values(flat, like)
        old = [w.value.copy() for w in omega]
        for w, v in zip(omega, vals):
            w.set_value(v)
        pu2 = mcmod.meta_train(state, d_trn, noise_trn)
        out = float(ad.evaluate(mcmod.meta_loss_clip(state, d_val, pu2, noise_val)))
        for w, v in zip(omega, old):
            w.set_value(v)
        return out

    fd = ad.fd_gradient(pipeline, np.concatenate(like, axis=None), epsilon=1e-5)
    # relative error of the gradient vector; a bare per-coordinate ratio
    # would be dominated by FD roundoff on near-zero coordinates
    assert np.linalg.norm(got - fd) < 1e-4 * max(np.linalg.norm(fd), 1e-8)
    floor = 1e-3 * max(np.abs(fd).max(), 1e-8)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), floor)
    assert np.max(np.abs(got - fd) / denom) < 1e-4


def test_omega_gradient_nonzero_for_generic_weights():
    state = make_state(seed=25, actor_lr=0.05)
    pu = mcmod.meta_train(state, batch_of(8, 26))
    meta = mcmod.meta_loss_clip(state, batch_of(8, 27), pu)
    g = np.concatenate(ad.backward(meta, state.mc.parameters()), axis=None)
    assert np.linalg.norm(g) > 0.0


@pytest.mark.parametrize("algo", offpac.ALGOS)
@pytest.mark.parametrize("variant", nets.MC_VARIANTS)
def test_gradient_bits_do_not_depend_on_other_targets(algo, variant):
    # backward walks only the paths to its targets; adding omega (or the
    # actor) to wrt must not change one bit of the other gradients
    state = make_state(algo=algo, variant=variant, seed=41, actor_lr=0.05)
    randomize_weights(state, seed=42)
    d_trn, d_val = batch_of(7, 43), batch_of(7, 44)
    rng = np.random.default_rng(45)
    noise_trn, noise_val = state.actor_noise(7, rng), state.actor_noise(7, rng)
    actor, omega = state.actor.parameters(), state.mc.parameters()

    h = state.mc.loss(state.actor, d_trn.s, d_trn.a)
    alone = ad.backward(h, actor, create_graph=True)
    with_omega = ad.backward(h, actor + omega, create_graph=True)
    for a, b in zip(alone, with_omega):
        assert np.array_equal(ad.evaluate(a), ad.evaluate(b))

    pu = mcmod.meta_train(state, d_trn, noise_trn)
    meta = mcmod.meta_loss_clip(state, d_val, pu, noise_val)
    alone = ad.backward(meta, omega)
    with_actor = ad.backward(meta, omega + actor)
    for a, b in zip(alone, with_actor):
        assert np.array_equal(a, b)


def test_meta_optimise_sgd_adopts_phi_new():
    state = make_state(seed=33, optimizer="sgd")
    d_trn, d_val = batch_of(8, 34), batch_of(8, 35)
    pu_preview = mcmod.meta_train(state, d_trn)
    expected = [np.asarray(ad.evaluate(n)) for n in pu_preview.phi_new]
    mcmod.meta_optimise(state, d_trn, d_val)
    for p, want in zip(state.actor.parameters(), expected):
        np.testing.assert_allclose(p.value, want, rtol=1e-12, atol=1e-15)


def test_meta_optimise_zero_inner_rate_leaves_omega():
    state = make_state(seed=37, actor_lr=0.0)
    before = [w.value.copy() for w in state.mc.parameters()]
    mcmod.meta_optimise(state, batch_of(8, 38), batch_of(8, 39))
    for w, old in zip(state.mc.parameters(), before):
        np.testing.assert_array_equal(w.value, old)


def test_a_region_that_raises_leaves_every_optimizer_as_it_was():
    state = make_state(optimizer="adam")
    empty = Batch(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 2)))
    opt = state.actor_opt
    kept = [opt.flat, opt.m, opt.v, opt.t, *state.mc_opt.writes]
    before = [x.value.copy() for x in kept]
    with pytest.raises(ValueError, match="empty batch"):
        mcmod.meta_optimise(state, empty, empty)
    assert [x.value.tobytes() for x in kept] == [b.tobytes() for b in before]
    assert opt.t.value == 0  # Adam counts a step only when the step commits


def fill_buffer(n=64, seed=40):
    buf = ReplayBuffer(capacity=256, state_dim=2, action_dim=1)
    rng = np.random.default_rng(seed)
    for _ in range(n):
        buf.push(rng.normal(size=2), rng.uniform(-1, 1, 1),
                 float(rng.normal()), rng.normal(size=2))
    return buf


@pytest.mark.parametrize("algo", ["ddpg", "td3", "sac"])
def test_disabled_variant_reproduces_vanilla(algo):
    buf = fill_buffer()

    def run_meta():
        rng0 = np.random.default_rng(41)
        state = offpac.AlgoState(small_cfg(algo, batch_n=8), SPEC, rng0)
        rng = np.random.default_rng(42)
        return [mcmod.train_iteration(state, buf, rng) for _ in range(20)]

    def run_vanilla():
        rng0 = np.random.default_rng(41)
        base = offpac.AlgoState(small_cfg(algo, batch_n=8), SPEC, rng0)
        rng = np.random.default_rng(42)
        return [offpac.vanilla_iteration(base, buf, rng) for _ in range(20)]

    assert run_meta() == run_vanilla()


def test_full_iteration_bit_identical_across_runs():
    buf = fill_buffer()

    def run():
        state = make_state(algo="sac", seed=43, batch_n=8)
        rng = np.random.default_rng(44)
        metrics = [mcmod.train_iteration(state, buf, rng) for _ in range(5)]
        phis = [p.value.copy() for p in state.actor.parameters()]
        omegas = [w.value.copy() for w in state.mc.parameters()]
        thetas = [p.value.copy() for p in state.critic.parameters()]
        return metrics, phis, omegas, thetas

    m1, p1, o1, t1 = run()
    m2, p2, o2, t2 = run()
    assert m1 == m2
    for a, b in zip(p1 + o1 + t1, p2 + o2 + t2):
        np.testing.assert_array_equal(a, b)


def test_clip_metrics_stay_in_open_interval():
    state = make_state(algo="ddpg", seed=45, batch_n=8)
    buf = fill_buffer(seed=46)
    rng = np.random.default_rng(47)
    for _ in range(30):
        m = mcmod.train_iteration(state, buf, rng)
        assert -1.0 < m["loss_meta"] < 1.0


@pytest.mark.parametrize("algo", ["ddpg", "td3", "sac"])
@pytest.mark.parametrize("variant", ["none", "feature"])
def test_iteration_respects_delay_and_stream_order(algo, variant):
    n, a_dim = 5, SPEC.action_dim
    state = make_state(algo=algo, variant=variant, seed=49, mc_hidden=16, batch_n=n)
    buf = fill_buffer(seed=50)
    rng, ref = np.random.default_rng(51), np.random.default_rng(51)
    # each index draw is logged with the stream's state before it, which pins its
    # place: d_trn and d_val draw n rows each, and their states tell them apart
    draw_indices, seen, expected = buf.sample_indices, [], []
    buf.sample_indices = lambda k, r: seen.append((k, r.bit_generator.state)) or draw_indices(k, r)

    def ref_indices(k):
        expected.append((k, ref.bit_generator.state))
        draw_indices(k, ref)

    omega = state.mc.parameters() if state.mc else []
    for it in (1, 2, 3):
        omega_before = [w.value.copy() for w in omega]
        mcmod.train_iteration(state, buf, rng)
        due = algo != "td3" or it % 2 == 0  # td3's default policy_delay is 2
        # the documented draws, made by hand on the reference generator
        ref_indices(n)  # d_trn indices
        if algo != "ddpg":
            ref.standard_normal((n, a_dim))  # critic target noise
        if due and algo == "sac":
            ref.standard_normal((n, a_dim))  # training noise
        if due and state.mc is not None:
            ref_indices(n)  # d_val indices
            if algo == "sac":
                ref.standard_normal((n, a_dim))  # validation noise
        assert seen == expected
        assert rng.bit_generator.state == ref.bit_generator.state
        omega_moved = any(not np.array_equal(w.value, old) for w, old in zip(omega, omega_before))
        assert omega_moved == (due and state.mc is not None)
