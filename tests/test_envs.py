import pickle

import numpy as np
import pytest

from mcrl import envs


def test_tabular_reset_is_one_hot_and_deterministic():
    mdp = envs.TabularMdp.random_instance(0)
    s1 = mdp.reset(np.random.default_rng(5))
    s2 = mdp.reset(np.random.default_rng(5))
    assert s1.shape == (2,)
    assert sorted(s1.tolist()) == [0.0, 1.0]
    np.testing.assert_array_equal(s1, s2)


def test_tabular_deterministic_row_lookup():
    P = np.zeros((2, 2, 2))
    P[0, 0, 1] = 1.0  # s0, a0 -> s1
    P[0, 1, 0] = 1.0
    P[1, 0, 0] = 1.0
    P[1, 1, 1] = 1.0
    R = np.array([[0.25, 0.5], [0.75, 1.0]])
    mdp = envs.TabularMdp(P, R, horizon=3)
    s = mdp.reset(np.random.default_rng(0))
    s2, r = mdp.step(s, np.array([-0.3]), np.random.default_rng(0))  # bin 0
    assert r == 0.25
    np.testing.assert_array_equal(s2, [0.0, 1.0])


def test_tabular_tables_validated():
    bad_p = np.full((2, 2, 2), 0.4)
    with pytest.raises(ValueError):
        envs.TabularMdp(bad_p, np.zeros((2, 2)))
    ok_p = np.zeros((2, 2, 2))
    ok_p[..., 0] = 1.0
    with pytest.raises(ValueError):
        envs.TabularMdp(ok_p, np.array([[np.inf, 0], [0, 0]]))


def test_nan_action_rejected():
    for name in envs.ENV_NAMES:
        env = envs.make_env(name)
        s = env.reset(np.random.default_rng(0))
        for i in range(env.spec.action_dim):
            a = np.zeros(env.spec.action_dim)
            a[i] = np.nan
            with pytest.raises(ValueError, match="NaN action"):
                env.step(s, a, np.random.default_rng(0))


@pytest.mark.parametrize("name", envs.ENV_NAMES)
def test_action_of_the_wrong_length_rejected(name):
    # an extra element used to be clamped and, on PointMass, charged to the reward
    env = envs.make_env(name)
    s = env.reset(np.random.default_rng(0))
    dim = env.spec.action_dim
    for n in (dim - 1, dim + 1):
        with pytest.raises(ValueError, match=f"action has {n} elements, expected {dim}"):
            env.step(s, np.full(n, 0.5), np.random.default_rng(0))


# The numpy form of each step, kept as the reference the float forms in
# envs must reproduce bit for bit.

def _numpy_check_action(a, bound):
    a = np.asarray(a, dtype=np.float64)
    if np.isnan(a).any():
        raise ValueError("NaN action")
    return np.clip(a, -bound, bound)


def _numpy_tabular_step(env, state, action, rng):
    a = _numpy_check_action(action, env.spec.action_bound)
    s = int(np.argmax(state))
    k = 1 if float(np.asarray(a).ravel()[0]) > 0.0 else 0
    r = float(env.R[s, k])
    s2 = int(rng.choice(2, p=env.P[s, k]))
    v = np.zeros(2, dtype=np.float64)
    v[s2] = 1.0
    return v, r


def _numpy_pointmass_step(env, state, action, rng):
    f = _numpy_check_action(action, env.spec.action_bound)
    pos, vel = state[:2], state[2:]
    vel = np.clip(vel + f * env.DT, -env.VEL_BOX, env.VEL_BOX)
    pos = np.clip(pos + vel * env.DT, -env.POS_BOX, env.POS_BOX)
    dist = float(np.linalg.norm(pos))
    r = -dist - 0.01 * float(f @ f)
    return np.concatenate([pos, vel]), r


def _numpy_pendulum_step(env, state, action, rng):
    tau = float(_numpy_check_action(action, env.spec.action_bound).ravel()[0])
    th, thdot = float(state[0]), float(state[1])
    r = -(th * th + 0.1 * thdot * thdot + 0.001 * tau * tau)
    thdot = thdot + (3.0 * env.G / (2.0 * env.L) * np.sin(th)
                     + 3.0 / (env.M * env.L**2) * tau) * env.DT
    thdot = float(np.clip(thdot, -env.MAX_SPEED, env.MAX_SPEED))
    th = float((th + thdot * env.DT + np.pi) % (2.0 * np.pi) - np.pi)
    return np.array([th, thdot]), r


def _random_state(name, rng):
    if name == "tabular":
        return np.eye(2)[rng.integers(2)]
    if name == "pointmass":
        return rng.uniform(-3.0, 3.0, size=4)  # beyond both boxes
    return np.array([rng.uniform(-4.0, 4.0), rng.uniform(-10.0, 10.0)])  # past pi, MAX_SPEED


_NUMPY_STEP = {"tabular": _numpy_tabular_step, "pointmass": _numpy_pointmass_step,
               "pendulum": _numpy_pendulum_step}


@pytest.mark.parametrize("name", envs.ENV_NAMES)
def test_step_matches_numpy_reference_bit_for_bit(name):
    reference = _NUMPY_STEP[name]
    env = envs.make_env(name, 5)
    bound = env.spec.action_bound
    special = np.array([bound, -bound, -0.0, 0.0, np.inf, -np.inf,
                        np.nextafter(bound, np.inf), np.nextafter(-bound, -np.inf)])
    draw = np.random.default_rng(23)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    states, ref_states, rewards, ref_rewards = [], [], [], []
    for _ in range(10_000):
        s = _random_state(name, draw)
        a = draw.uniform(-3.0 * bound, 3.0 * bound, size=env.spec.action_dim)
        pick = draw.random(a.size) < 0.3
        a[pick] = draw.choice(special, size=int(pick.sum()))
        s2, r = env.step(s, a, rng)
        ref_s2, ref_r = reference(env, s.copy(), a.copy(), ref_rng)
        states.append(s2)
        ref_states.append(ref_s2)
        rewards.append(r)
        ref_rewards.append(ref_r)
    # compared as raw bits, so a -0.0 where numpy gives 0.0 fails too
    assert np.array_equal(np.stack(states).view(np.uint64),
                          np.stack(ref_states).view(np.uint64))
    assert np.array_equal(np.array(rewards).view(np.uint64),
                          np.array(ref_rewards).view(np.uint64))


def test_tabular_draw_matches_rng_choice():
    # step compares one rng.random() draw with P0 / (P0 + P1); rng.choice(2, p=row)
    # must give the same next state and leave the generator in the same state
    tables = np.random.default_rng(5).dirichlet(np.ones(2), size=(50, 2, 2))
    tables[0] = [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [1.0, 0.0]]]
    for i, P in enumerate(tables):
        env = envs.TabularMdp(P, np.zeros((2, 2)), horizon=10**9)
        rng, ref_rng = np.random.default_rng(i), np.random.default_rng(i)
        for t in range(200):
            s, k = t % 2, t // 2 % 2
            s2, _ = env.step(np.eye(2)[s], np.array([k - 0.5]), rng)
            assert int(np.argmax(s2)) == int(ref_rng.choice(2, p=P[s, k]))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pointmass_reset_within_box():
    env = envs.PointMass()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        s = env.reset(rng)
        assert np.all(np.abs(s[:2]) <= env.INIT_BOX)
        assert np.all(s[2:] == 0.0)


def test_pointmass_at_goal_zero_force_zero_reward():
    env = envs.PointMass()
    env.reset(np.random.default_rng(0))
    s = np.zeros(4)
    _, r = env.step(s, np.zeros(2), np.random.default_rng(0))
    assert r == 0.0


def test_pendulum_equilibrium():
    env = envs.Pendulum()
    env.reset(np.random.default_rng(0))
    s2, r = env.step(np.zeros(2), np.zeros(1), np.random.default_rng(0))
    assert r == 0.0
    np.testing.assert_array_equal(s2, np.zeros(2))


def test_pendulum_angle_wraps():
    env = envs.Pendulum()
    env.reset(np.random.default_rng(0))
    s = np.array([np.pi - 0.01, 5.0])
    s2, _ = env.step(s, np.zeros(1), np.random.default_rng(0))
    assert -np.pi <= s2[0] <= np.pi


def _policy_step(env, state, rng):
    """The (s2, r) of one step under a fixed policy of the state."""
    return env.step(state, np.tanh(state[: env.spec.action_dim]), rng)


def test_horizon_done_flags():
    # an env raises no done flag; an episode ends after spec.horizon steps, and
    # evaluation takes exactly that many
    from mcrl.harness import evaluate_policy

    env = envs.PointMass(horizon=3)
    assert env.spec.horizon == 3
    rng = np.random.default_rng(1)
    s = env.reset(rng)
    rewards = []
    for _ in range(3):
        out = env.step(s, np.zeros(2), rng)
        assert len(out) == 2
        s, r = out
        rewards.append(r)
    calls = []

    def act(states):
        calls.append(states.shape)
        return np.zeros((states.shape[0], 1, 2))

    mean, std = evaluate_policy(act, env, 1, np.random.default_rng(1))
    assert calls == [(1, 1, 4)] * 3
    assert (mean, std) == (sum(rewards), 0.0)


def test_determinism_identical_trajectories():
    for name in envs.ENV_NAMES:
        env = envs.make_env(name, env_seed=11)
        trajs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            s = env.reset(rng)
            tr = [s.copy()]
            for _ in range(20):
                s, _ = _policy_step(env, s, rng)
                tr.append(s.copy())
            trajs.append(np.stack(tr))
        np.testing.assert_array_equal(trajs[0], trajs[1])


@pytest.mark.parametrize("name", envs.ENV_NAMES)
def test_an_env_holds_no_state(name):
    env = envs.make_env(name, 3, horizon=5)
    before = pickle.dumps(vars(env))
    rng = np.random.default_rng(8)
    s = env.reset(rng)
    for _ in range(12):  # past the horizon
        s, _ = _policy_step(env, s, rng)
    assert pickle.dumps(vars(env)) == before
    # two episodes interleaved on one env have the bytes of the same two on two envs
    one = [[], []]
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    states = [env.reset(g) for g in rngs]
    for _ in range(env.spec.horizon):
        for e in (0, 1):
            states[e], r = _policy_step(env, states[e], rngs[e])
            one[e].append(np.append(states[e], r))
    two = [[], []]
    for e, seed in enumerate((1, 2)):
        own, rng = envs.make_env(name, 3, horizon=5), np.random.default_rng(seed)
        s = own.reset(rng)
        for _ in range(own.spec.horizon):
            s, r = _policy_step(own, s, rng)
            two[e].append(np.append(s, r))
    assert np.array(one).tobytes() == np.array(two).tobytes()


def test_optimal_return_zero_rewards():
    P = np.zeros((2, 2, 2))
    P[..., 0] = 1.0
    mdp = envs.TabularMdp(P, np.zeros((2, 2)))
    assert envs.tabular_optimal_return(mdp, gamma=0.9) == 0.0


def test_optimal_return_rewarding_self_loop():
    P = np.zeros((2, 2, 2))
    P[0, 0, 0] = 1.0  # stay via action 0
    P[0, 1, 1] = 1.0
    P[1, :, 1] = 1.0
    R = np.array([[1.0, 0.0], [0.0, 0.0]])
    mdp = envs.TabularMdp(P, R)
    v = envs.tabular_optimal_return(mdp, gamma=0.9, horizon=10_000)
    assert v == pytest.approx(10.0, abs=1e-8)


def test_value_iteration_contracts():
    rng = np.random.default_rng(17)
    for seed in range(5):
        mdp = envs.TabularMdp.random_instance(seed)
        gamma = 0.9
        V = rng.normal(size=2)
        W = rng.normal(size=2)
        for _ in range(10):
            V2 = (mdp.R + gamma * (mdp.P @ V)).max(axis=1)
            W2 = (mdp.R + gamma * (mdp.P @ W)).max(axis=1)
            lhs = np.max(np.abs(V2 - W2))
            rhs = gamma * np.max(np.abs(V - W))
            assert lhs <= rhs + 1e-12
            V, W = V2, W2


def test_value_iteration_gives_the_stationary_greedy_policies():
    # a learner bootstraps through the episode's end at gamma 0.99, so its optimum is the
    # stationary discounted policy, which 5,000 sweeps settle
    policies = []
    for seed in range(4):
        mdp = envs.TabularMdp.random_instance(seed)
        Q = envs.value_iteration(mdp, 0.99, 5000)
        V = np.zeros(2)
        for _ in range(5000):  # the state-value sweeps: Q's row maxima, bit for bit
            V = (mdp.R + 0.99 * (mdp.P @ V)).max(axis=1)
        assert Q.max(axis=1).tobytes() == V.tobytes()
        policies.append(tuple(Q.argmax(axis=1).tolist()))
    assert policies == [(0, 1), (1, 1), (0, 0), (0, 1)]


def test_random_instance_oracle_is_reproducible():
    a = envs.tabular_optimal_return(envs.TabularMdp.random_instance(123), gamma=0.9)
    b = envs.tabular_optimal_return(envs.TabularMdp.random_instance(123), gamma=0.9)
    assert a == b


def test_make_env_unknown_name():
    with pytest.raises(ValueError):
        envs.make_env("mujoco")


@pytest.mark.parametrize("name, horizon", [("tabular", 10), ("pointmass", 100),
                                           ("pendulum", 200)])
def test_horizon_zero_is_the_class_default(name, horizon):
    env = envs.make_env(name)
    default = (envs.TabularMdp.random_instance(0) if name == "tabular" else type(env)())
    assert env.spec.horizon == default.spec.horizon == horizon
    assert envs.make_env(name, horizon=7).spec.horizon == 7
