import dataclasses
import os

import numpy as np
import pytest

from mcrl import envs, harness, offpac
from mcrl.harness import parse_config


BASE_CFG = """\
algo=ddpg
env=pointmass
total_steps=400
warmup_steps=100
eval_every=100
eval_episodes=2
seeds=0
hidden_actor=8,8
hidden_critic=8,8
"""


def test_parse_and_roundtrip():
    cfg = parse_config(BASE_CFG + "batch_n=16\nsequential_inner=true\n")
    assert cfg.algo == "ddpg" and cfg.batch_n == 16 and cfg.sequential_inner
    text = harness.config_to_text(cfg)
    again = parse_config(text)
    assert again == cfg


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(BASE_CFG + "learning_rte=0.1\n")


def test_invalid_values_rejected_before_work():
    with pytest.raises(ValueError):
        parse_config(BASE_CFG + "algo=ppo\n")
    with pytest.raises(ValueError):
        parse_config(BASE_CFG + "updates_multiplier=0.5\n")
    with pytest.raises(ValueError):
        parse_config("seeds=\n")
    # each of these used to fail only after warmup work, or not at all
    for bad in ("batch_n=0", "batch_m=0", "tau=-0.1", "tau=2", "policy_delay=0",
                "gamma=1.5", "gamma=1.0", "gamma=-0.1", "hidden_actor=",
                "hidden_critic=", "hidden_actor=8,0", "warmup_steps=-1",
                "eval_every=401", "buffer_capacity=0", "actor_lr=-0.1",
                "critic_lr=-0.1", "mc_lr=-0.1", "expl_noise=-0.1", "target_noise=-0.1",
                "noise_clip=-0.1", "inner_lr=-0.5", "alpha=-0.1", "optimizer=rmsprop",
                "env=cartpole", "mc_hidden=0", "horizon=-1", "snapshot_every=-1",
                "seeds=0,-1", "env_seed=-1"):
        with pytest.raises(ValueError):
            parse_config(BASE_CFG + bad + "\n")


def test_hyper_defaults_are_the_run_config_defaults():
    # build_meta_state copies Hyper's fields from RunConfig by name
    defaults = harness.RunConfig()
    for f in dataclasses.fields(offpac.Hyper):
        assert hasattr(defaults, f.name), f.name
        assert getattr(defaults, f.name) == f.default, f.name


def test_comments_and_blank_lines():
    cfg = parse_config("# header\n\nalgo=td3  # trailing\nenv=pendulum\n")
    assert cfg.algo == "td3" and cfg.env == "pendulum"


def test_smooth_examples():
    np.testing.assert_array_equal(harness.smooth([4.0, 5.0, 6.0], 1), [4, 5, 6])
    sm = harness.smooth([0.0, 3.0, 6.0], 3)
    assert sm[1] == 3.0
    np.testing.assert_allclose(harness.smooth(np.full(10, 2.5), 5), 2.5)
    with pytest.raises(ValueError):
        harness.smooth([1.0], 0)


class ConstantRewardEnv:
    def __init__(self, horizon=7):
        self.spec = envs.EnvSpec(2, 1, 1.0, horizon, 0.99, 1.0, 1.0)
        self._t = 0

    def reset(self, rng):
        self._t = 0
        return np.zeros(2)

    def step(self, state, action, rng):
        self._t += 1
        return state, 1.0, self._t >= self.spec.horizon


def test_evaluate_policy_constant_env():
    env = ConstantRewardEnv(horizon=7)
    mean, std = harness.evaluate_policy(lambda s: np.zeros(1), env, episodes=10,
                                        rng=np.random.default_rng(0))
    assert mean == 7.0 and std == 0.0
    mean1, std1 = harness.evaluate_policy(lambda s: np.zeros(1), env, episodes=1,
                                          rng=np.random.default_rng(0))
    assert std1 == 0.0
    with pytest.raises(ValueError):
        harness.evaluate_policy(lambda s: np.zeros(1), env, episodes=0)


def test_evaluate_matches_value_iteration_oracle():
    # deterministic 2x2 MDP where "stay in state 0 via action 1" is optimal
    # at every horizon, so the stationary greedy policy is exactly optimal
    P = np.zeros((2, 2, 2))
    P[0, 1, 0] = 1.0
    P[0, 0, 1] = 1.0
    P[1, 1, 0] = 1.0
    P[1, 0, 1] = 1.0
    R = np.array([[0.1, 1.0], [0.0, 0.2]])
    mdp = envs.TabularMdp(P, R, horizon=12)
    policy_bins = envs.tabular_greedy_policy(mdp, gamma=0.99)
    assert list(policy_bins) == [1, 1]

    def act(state):
        b = policy_bins[int(np.argmax(state))]
        return np.array([1.0 if b == 1 else -1.0])

    mean, std = harness.evaluate_policy(act, mdp, episodes=10,
                                        rng=np.random.default_rng(3))
    oracle = envs.tabular_optimal_return(mdp, gamma=1.0, horizon=12)
    assert std == 0.0
    assert abs(mean - oracle) <= 1e-9


def test_csv_roundtrip_exact(tmp_path):
    rows = [(100, 1.234567890123456789, 0.1, -2.5e-7, 0.0, -0.999999),
            (200, -3.3333333333333335, 7e300, 1.0, 2.0, 3.0)]
    path = tmp_path / "c.csv"
    harness.write_curve(str(path), rows)
    back = harness.read_curve(str(path))
    for i, col in enumerate(harness.CSV_COLUMNS):
        np.testing.assert_array_equal(back[col], [r[i] for r in rows])


def _quick_cfg(extra=""):
    return parse_config(BASE_CFG + extra)


def test_run_deterministic_byte_identical(tmp_path):
    cfg = _quick_cfg("mc_variant=feature\nmc_hidden=16\n")
    a, b = tmp_path / "a", tmp_path / "b"
    harness.run(cfg, str(a))
    harness.run(cfg, str(b))
    for name in ("seed0.csv",):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_zero_steps_valid(tmp_path):
    cfg = _quick_cfg("total_steps=0\n")
    res = harness.run(cfg, str(tmp_path))
    assert res[0]["rows"] == []
    meta = harness.read_metadata(str(tmp_path / "seed0.meta.txt"))
    assert meta["config.algo"] == "ddpg"
    assert meta["update_blocks"] == "0"


def test_evaluation_isolation(tmp_path):
    cfg = _quick_cfg()
    res_on = harness.run_seed(cfg, 0, str(tmp_path / "on"), evaluation_enabled=True)
    res_off = harness.run_seed(cfg, 0, str(tmp_path / "off"), evaluation_enabled=False)
    p_on = [p.value for p in res_on["meta_state"].base.actor.parameters()]
    p_off = [p.value for p in res_off["meta_state"].base.actor.parameters()]
    for a, b in zip(p_on, p_off):
        np.testing.assert_array_equal(a, b)
    # loss columns identical too; only the eval columns differ
    for r_on, r_off in zip(res_on["rows"], res_off["rows"]):
        assert r_on[0] == r_off[0] and r_on[3:] == r_off[3:]


def test_updates_multiplier_counts(tmp_path):
    base = _quick_cfg()
    boosted = _quick_cfg("updates_multiplier=1.25\n")
    r1 = harness.run_seed(base, 0, str(tmp_path / "u1"))
    r2 = harness.run_seed(boosted, 0, str(tmp_path / "u2"))
    assert r1["update_blocks"] == 300
    assert r2["update_blocks"] == 375  # exactly 25% more
    meta = harness.read_metadata(str(tmp_path / "u2" / "seed0.meta.txt"))
    assert meta["update_blocks"] == "375"


def _poisoned_run(tmp_path, monkeypatch, key, value, from_call):
    """run_seed with ``key`` of every train_iteration result from call
    ``from_call`` on replaced by ``value``; returns the result record."""
    calls = {"n": 0}
    real = harness.train_iteration

    def poisoned(ms, buffer, rng, batch_n=64, batch_m=64):
        calls["n"] += 1
        m = real(ms, buffer, rng, batch_n=batch_n, batch_m=batch_m)
        if calls["n"] >= from_call:
            m[key] = value
        return m

    monkeypatch.setattr(harness, "train_iteration", poisoned)
    return harness.run_seed(_quick_cfg(), 0, str(tmp_path))


def test_nan_abort_writes_diagnostic_row(tmp_path, monkeypatch):
    res = _poisoned_run(tmp_path, monkeypatch, "loss_critic", float("nan"), 50)
    assert res["aborted_at"] == 150  # warmup 100 + 50th iteration
    assert math_isnan_row(res["rows"][-1])
    meta = harness.read_metadata(str(tmp_path / "seed0.meta.txt"))
    assert meta["aborted_at_step"] == "150"
    assert meta["aborted_at_iteration"] == "50" and meta["aborted_primitive"] == ""


@pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
def test_infinite_loss_aborts_like_nan(tmp_path, monkeypatch, bad):
    res = _poisoned_run(tmp_path, monkeypatch, "loss_td", bad, 30)
    assert res["aborted_at"] == 130  # warmup 100 + 30th iteration
    assert math_isnan_row(res["rows"][-1])
    meta = harness.read_metadata(str(tmp_path / "seed0.meta.txt"))
    assert meta["aborted_at_step"] == "130"


def test_real_divergence_aborts_with_the_primitive(tmp_path):
    # learning rates of 1e6 overflow the SAC nets within a few iterations,
    # and backward raises NanGradientError before any loss is non-finite
    cfg = parse_config("algo=sac\nenv=pointmass\nactor_lr=1e6\ncritic_lr=1e6\n"
                       "total_steps=105\nwarmup_steps=100\neval_every=105\n"
                       "eval_episodes=1\nhidden_actor=8,8\nhidden_critic=8,8\n"
                       "batch_n=8\nbatch_m=8\n")
    with pytest.warns(RuntimeWarning):  # overflow, then invalid values
        res = harness.run_seed(cfg, 0, str(tmp_path))
    assert res["aborted_at"] == 104  # warmup 100 + 4th iteration
    assert len(res["rows"]) == 1 and math_isnan_row(res["rows"][-1])
    curve = harness.read_curve(str(tmp_path / "seed0.csv"))
    assert list(curve["step"]) == [104.0] and np.isnan(curve["loss_critic"][-1])
    meta = harness.read_metadata(str(tmp_path / "seed0.meta.txt"))
    assert meta["aborted_at_step"] == "104"
    assert meta["aborted_at_iteration"] == "4"
    assert meta["aborted_primitive"] == "affine"
    assert meta["update_blocks"] == "3"


def math_isnan_row(row):
    return all(np.isnan(v) for v in row[1:])


def test_params_scale_identity_and_doubling():
    cfg = _quick_cfg()
    out = harness.params_scale(cfg, 4, 2)
    assert out["hidden_actor"] == (8, 8) and out["achieved_count"] == out["base_count"]

    # doubling every hidden width of a 1-hidden-layer net: closed-form count
    one = parse_config("algo=ddpg\nenv=pointmass\nhidden_actor=10\nhidden_critic=10\n")
    c1 = harness.network_param_count(one, 4, 2)
    c2 = harness.network_param_count(one, 4, 2, hidden_actor=(20,), hidden_critic=(20,))
    # actor: 4*10+10 + 10*2+2 = 72; doubled: 4*20+20 + 20*2+2 = 142
    # critic: 6*10+10 + 10*1+1 = 81; doubled: 6*20+20 + 20*1+1 = 161
    assert c1 == 72 + 81 and c2 == 142 + 161


def test_params_scale_ten_percent_within_five(tmp_path):
    cfg = parse_config(BASE_CFG + "params_multiplier=1.10\nhidden_actor=64,64\nhidden_critic=64,64\n")
    out = harness.params_scale(cfg, 4, 2)
    achieved = out["achieved_count"] / out["base_count"]
    assert abs(out["achieved_count"] - out["target_count"]) <= 0.05 * out["target_count"]
    assert achieved > 1.0
    run_cfg = parse_config(
        BASE_CFG + "params_multiplier=1.10\ntotal_steps=150\nwarmup_steps=100\n"
        "hidden_actor=64,64\nhidden_critic=64,64\n")
    harness.run_seed(run_cfg, 0, str(tmp_path))
    meta = harness.read_metadata(str(tmp_path / "seed0.meta.txt"))
    assert int(meta["params_actor_critic"]) > int(meta["params_base_count"])


def test_max_average_return_and_compare(tmp_path):
    steps = np.arange(1, 6) * 100

    def fake(path, returns_by_seed):
        os.makedirs(path, exist_ok=True)
        for k, rets in enumerate(returns_by_seed):
            rows = [(s, r, 0.0, 0.0, 0.0, 0.0) for s, r in zip(steps, rets)]
            harness.write_curve(os.path.join(path, f"seed{k}.csv"), rows)

    fake(str(tmp_path / "A"), [[0, 1, 4, 2, 0], [0, 3, 6, 2, 0]])
    fake(str(tmp_path / "B"), [[0, 1, 2, 1, 0], [0, 1, 2, 1, 0]])
    # window 1: no smoothing; A's across-seed mean peaks at (4+6)/2 = 5
    res = harness.compare(str(tmp_path / "A"), str(tmp_path / "B"), window=1)
    assert res["a"] == 5.0 and res["b"] == 2.0 and res["difference"] == 3.0
    # negative returns: A is the worse run, so the difference reads below 0
    # (the ratio -8 / -2 = 4 would read as A four times better)
    fake(str(tmp_path / "C"), [[-9, -8, -9, -9, -9], [-9, -8, -9, -9, -9]])
    fake(str(tmp_path / "D"), [[-3, -2, -3, -3, -3], [-3, -2, -3, -3, -3]])
    res = harness.compare(str(tmp_path / "C"), str(tmp_path / "D"), window=1)
    assert res["a"] == -8.0 and res["b"] == -2.0 and res["difference"] == -6.0
    # window 3 smooths the peak: mean curve A = [0,2,5,2,0] -> max (2+5+2)/3 = 3
    assert harness.max_average_return(
        harness.load_run_curves(str(tmp_path / "A")), window=3) == 3.0


def test_parallel_run_matches_serial(tmp_path):
    cfg = parse_config(BASE_CFG + "seeds=0,1\ntotal_steps=200\n")
    harness.run(cfg, str(tmp_path / "ser"), workers=1)
    harness.run(cfg, str(tmp_path / "par"), workers=2)
    for k in (0, 1):
        assert ((tmp_path / "ser" / f"seed{k}.csv").read_bytes()
                == (tmp_path / "par" / f"seed{k}.csv").read_bytes())


def test_snapshots_written_and_loadable(tmp_path):
    cfg = _quick_cfg("snapshot_every=100\n")
    harness.run_seed(cfg, 0, str(tmp_path))
    from mcrl.analysis import load_snapshot_vectors
    snaps = sorted((tmp_path / "snapshots").iterdir())
    assert len(snaps) == 4
    vecs = load_snapshot_vectors([str(p) for p in snaps])
    assert all(v.shape == vecs[0].shape for v in vecs)


def test_rng_streams_are_independent_and_reproducible():
    s1 = harness.rng_streams(7)
    s2 = harness.rng_streams(7)
    a = s1.env.standard_normal(4)
    b = s2.env.standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = s2.evaluation.standard_normal(4)
    assert not np.array_equal(b, c)


def test_vanilla_stream_reproduced_by_hand_rolled_loop(tmp_path):
    # the harness with mc_variant=none must match a manual loop over the
    # offpac primitives using identically derived streams
    from mcrl.envs import make_env
    from mcrl.offpac import exploration_action, vanilla_iteration
    from mcrl.replay import ReplayBuffer

    cfg = _quick_cfg()
    res = harness.run_seed(cfg, 3, str(tmp_path))

    streams = harness.rng_streams(3)
    env = make_env(cfg.env, cfg.env_seed)
    scaled = harness.params_scale(cfg, env.spec.state_dim, env.spec.action_dim)
    ms = harness.build_meta_state(cfg, env.spec, streams.init,
                                  hidden_actor=scaled["hidden_actor"],
                                  hidden_critic=scaled["hidden_critic"])
    buf = ReplayBuffer(cfg.buffer_capacity, env.spec.state_dim, env.spec.action_dim)
    s = env.reset(streams.env)
    for step in range(1, cfg.total_steps + 1):
        if step <= cfg.warmup_steps:
            a = streams.exploration.uniform(-1.0, 1.0, env.spec.action_dim)
        else:
            a = exploration_action(ms.base, s, streams.exploration)
        s2, r, done = env.step(s, a, streams.env)
        buf.push(s, a, r, s2, False)
        s = env.reset(streams.env) if done else s2
        if step > cfg.warmup_steps:
            vanilla_iteration(ms.base, buf, streams.replay, batch_size=cfg.batch_n)
    final = [p.value for p in ms.base.actor.parameters()]
    harness_final = [p.value for p in res["meta_state"].base.actor.parameters()]
    for a_, b_ in zip(final, harness_final):
        np.testing.assert_array_equal(a_, b_)
