import dataclasses
import os
import warnings

import numpy as np
import pytest

from mcrl import envs, harness, nets, offpac
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


def cfg_text(extra=""):
    """BASE_CFG with each key=value line of ``extra`` replacing or adding its key."""
    pairs = (line.split("=", 1) for line in (BASE_CFG + extra).splitlines() if line)
    return "".join(f"{k}={v}\n" for k, v in dict(pairs).items())


def test_parse_and_roundtrip():
    cfg = parse_config(cfg_text("batch_n=16\nhidden_actor=5,6\n"))
    assert cfg.algo == "ddpg" and cfg.batch_n == 16 and cfg.hidden_actor == (5, 6)
    text = harness.config_to_text(cfg)
    again = parse_config(text)
    assert again == cfg
    # a string that a config file cannot hold is refused, not read back changed
    for out_dir in ("runs#1", " runs", "runs ", "a\nseeds=5", "a\rb", "a\x0bb"):
        bad = dataclasses.replace(cfg, out_dir=out_dir)
        with pytest.raises(ValueError, match="cannot be written to a config file"):
            bad.validate()
        with pytest.raises(ValueError, match="cannot be written to a config file"):
            harness.run(bad)
    odd = dataclasses.replace(cfg, out_dir="runs/a b=c,d").validate()
    assert parse_config(harness.config_to_text(odd)) == odd


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(BASE_CFG + "learning_rte=0.1\n")
    # the inner step takes actor_lr; there is no separate inner rate
    with pytest.raises(ValueError, match="unknown config key 'inner_lr'"):
        parse_config(BASE_CFG + "inner_lr=0.05\n")
    # the meta-test draws batch_n rows; there is no separate validation size
    with pytest.raises(ValueError, match="unknown config key 'batch_m'"):
        parse_config(BASE_CFG + "batch_m=8\n")
    # a repeated key is an error, not an override; BASE_CFG has 9 lines
    with pytest.raises(ValueError, match="line 11: config key 'actor_lr' given twice"):
        parse_config(BASE_CFG + "actor_lr=0.5\nactor_lr=0.25\n")
    with pytest.raises(ValueError, match="line 10: config key 'seeds' given twice"):
        parse_config(BASE_CFG + "seeds=1\n")


def test_invalid_values_rejected_before_work():
    with pytest.raises(ValueError):
        parse_config(cfg_text("algo=ppo\n"))
    with pytest.raises(ValueError):
        parse_config(cfg_text("updates_multiplier=0.5\n"))
    with pytest.raises(ValueError):
        parse_config("seeds=\n")
    # a value of the wrong type names its line and key
    for bad in ("mc_hidden=wide", "batch_n=6.5", "tau=fast", "seeds=0,x"):
        key, val = bad.split("=")
        with pytest.raises(ValueError, match=rf"line 2: bad value for {key}: '{val}'"):
            parse_config("algo=ddpg\n" + bad + "\n")
    # each of these used to fail only after warmup work, or not at all
    for bad in ("batch_n=0", "tau=-0.1", "tau=2", "policy_delay=0",
                "gamma=1.5", "gamma=1.0", "gamma=-0.1", "hidden_actor=",
                "hidden_critic=", "hidden_actor=8,0", "warmup_steps=-1",
                "eval_every=401", "buffer_capacity=0", "actor_lr=-0.1",
                "critic_lr=-0.1", "mc_lr=-0.1", "expl_noise=-0.1", "target_noise=-0.1",
                "noise_clip=-0.1", "alpha=-0.1", "optimizer=rmsprop",
                "env=cartpole", "mc_hidden=0", "horizon=-1", "snapshot_every=-1",
                "seeds=0,-1", "env_seed=-1", "seeds=3,3", "seeds=0,1,0",
                # from 2**53 on, each env step would run 2**53 or more iterations
                "updates_multiplier=1e16", "updates_multiplier=9007199254740992"):
        with pytest.raises(ValueError):
            parse_config(cfg_text(bad + "\n"))
    # non-finite floats compare false against every bound; an inf
    # updates_multiplier would schedule iterations without end
    for bad in ("updates_multiplier=inf", "updates_multiplier=nan", "params_multiplier=nan",
                "params_multiplier=inf", "actor_lr=nan", "critic_lr=inf", "mc_lr=inf",
                "expl_noise=nan", "noise_clip=nan", "alpha=inf",
                "target_noise=-inf", "tau=nan", "gamma=nan"):
        with pytest.raises(ValueError, match="must be finite"):
            parse_config(cfg_text(bad + "\n"))


def test_unreachable_params_target_rejected_before_work(tmp_path):
    with pytest.raises(ValueError, match="cannot hit parameter target"):
        parse_config(cfg_text("params_multiplier=100\n"))
    cfg = dataclasses.replace(_quick_cfg(), params_multiplier=100.0)
    with pytest.raises(ValueError, match="cannot hit parameter target"):
        harness.run(cfg, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_non_default_settings_reach_the_learner():
    from mcrl.replay import ReplayBuffer

    cfg = harness.RunConfig(
        algo="td3", mc_variant="feature-state-action", meta_loss="plain", env="pendulum",
        batch_n=5, actor_lr=0.02, critic_lr=0.03, mc_lr=0.04,
        gamma=0.9, tau=0.1, expl_noise=0.3, policy_delay=3, target_noise=0.4,
        noise_clip=0.6, alpha=0.7, optimizer="adam", hidden_actor=(5, 6), hidden_critic=(7,),
        mc_hidden=9)
    defaults = harness.RunConfig()
    learner = ("algo", "mc_variant", "meta_loss", "batch_n", "actor_lr",
               "critic_lr", "mc_lr", "gamma", "tau", "expl_noise",
               "policy_delay", "target_noise", "noise_clip", "alpha", "optimizer",
               "hidden_actor", "hidden_critic", "mc_hidden")
    assert all(getattr(cfg, k) != getattr(defaults, k) for k in learner)
    spec = envs.make_env(cfg.env).spec
    sd, ad = spec.state_dim, spec.action_dim
    state = harness.build_meta_state(cfg, spec, np.random.default_rng(0))
    assert state.cfg is cfg  # the settings below are read from it at use
    assert type(state.actor_opt) is offpac.Adam and state.actor_opt.lr == 0.02
    assert type(state.critic_opt) is offpac.Adam and state.critic_opt.lr == 0.03
    assert type(state.mc_opt) is offpac.Sgd and state.mc_opt.lr == 0.04
    assert state.actor.net.dims == [sd, 5, 6, ad]
    assert [net.dims for net in state.critic.nets] == [[sd + ad, 7, 1]] * 2
    assert state.mc.variant == "feature-state-action" and state.mc.f.dims == [6 + sd + ad, 9, 9, 1]

    buf = ReplayBuffer(16, sd, ad)
    rng = np.random.default_rng(1)
    for _ in range(16):
        buf.push(rng.normal(size=sd), rng.uniform(-1, 1, ad), float(rng.normal()),
                 rng.normal(size=sd))
    sizes = []
    sample = buf.sample_batch
    buf.sample_batch = lambda n, r: sizes.append(n) or sample(n, r)
    for _ in range(3):
        harness.train_iteration(state, buf, rng)
    # policy_delay 3: iterations 1 and 2 draw d_trn only, iteration 3 also d_val
    assert sizes == [5, 5, 5, 5]


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
    """An env needs only ``spec``, ``reset`` and ``step``."""

    def __init__(self, horizon=7):
        self.spec = envs.EnvSpec(2, 1, 1.0, horizon)

    def reset(self, rng):
        return np.zeros(2)

    def step(self, state, action, rng):
        return state, 1.0


def zeros_policy(states):
    return np.zeros((len(states), 1, 1))


def test_evaluate_policy_constant_env():
    mean, std = harness.evaluate_policy(zeros_policy, ConstantRewardEnv(7), 10,
                                        rng=np.random.default_rng(0))
    assert mean == 7.0 and std == 0.0
    mean1, std1 = harness.evaluate_policy(zeros_policy, ConstantRewardEnv(7), 1,
                                          rng=np.random.default_rng(0))
    assert std1 == 0.0
    with pytest.raises(ValueError, match="episodes must be >= 1"):
        harness.evaluate_policy(zeros_policy, ConstantRewardEnv(7), 0,
                                rng=np.random.default_rng(0))


def test_evaluate_matches_value_iteration_oracle():
    # deterministic 2x2 MDP where action 1 is optimal in both states at every
    # horizon (state 0 pays 1.0 and stays), so the stationary policy [1, 1]
    # is exactly optimal
    P = np.zeros((2, 2, 2))
    P[0, 1, 0] = 1.0
    P[0, 0, 1] = 1.0
    P[1, 1, 0] = 1.0
    P[1, 0, 1] = 1.0
    R = np.array([[0.1, 1.0], [0.0, 0.2]])
    mdp = envs.TabularMdp(P, R, horizon=12)
    mean, std = harness.evaluate_policy(lambda s: np.ones((len(s), 1, 1)), mdp, 10,
                                        rng=np.random.default_rng(3))
    oracle = envs.tabular_optimal_return(mdp, gamma=1.0, horizon=12)
    assert std == 0.0
    assert abs(mean - oracle) <= 1e-9


def step_major_evaluation(act, env, episodes, rng):
    """The reference: the episodes' resets in order, then each step's env steps in
    episode order, one 1-D state per action."""
    states = [env.reset(rng) for _ in range(episodes)]
    returns = [0.0] * episodes
    for _ in range(env.spec.horizon):
        for e in range(episodes):
            states[e], r = env.step(states[e], act(np.array(states[e])), rng)
            returns[e] += r
    returns = np.asarray(returns)
    return float(returns.mean()), float(returns.std())


def sequential_evaluation(act, env, episodes, rng):
    """One episode after another on one env, one 1-D state per action."""
    returns = []
    for _ in range(episodes):
        s = env.reset(rng)
        total = 0.0
        for _ in range(env.spec.horizon):
            s, r = env.step(s, act(np.array(s)), rng)
            total += r
        returns.append(total)
    returns = np.asarray(returns)
    return float(returns.mean()), float(returns.std())


def _spread_actor(env_name, head):
    spec = envs.make_env(env_name, 4).spec
    actor = nets.Actor(spec.state_dim, spec.action_dim, spec.action_bound,
                       np.random.default_rng(5), hidden=(64, 64), head_kind=head)
    # large weights, so that actions and returns spread over many values
    actor.set_param_values([3.0 * p.value for p in actor.parameters()])
    return actor


def _evaluations_agree(reference, env_name, episodes, actor, bits=np.random.PCG64):
    """``evaluate_policy`` and ``reference`` give the same (mean, std) bytes and leave
    their generators, on ``bits`` seeded alike, in the same state."""
    rng, ref_rng = np.random.Generator(bits(9)), np.random.Generator(bits(9))
    for g in (rng, ref_rng):  # start the generators mid-stream
        g.random(3)
    got = harness.evaluate_policy(actor.act_np, envs.make_env(env_name, 4), episodes, rng)
    want = reference(actor.act_np, envs.make_env(env_name, 4), episodes, ref_rng)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    # repr, since MT19937's state holds an array
    assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)


@pytest.mark.parametrize("head", ["deterministic", "gaussian"])
@pytest.mark.parametrize("episodes", [1, 2, 10])
@pytest.mark.parametrize("env_name", envs.ENV_NAMES)
def test_lockstep_evaluation_has_the_bytes_of_sequential_episodes(env_name, episodes, head):
    # step-major draws for every env; PointMass and Pendulum draw only at reset, so
    # for them that is also the order of the episodes run one after another
    actor = _spread_actor(env_name, head)
    _evaluations_agree(step_major_evaluation, env_name, episodes, actor)
    if env_name != "tabular":
        _evaluations_agree(sequential_evaluation, env_name, episodes, actor)
    stacks = []

    def act(states):
        stacks.append(states.shape)
        return actor.act_np(states)

    spec = envs.make_env(env_name, 4).spec
    harness.evaluate_policy(act, envs.make_env(env_name, 4), episodes, np.random.default_rng(9))
    # one replay per step, over the stack of every episode's state
    assert stacks == [(episodes, 1, spec.state_dim)] * spec.horizon


@pytest.mark.parametrize("bits", [np.random.MT19937, np.random.SFC64])
@pytest.mark.parametrize("env_name", envs.ENV_NAMES)
def test_evaluation_takes_any_numpy_generator(env_name, bits):
    # bit generators without PCG64's advance()
    _evaluations_agree(step_major_evaluation, env_name, 10, _spread_actor(env_name, "gaussian"),
                       bits)


def test_csv_roundtrip_exact(tmp_path):
    rows = [(100, 1.234567890123456789, 0.1, -2.5e-7, 0.0, -0.999999),
            (200, -3.3333333333333335, 7e300, 1.0, 2.0, 3.0)]
    path = tmp_path / "c.csv"
    harness.write_curve(str(path), rows)
    back = harness.read_curve(str(path))
    for i, col in enumerate(harness.CSV_COLUMNS):
        np.testing.assert_array_equal(back[col], [r[i] for r in rows])


def test_read_curve_rejects_a_truncated_row(tmp_path):
    # a killed run can leave its last row cut short
    path = tmp_path / "seed0.csv"
    harness.write_curve(str(path), [(100, -5.0, 0.5, 1.0, 0.0, 0.0)])
    with open(path, "a") as fh:
        fh.write("200,-4.0\n")
    with pytest.raises(ValueError, match=r"seed0\.csv, line 3: 2 fields, expected 6"):
        harness.read_curve(str(path))
    path.write_text(",".join(harness.CSV_COLUMNS) + "\n100,-5.0,0.5,1.0,0.0,1e\n")
    with pytest.raises(ValueError, match=r"seed0\.csv, line 2: could not convert"):
        harness.read_curve(str(path))


def _quick_cfg(extra=""):
    return parse_config(cfg_text(extra))


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
    # evaluation draws from its own stream only, so how many episodes it
    # runs changes neither the training trajectory nor the loss columns
    one, three = (harness.run_seed(_quick_cfg(f"eval_episodes={n}\n"), 0, str(tmp_path / str(n)))
                  for n in (1, 3))
    p_one = [p.value for p in one["state"].actor.parameters()]
    p_three = [p.value for p in three["state"].actor.parameters()]
    for a, b in zip(p_one, p_three):
        np.testing.assert_array_equal(a, b)
    assert len(one["rows"]) == len(three["rows"]) and one["rows"] != three["rows"]
    # only the eval columns differ
    for r_one, r_three in zip(one["rows"], three["rows"]):
        assert r_one[0] == r_three[0] and r_one[3:] == r_three[3:]


def test_updates_multiplier_counts(tmp_path):
    base = _quick_cfg()
    boosted = _quick_cfg("updates_multiplier=1.25\n")
    r1 = harness.run_seed(base, 0, str(tmp_path / "u1"))
    r2 = harness.run_seed(boosted, 0, str(tmp_path / "u2"))
    assert r1["update_blocks"] == 300
    assert r2["update_blocks"] == 375  # exactly 25% more
    meta = harness.read_metadata(str(tmp_path / "u2" / "seed0.meta.txt"))
    assert meta["update_blocks"] == "375"


@pytest.mark.parametrize("m, blocks", [(1.2, 12), (1.5, 15), (1.7, 17), (2.3, 23)])
def test_updates_multiplier_runs_floor_of_steps_times_m(tmp_path, m, blocks):
    # floor(10 * m) iterations over 10 post-warmup steps, the count that
    # bench/workloads.scheduled_iterations expects; 1.2, 1.7 and 2.3 are not
    # dyadic, so a running float sum of m falls short of the integers
    cfg = _quick_cfg(f"total_steps=20\nwarmup_steps=10\neval_every=20\neval_episodes=1\n"
                     f"batch_n=4\nupdates_multiplier={m}\n")
    assert harness.run_seed(cfg, 0, str(tmp_path))["update_blocks"] == blocks


def _poisoned_run(tmp_path, monkeypatch, key, value, from_call):
    """run_seed with ``key`` of every train_iteration result from call
    ``from_call`` on replaced by ``value``; returns the result record."""
    calls = {"n": 0}
    real = harness.train_iteration

    def poisoned(state, buffer, rng):
        calls["n"] += 1
        m = real(state, buffer, rng)
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
    assert meta["aborted_kind"] == "" and meta["update_blocks"] == "49"
    assert meta["aborted_phase"] == ""  # no op raised, so no region names it


@pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
def test_infinite_loss_aborts_like_nan(tmp_path, monkeypatch, bad):
    res = _poisoned_run(tmp_path, monkeypatch, "loss_td", bad, 30)
    assert res["aborted_at"] == 130  # warmup 100 + 30th iteration
    assert math_isnan_row(res["rows"][-1])
    meta = harness.read_metadata(str(tmp_path / "seed0.meta.txt"))
    assert meta["aborted_at_step"] == "130"
    assert res["update_blocks"] == 29 and meta["update_blocks"] == "29"


# ROADMAP item 12's divergence config: learning rates of 1e6 overflow the
# nets within a few dozen iterations of the end of warmup
DIVERGE = ("env=pointmass\nactor_lr=1e6\ncritic_lr=1e6\ntotal_steps=1500\n"
           "warmup_steps=1000\neval_every=1500\neval_episodes=1\nhidden_actor=8,8\n"
           "hidden_critic=8,8\nbatch_n=8\n")


@pytest.mark.parametrize("text, step, iteration, primitive, phase", [
    ("algo=sac\nenv=pointmass\nactor_lr=1e6\ncritic_lr=1e6\ntotal_steps=105\n"
     "warmup_steps=100\neval_every=105\neval_episodes=1\nhidden_actor=8,8\n"
     "hidden_critic=8,8\nbatch_n=8\n", 104, 4, "square", "critic"),
    ("algo=ddpg\n" + DIVERGE, 1024, 24, "square", "critic"),
    ("algo=ddpg\nmc_variant=feature\n" + DIVERGE, 1024, 24, "square", "critic"),
    ("algo=td3\n" + DIVERGE, 1005, 5, "dense", "critic"),
    ("algo=td3\nmc_variant=feature\n" + DIVERGE, 1006, 6, "dense", "critic"),
    ("algo=sac\n" + DIVERGE, 1004, 4, "dense", "actor"),
    ("algo=sac\nmc_variant=feature\n" + DIVERGE, 1004, 4, "dense", "critic"),
], ids=["sac-105", "ddpg", "ddpg-feature", "td3", "td3-feature", "sac", "sac-feature"])
def test_real_divergence_aborts_with_the_primitive(tmp_path, text, step, iteration, primitive,
                                                   phase):
    # the first op to overflow raises in the forward pass, before any
    # loss or gradient is non-finite, and warns about nothing
    cfg = parse_config(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = harness.run_seed(cfg, 0, str(tmp_path))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert res["aborted_at"] == step
    assert res["update_blocks"] == iteration - 1  # the aborted one is not counted
    assert len(res["rows"]) == 1 and math_isnan_row(res["rows"][-1])
    curve = harness.read_curve(str(tmp_path / "seed0.csv"))
    assert list(curve["step"]) == [step] and np.isnan(curve["loss_critic"][-1])
    meta = harness.read_metadata(str(tmp_path / "seed0.meta.txt"))
    assert meta["aborted_at_step"] == str(step)
    assert meta["aborted_at_iteration"] == str(iteration)
    assert meta["update_blocks"] == str(iteration - 1)
    assert meta["aborted_primitive"] == primitive
    assert meta["aborted_kind"] == "forward"
    assert meta["aborted_phase"] == phase  # the recorded region it raised in


@pytest.mark.parametrize("algo, step", [("ddpg", 102), ("td3", 103), ("sac", 102)])
def test_a_diverged_actor_ends_its_seed_not_the_run(tmp_path, algo, step):
    # the first actor step at a rate of 1e308 overflows the next exploration
    # action, outside any iteration; the run still finishes every seed
    cfg = parse_config(f"algo={algo}\nenv=pendulum\nactor_lr=1e308\ncritic_lr=0\n"
                       "total_steps=300\nwarmup_steps=100\neval_every=150\n"
                       "eval_episodes=1\nseeds=0,1\n")
    results = harness.run(cfg, str(tmp_path))
    assert results[0]["aborted_at"] == step
    for seed in cfg.seeds:
        assert math_isnan_row(results[seed]["rows"][-1])
        meta = harness.read_metadata(str(tmp_path / f"seed{seed}.meta.txt"))
        assert (meta["aborted_primitive"], meta["aborted_kind"]) == ("dense", "forward")
        assert meta["aborted_phase"] == "explore"


def test_an_evaluation_abort_names_the_greedy_region(tmp_path, monkeypatch):
    # every step is warmup, so the first policy call is evaluation's; actor
    # weights of 1e200 overflow its second layer
    real = harness.build_meta_state

    def loud_actor(cfg, spec, rng):
        state = real(cfg, spec, rng)
        state.actor.set_param_values([np.full(p.shape, 1e200) for p in state.actor.parameters()])
        return state

    monkeypatch.setattr(harness, "build_meta_state", loud_actor)
    # every episode overflows at its first action; the record is the same at 3 episodes
    for extra in ("", "eval_episodes=3\n"):
        res = harness.run_seed(_quick_cfg("warmup_steps=400\n" + extra), 0, str(tmp_path))
        assert res["aborted_at"] == 100 and res["update_blocks"] == 0
        meta = harness.read_metadata(str(tmp_path / "seed0.meta.txt"))
        assert (meta["aborted_primitive"], meta["aborted_kind"]) == ("dense", "forward")
        assert meta["aborted_phase"] == "greedy" and meta["aborted_at_iteration"] == "0"


def math_isnan_row(row):
    return all(np.isnan(v) for v in row[1:])


def test_learner_config_identity_and_doubling():
    cfg = _quick_cfg()
    assert harness.learner_config(cfg, 4, 2) is cfg

    # doubling every hidden width of a 1-hidden-layer net: closed-form count
    one = parse_config("algo=ddpg\nenv=pointmass\nhidden_actor=10\nhidden_critic=10\n")
    c1 = harness.network_param_count(one, 4, 2)
    c2 = harness.network_param_count(one, 4, 2, hidden_actor=(20,), hidden_critic=(20,))
    # actor: 4*10+10 + 10*2+2 = 72; doubled: 4*20+20 + 20*2+2 = 142
    # critic: 6*10+10 + 10*1+1 = 81; doubled: 6*20+20 + 20*1+1 = 161
    assert c1 == 72 + 81 and c2 == 142 + 161


@pytest.mark.parametrize("algo", offpac.ALGOS)
def test_param_count_is_the_count_of_the_nets_built(algo):
    # the default widths, then other widths through the override arguments
    spec = envs.make_env("pendulum").spec
    cfg = harness.RunConfig(algo=algo)
    for ha, hc in ((None, None), ((5, 7, 3), (9,))):
        built = dataclasses.replace(cfg, hidden_actor=ha or cfg.hidden_actor,
                                    hidden_critic=hc or cfg.hidden_critic)
        state = offpac.AlgoState(built, spec, np.random.default_rng(0))
        n = sum(p.value.size for p in state.actor.parameters() + state.critic.parameters())
        assert harness.network_param_count(cfg, spec.state_dim, spec.action_dim, ha, hc) == n


def test_learner_config_ten_percent_within_five(tmp_path):
    cfg = parse_config(cfg_text("params_multiplier=1.10\nhidden_actor=64,64\n"
                                "hidden_critic=64,64\n"))
    learner = harness.learner_config(cfg, 4, 2)
    assert learner.params_multiplier == 1.0 and learner.hidden_actor == learner.hidden_critic
    base = harness.network_param_count(cfg, 4, 2)
    achieved = harness.network_param_count(learner, 4, 2)
    assert abs(achieved - 1.10 * base) <= 0.05 * 1.10 * base
    assert achieved > base
    # every other setting is the config's own
    assert dataclasses.replace(learner, params_multiplier=1.10, hidden_actor=(64, 64),
                               hidden_critic=(64, 64)) == cfg
    run_cfg = parse_config(cfg_text(
        "params_multiplier=1.10\ntotal_steps=150\nwarmup_steps=100\n"
        "hidden_actor=64,64\nhidden_critic=64,64\n"))
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
    cfg = parse_config(cfg_text("seeds=0,1\ntotal_steps=200\n"))
    serial = harness.run(cfg, str(tmp_path), workers=1)
    csvs = [(tmp_path / f"seed{k}.csv").read_bytes() for k in (0, 1)]
    parallel = harness.run(cfg, str(tmp_path), workers=2)
    # one record shape on both paths: neither keeps a seed's learner state
    assert parallel == serial
    assert [(tmp_path / f"seed{k}.csv").read_bytes() for k in (0, 1)] == csvs


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

    # the second config's warmup crosses two warmup-block boundaries and
    # ends inside a third block; the third's horizon divides neither the
    # warmup nor eval_every, so episodes end between them
    warmup = 2 * harness.WARMUP_BLOCK + 37
    long_warmup = f"warmup_steps={warmup}\ntotal_steps={warmup + 20}\neval_every={warmup + 20}\n"
    for cfg in (_quick_cfg(), _quick_cfg(long_warmup), _quick_cfg("horizon=7\n")):
        res = harness.run_seed(cfg, 3, str(tmp_path))

        streams = harness.rng_streams(3)
        env = make_env(cfg.env, cfg.env_seed, horizon=cfg.horizon)
        state = harness.build_meta_state(
            harness.learner_config(cfg, env.spec.state_dim, env.spec.action_dim), env.spec,
            streams.init)
        buf = ReplayBuffer(cfg.buffer_capacity, env.spec.state_dim, env.spec.action_dim)
        s, t = env.reset(streams.env), 0  # t: the steps taken in this episode
        for step in range(1, cfg.total_steps + 1):
            if step <= cfg.warmup_steps:
                a = streams.exploration.uniform(-1.0, 1.0, env.spec.action_dim)
            else:
                a = exploration_action(state, np.array(s), streams.exploration)
            s2, r = env.step(s, a, streams.env)
            buf.push(s, a, r, s2)
            t += 1
            s, t = (env.reset(streams.env), 0) if t == env.spec.horizon else (s2, t)
            if step > cfg.warmup_steps:
                vanilla_iteration(state, buf, streams.replay)
        final = [p.value for p in state.actor.parameters()]
        harness_final = [p.value for p in res["state"].actor.parameters()]
        for a_, b_ in zip(final, harness_final):
            np.testing.assert_array_equal(a_, b_)
